"""Starters for sharply transitive one-factorizations, their verification,
and their development into full factorizations.

A starter is a family of edge sets S_1..S_k with companion subgroups
H_1..H_k satisfying three conditions:

1. the differences of all edges cover Omega exactly once (as a multiset);
2. the marked endpoints of each S_i form an exact transversal of the
   cosets of H_i, counted with multiplicity per edge;
3. the difference of every short edge of S_i lies in H_i.

Developing a valid starter (translating each S_i by H_i and then by the
whole group) yields a one-factorization left invariant by every
translation.

Every edge, in a starter set or a factor, is a (u, v) vertex-index pair
with u < v.  An edge is short when group.difference(u, v) is an
involution.  scan_sets reads each starter edge's difference once and
judges all three conditions from it; verify_starter formats its messages
from that one pass, and construct_prime_power reads its counts to find the
differences its family leaves uncovered.
A one-factorization's factors are sorted tuples of pairs: develop, verify
and invariance translate and count them through the group's translation
rows, naming a pair by the code u * order + v where it must be sorted or
looked up.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat

from .cayley import CayleyModel
from .groups import Subgroup

__all__ = [
    "StarterSet",
    "Starter",
    "OneFactorization",
    "ConditionVerdict",
    "VerificationReport",
    "InvalidStarterError",
    "verify_starter",
    "develop_factorization",
    "verify_factorization",
    "check_invariance",
]


@dataclass(frozen=True)
class StarterSet:
    """One edge set, sorted (u, v) pairs, together with its companion
    subgroup."""

    edges: tuple[tuple[int, int], ...]
    subgroup: Subgroup


@dataclass(frozen=True)
class Starter:
    model: CayleyModel
    sets: tuple[StarterSet, ...]
    provenance: dict | None = None


@dataclass(frozen=True)
class OneFactorization:
    """Each factor is a sorted tuple of (u, v) vertex-index pairs with
    u < v, and the factors are sorted."""

    model: CayleyModel
    factors: tuple[tuple[tuple[int, int], ...], ...]


@dataclass
class ConditionVerdict:
    label: str
    ok: bool = True
    violations: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.ok = False
        self.violations.append(message)


@dataclass
class VerificationReport:
    passed: bool
    condition1: ConditionVerdict
    condition2: ConditionVerdict
    condition3: ConditionVerdict

    def summary(self) -> str:
        lines = [f"passed: {self.passed}"]
        for cond in (self.condition1, self.condition2, self.condition3):
            lines.append(f"{cond.label}: {'ok' if cond.ok else 'FAILED'}")
            lines.extend(f"  - {v}" for v in cond.violations)
        return "\n".join(lines)

    def payload(self) -> dict:
        return {
            "passed": self.passed,
            "conditions": [
                {"label": c.label, "ok": c.ok, "violations": list(c.violations)}
                for c in (self.condition1, self.condition2, self.condition3)
            ],
        }


class InvalidStarterError(ValueError):
    """Raised when an operation needs a valid starter but verification failed."""

    def __init__(self, report: VerificationReport):
        super().__init__("starter failed verification:\n" + report.summary())
        self.report = report


def scan_sets(model: CayleyModel, sets):
    """One pass over the edges of sets, reading each edge's difference once.

    Returns (counts, illegal, condition2, condition3): how often the legal
    edges cover each difference, as a list indexed by difference; the (set
    number, u, v, difference) of every illegal edge, which covers nothing;
    and the verdicts on conditions 2 and 3.  Condition 2 marks both
    endpoints of a long edge and only the lesser endpoint of a short one:
    either endpoint of a short edge lies in the same coset of any subgroup
    containing its difference, so the choice is safe.  Conditions 2 and 3
    judge illegal edges too, so a verifier reports their other faults."""
    group = model.group
    el = group.elements()
    negs = group.negs
    invol = group.involutions
    in_h = model.H.elements
    counts = [0] * group.order
    illegal: list[tuple[int, int, int, int]] = []
    c2 = ConditionVerdict("condition 2 (marked endpoints form coset transversals)")
    c3 = ConditionVerdict("condition 3 (short-edge differences lie in the companion)")
    for i, sset in enumerate(sets):
        sub = sset.subgroup
        coset = sub.coset_of
        hits = [0] * sub.index
        for u, v in sset.edges:
            d = group.difference(u, v)
            hits[coset[u]] += 1
            short = d in invol
            if not short:
                hits[coset[v]] += 1
            if d in in_h:
                illegal.append((i, u, v, d))
            else:
                counts[d] += 1
                if not short:
                    counts[negs[d]] += 1
            if short and d not in sub.elements:
                c3.fail(
                    f"set {i}: short edge {el[u]}~{el[v]} has difference {el[d]}"
                    " outside its companion subgroup"
                )
        for r, count in zip(sub.coset_reps, hits):
            if count != 1:
                c2.fail(
                    f"set {i}: coset of {el[r]} has {count} marked endpoints"
                    f" (companion order {sub.order})"
                )
    return counts, illegal, c2, c3


def verify_starter(starter: Starter) -> VerificationReport:
    """Check the three starter conditions, reporting every violation."""
    model = starter.model
    counts, illegal, c2, c3 = scan_sets(model, starter.sets)
    el = model.group.elements()
    c1 = ConditionVerdict("condition 1 (differences cover Omega exactly once)")
    for i, u, v, d in illegal:
        c1.fail(f"set {i}: edge {el[u]}~{el[v]} is illegal (difference {el[d]} in H)")
    for d, count in enumerate(counts):
        if count > 1:
            c1.fail(f"difference {el[d]} covered {count} times")
    for d in sorted(model.omega):
        if not counts[d]:
            c1.fail(f"difference {el[d]} not covered")
    return VerificationReport(c1.ok and c2.ok and c3.ok, c1, c2, c3)


def _codes(a, b, order: int) -> tuple[int, ...]:
    """The pairs zip(a, b), each named by its code u * order + v with
    u < v, in ascending order: the order of the (u, v) pairs themselves."""
    return tuple(sorted([x * order + y if x < y else y * order + x for x, y in zip(a, b)]))


def _moved(us, vs, row, order: int) -> tuple[int, ...]:
    """Codes of the pairs (us[i], vs[i]) moved by row, ascending."""
    get = row.__getitem__
    return _codes(map(get, us), map(get, vs), order)


def develop_factorization(starter: Starter) -> OneFactorization:
    """Translate each set by its companion, then by coset representatives,
    deduplicate factors as edge sets, and order them lexicographically."""
    report = verify_starter(starter)
    if not report.passed:
        raise InvalidStarterError(report)
    model = starter.model
    order = model.group.order
    rows = model.group.translation
    seen: dict[tuple[int, ...], None] = {}
    for sset in starter.sets:
        members = sset.subgroup.elements
        base = set()
        for u, v in sset.edges:
            # u + h is rows(u)[h], so one pass moves the edge by every member.
            at_u, at_v = rows(u).__getitem__, rows(v).__getitem__
            base.update(_codes(map(at_u, members), map(at_v, members), order))
        base = sorted(base)
        us = [c // order for c in base]
        vs = [c % order for c in base]
        # Translating by one representative per coset of the companion
        # already reaches every distinct translate of the base factor.
        for r in sset.subgroup.coset_reps:
            seen.setdefault(_moved(us, vs, rows(r), order), None)
    # Codes sort as their pairs do, so sorting the codes sorts the factors.
    factors = tuple(tuple(map(divmod, codes, repeat(order))) for codes in sorted(seen))
    return OneFactorization(model, factors)


def verify_factorization(fact: OneFactorization) -> VerificationReport:
    """Check factors are perfect matchings of legal edges of fact.model,
    that they partition its edge set, and that there are exactly mn - n of
    them."""
    model = fact.model
    c1 = ConditionVerdict("factors are perfect matchings of legal edges")
    c2 = ConditionVerdict("factors partition the edge set")
    c3 = ConditionVerdict("factor count equals mn - n")
    group = model.group
    order = group.order
    el = group.elements()
    coset = model.H.coset_of
    edge_counts: Counter[tuple[int, int]] = Counter()
    for fi, factor in enumerate(fact.factors):
        for u, v in factor:
            if coset[u] == coset[v]:
                d = el[group.difference(u, v)]
                c1.fail(f"factor {fi}: illegal edge {el[u]}~{el[v]} (difference {d} in H)")
        ends = [x for pair in factor for x in pair]
        # Every vertex is covered once exactly when there are order ends,
        # all distinct; only a failing factor is counted vertex by vertex.
        if len(ends) != order or len(set(ends)) != order:
            covered = Counter(ends)
            bad = [el[v] for v in range(order) if covered[v] != 1]
            if bad:
                more = "..." if len(bad) > 4 else ""
                c1.fail(f"factor {fi}: vertices covered != once: {bad[:4]}{more}")
        edge_counts.update(factor)
    dups = {e: c for e, c in edge_counts.items() if c > 1}
    if dups:
        some = [(el[u], el[v]) for u, v in sorted(dups)[:4]]
        c2.fail(f"{len(dups)} edges appear in more than one factor, e.g. {some}")
    if c1.ok and not dups and len(edge_counts) != model.edge_count:
        c2.fail(
            f"{len(edge_counts)} distinct edges used, expected {model.edge_count}"
        )
    expected = model.group.order - model.n
    if len(fact.factors) != expected:
        c3.fail(f"{len(fact.factors)} factors, expected {expected}")
    return VerificationReport(c1.ok and c2.ok and c3.ok, c1, c2, c3)


def check_invariance(fact: OneFactorization) -> bool:
    """True when translating any factor by any element of fact.model.group
    lands on a factor.  Only the standard generators are tried: every
    translation is a composite of theirs."""
    group = fact.model.group
    order = group.order
    keys = {tuple(u * order + v for u, v in factor) for factor in fact.factors}
    rows = [group.translation(group.index_of(g)) for g in group.full_subgroup().generators]
    for factor in fact.factors:
        us = [u for u, _ in factor]
        vs = [v for _, v in factor]
        for row in rows:
            if _moved(us, vs, row, order) not in keys:
                return False
    return True
