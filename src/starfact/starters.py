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
involution; conditions 2 and 3 test that where they need it.  A
one-factorization's factors are sorted tuples of pairs: develop, verify
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


def difference_counts(
    model: CayleyModel, sets
) -> tuple[Counter[int], list[tuple[int, tuple[int, int]]]]:
    """How often the legal edges of the sets cover each difference, and the
    (set number, edge) of every illegal edge, which covers nothing."""
    counts: Counter[int] = Counter()
    illegal: list[tuple[int, tuple[int, int]]] = []
    for i, sset in enumerate(sets):
        for e in sset.edges:
            try:
                counts.update(model.edge_difference(e))
            except ValueError:
                illegal.append((i, e))
    return counts, illegal


def check_difference_cover(model: CayleyModel, sets) -> ConditionVerdict:
    verdict = ConditionVerdict("condition 1 (differences cover Omega exactly once)")
    counts, illegal = difference_counts(model, sets)
    el = model.group.elements()
    for i, (u, v) in illegal:
        d = el[model.group.difference(u, v)]
        verdict.fail(f"set {i}: edge {el[u]}~{el[v]} is illegal (difference {d} in H)")
    for d in sorted(counts):
        if counts[d] > 1:
            verdict.fail(f"difference {el[d]} covered {counts[d]} times")
    for d in sorted(model.omega):
        if d not in counts:
            verdict.fail(f"difference {el[d]} not covered")
    return verdict


def check_coset_transversals(model: CayleyModel, sets) -> ConditionVerdict:
    """Both endpoints of a long edge are marked, only the lesser endpoint of
    a short one.  Either endpoint of a short edge lies in the same coset of
    any subgroup containing its difference, so the choice is safe.  No
    legality check, so verifiers can report an illegal edge's other faults
    too."""
    verdict = ConditionVerdict("condition 2 (marked endpoints form coset transversals)")
    group = model.group
    el = group.elements()
    for i, sset in enumerate(sets):
        sub = sset.subgroup
        hits = [0] * sub.index
        for u, v in sset.edges:
            hits[sub.coset_of[u]] += 1
            if group.difference(u, v) not in group.involutions:
                hits[sub.coset_of[v]] += 1
        for r, count in zip(sub.coset_reps, hits):
            if count != 1:
                verdict.fail(
                    f"set {i}: coset of {el[r]} has {count} marked endpoints"
                    f" (companion order {sub.order})"
                )
    return verdict


def check_short_edge_membership(model: CayleyModel, sets) -> ConditionVerdict:
    verdict = ConditionVerdict("condition 3 (short-edge differences lie in the companion)")
    group = model.group
    el = group.elements()
    for i, sset in enumerate(sets):
        for u, v in sset.edges:
            d = group.difference(u, v)
            if d in group.involutions and d not in sset.subgroup.elements:
                verdict.fail(
                    f"set {i}: short edge {el[u]}~{el[v]} has difference {el[d]}"
                    " outside its companion subgroup"
                )
    return verdict


def verify_starter(starter: Starter) -> VerificationReport:
    """Check the three starter conditions, reporting every violation."""
    c1 = check_difference_cover(starter.model, starter.sets)
    c2 = check_coset_transversals(starter.model, starter.sets)
    c3 = check_short_edge_membership(starter.model, starter.sets)
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


def verify_factorization(model: CayleyModel, fact: OneFactorization) -> VerificationReport:
    """Check factors are perfect matchings of legal edges, that they
    partition the edge set, and that there are exactly mn - n of them."""
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


def check_invariance(model: CayleyModel, fact: OneFactorization, exhaustive: bool = False) -> bool:
    """True when translating any factor by any group element lands on a
    factor.  Checking the standard generators suffices because translations
    compose; exhaustive=True checks every group element anyway."""
    group = model.group
    order = group.order
    keys = {tuple(u * order + v for u, v in factor) for factor in fact.factors}
    if exhaustive:
        shifts = range(1, group.order)  # every element but the identity, 0
    else:
        shifts = [group.index_of(g) for g in group.full_subgroup().generators]
    rows = [group.translation(g) for g in shifts]
    for factor in fact.factors:
        us = [u for u, _ in factor]
        vs = [v for _, v in factor]
        for row in rows:
            if _moved(us, vs, row, order) not in keys:
                return False
    return True
