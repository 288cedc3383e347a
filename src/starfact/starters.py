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
A one-factorization's factors are sorted tuples of pairs.  Develop,
verification and invariance work a factor at a time on its mate list,
mate[u] = v and mate[v] = u, held as tuples in OneFactorization.mates.  A
factorization that develop_factorization or the JSON loader builds from
perfect matchings keeps only their sorted mate tuples and derives its
pairs on first read, which only the writer does; verification and
invariance read no pair unless a factor is faulty.  Translating the
matching by r is the permutation r.m.r^-1, composed in C by
operator.itemgetter over translation rows.  The group builds a fresh row
at each call, so develop_factorization keeps the rows it reuses for the
one call, and check_invariance builds one row and one inverse row per
generator of the group and looks each translated mate tuple up in one set
of the factorization's own.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import chain
from operator import itemgetter

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
    u < v, and the factors are sorted.  A factorization that develop or the
    JSON loader builds from perfect matchings keeps only their sorted mate
    tuples, and derives its factors from them on first read."""

    model: CayleyModel
    factors: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def _from_mates(cls, model: CayleyModel, mates: tuple[tuple[int, ...], ...]):
        """The factorization whose factors are the perfect matchings with
        the sorted mate tuples mates."""
        fact = object.__new__(cls)
        object.__setattr__(fact, "model", model)
        fact.__dict__["mates"] = mates
        return fact

    def __getattr__(self, name: str):
        # Reached only for an attribute never set: the factors of a
        # factorization built by _from_mates, derived and kept on first read.
        # Mate tuples sort as their pair tuples do, so the factors come out
        # sorted.
        if name != "factors" or "mates" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        factors = tuple(tuple([(u, v) for u, v in enumerate(m) if u < v]) for m in self.mates)
        object.__setattr__(self, "factors", factors)
        return factors

    @cached_property
    def mates(self) -> tuple[tuple[int, ...] | None, ...]:
        """Each factor's mate tuple, or None when it is no perfect matching.
        Built once, on first use, and shared by verification and
        invariance; invariance looks translated mate tuples up among them."""
        order = self.model.group.order
        return tuple(_mate_tuple(factor, order) for factor in self.factors)


def _mate_tuple(edges, order: int) -> tuple[int, ...] | None:
    """mate[u] = v and mate[v] = u for the (u, v) vertex-index pairs of
    edges, in range, as a tuple; None when they are no perfect matching:
    order / 2 edges that leave no vertex unmatched cover each once."""
    if 2 * len(edges) != order:
        return None
    mate = [-1] * order
    for u, v in edges:
        mate[u] = v
        mate[v] = u
    return None if -1 in mate else tuple(mate)


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
    h_coset = model.H.coset_of
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
            if not h_coset[d]:
                illegal.append((i, u, v, d))
            else:
                counts[d] += 1
                if not short:
                    counts[negs[d]] += 1
            if short and coset[d]:
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
    for d in model.omega:
        if not counts[d]:
            c1.fail(f"difference {el[d]} not covered")
    return VerificationReport(c1.ok and c2.ok and c3.ok, c1, c2, c3)


def develop_factorization(starter: Starter) -> OneFactorization:
    """Translate each set by its companion, then by coset representatives,
    deduplicate factors as edge sets, and order them lexicographically."""
    report = verify_starter(starter)
    if not report.passed:
        raise InvalidStarterError(report)
    model = starter.model
    group = model.group
    rows = cache(group.translation)  # freed when develop returns
    negs = group.negs
    seen: dict[tuple[int, ...], None] = {}
    for sset in starter.sets:
        # The base factor: each edge moved by every companion member, as a
        # mate list; a valid starter's set covers every vertex this way.
        mate = [0] * group.order
        for u, v in sset.edges:
            at_u, at_v = rows(u), rows(v)  # u + h is rows(u)[h]
            for h in sset.subgroup.elements:
                mate[at_u[h]] = at_v[h]
                mate[at_v[h]] = at_u[h]
        # Translating by one representative per coset of the companion
        # already reaches every distinct translate of the base factor.
        for r in sset.subgroup.coset_reps:
            moved = itemgetter(*mate)(rows(r))  # x -> mate[x] + r
            seen.setdefault(itemgetter(*rows(negs[r]))(moved), None)  # y -> mate[y - r] + r
    # Mate lists first differ at a vertex below its mate in both, so they
    # sort as their pair tuples do.
    return OneFactorization._from_mates(model, tuple(sorted(seen)))


def verify_factorization(fact: OneFactorization) -> VerificationReport:
    """Check factors are perfect matchings of legal edges of fact.model,
    that they partition its edge set, and that there are exactly mn - n of
    them.  When every factor is a perfect matching, one pass over each
    vertex's mates decides the first two; the factors are read edge by
    edge, with every fault reported in factor order, only when it finds a
    fault or some factor is no perfect matching."""
    model = fact.model
    c1 = ConditionVerdict("factors are perfect matchings of legal edges")
    c2 = ConditionVerdict("factors partition the edge set")
    c3 = ConditionVerdict("factor count equals mn - n")
    group = model.group
    order = group.order
    el = group.elements()
    coset = model.H.coset_of
    parts: list[list[int]] = [[] for _ in range(model.m)]
    for v, c in enumerate(coset):
        parts[c].append(v)
    mates = fact.mates
    # Two perfect matchings share an edge exactly when some vertex has the
    # same mate in both, and an edge lies inside a part exactly when a
    # vertex's mate lies in its part.
    faulty = None in mates or any(
        len(seen := set(col)) < len(col) or not seen.isdisjoint(parts[coset[u]])
        for u, col in enumerate(zip(*mates))
    )
    dups = {}
    if faulty:
        for fi, (factor, mate) in enumerate(zip(fact.factors, mates)):
            for u, v in factor:
                if coset[u] == coset[v]:
                    d = el[group.difference(u, v)]
                    c1.fail(f"factor {fi}: illegal edge {el[u]}~{el[v]} (difference {d} in H)")
            # Only a factor that is no perfect matching is counted vertex by vertex.
            if mate is None:
                covered = Counter(chain.from_iterable(factor))
                bad = [el[v] for v in range(order) if covered[v] != 1]
                if bad:
                    more = "..." if len(bad) > 4 else ""
                    c1.fail(f"factor {fi}: vertices covered != once: {bad[:4]}{more}")
        dups = {e: c for e, c in Counter(chain.from_iterable(fact.factors)).items() if c > 1}
    if dups:
        some = [(el[u], el[v]) for u, v in sorted(dups)[:4]]
        c2.fail(f"{len(dups)} edges appear in more than one factor, e.g. {some}")
    # With no fault found, every factor is a perfect matching of order / 2 edges.
    total = len(mates) * order // 2
    if c1.ok and not dups and total != model.edge_count:
        c2.fail(f"{total} distinct edges used, expected {model.edge_count}")
    expected = model.group.order - model.n
    if len(mates) != expected:
        c3.fail(f"{len(mates)} factors, expected {expected}")
    return VerificationReport(c1.ok and c2.ok and c3.ok, c1, c2, c3)


def check_invariance(fact: OneFactorization) -> bool:
    """True when translating any factor by any element of fact.model.group
    lands on a factor.  Only the rows of AbelianGroup.generators are built
    and tried: every translation is a composite of theirs.  When every
    factor is a perfect matching, each mate tuple m is moved by each row to
    row.m.row^-1 (the inverse row is the translation by -g) and looked up
    in the set of mate tuples; moving is injective, so the translates all
    lie in that set exactly when they are that set.  Otherwise the factors
    are compared as sorted pair tuples."""
    group = fact.model.group
    gens = group.generators
    rows = [group.translation(g) for g in gens]
    mates = fact.mates
    if None not in mates:
        factors = set(mates)
        backs = [itemgetter(*group.translation(group.negs[g])) for g in gens]  # row^-1
        for m in mates:
            move = itemgetter(*m)  # move(row) is row.m
            for row, back in zip(rows, backs):
                if back(move(row)) not in factors:
                    return False
        return True
    keys = set(fact.factors)
    for row in rows:
        for factor in fact.factors:
            moved = ((row[u], row[v]) for u, v in factor)
            if tuple(sorted([(a, b) if a < b else (b, a) for a, b in moved])) not in keys:
                return False
    return True
