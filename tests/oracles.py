"""Test-only oracles, written apart from the package's algorithms.

The search, the develop step, the invariance check and the starter
verifier are cross-checked against these: a brute-force count of
one-factorizations with no starter theory, the model's edges as one tuple,
invariance under every translation rather than the standard generators
alone, and a reference verifier that checks each starter condition in a
pass of its own.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from starfact.cayley import CayleyModel
from starfact.starters import ConditionVerdict, OneFactorization, Starter, VerificationReport

_BRUTE_FORCE_CAP = 12


def all_edges(model: CayleyModel) -> tuple[tuple[int, int], ...]:
    """Every edge as a (u, v) pair, ascending (neighbours_above)."""
    return tuple((u, v) for u, above in model.neighbours_above() for v in above)


def edge_difference(model: CayleyModel, e: tuple[int, int]) -> frozenset[int]:
    """{u-v, v-u} for a long edge (u, v), the single involution for a short
    one."""
    u, v = e
    d = model.group.difference(u, v)
    if d in model.H.elements:
        el = model.group.elements()
        raise ValueError(f"illegal edge {el[u]} ~ {el[v]}: difference {el[d]} lies in H")
    return frozenset({d, model.group.negs[d]})


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
                counts.update(edge_difference(model, e))
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


def reference_verify_starter(starter: Starter) -> VerificationReport:
    """The three starter conditions, each checked in a pass of its own."""
    c1 = check_difference_cover(starter.model, starter.sets)
    c2 = check_coset_transversals(starter.model, starter.sets)
    c3 = check_short_edge_membership(starter.model, starter.sets)
    return VerificationReport(c1.ok and c2.ok and c3.ok, c1, c2, c3)


def every_translation_invariant(fact: OneFactorization) -> bool:
    """True when translating any factor by every group element but the
    identity lands on a factor."""
    model = fact.model
    factors = set(fact.factors)
    for g in range(1, model.group.order):
        row = model.group.translation(g)
        for factor in fact.factors:
            if tuple(sorted(model.pair(row[u], row[v]) for u, v in factor)) not in factors:
                return False
    return True


@dataclass(frozen=True)
class BruteForceResult:
    count: int
    witnesses: tuple[OneFactorization, ...]
    exhausted: bool


def brute_force_factorizations(
    model: CayleyModel,
    require_invariance: bool = False,
    stop_after: int | None = None,
    max_witnesses: int = 1,
) -> BruteForceResult:
    """Count one-factorizations of the model graph directly, with no starter
    theory involved.

    With require_invariance, only factorizations closed under every vertex
    translation are counted; such a factorization is a disjoint union of
    translation orbits of matchings, so the enumeration picks the matching
    through the least free edge and accepts it only when its orbit tiles
    without overlap.  The edge pool stays translation-invariant throughout,
    which keeps that check sufficient.  Without it the walk is the same
    with no translations, so each orbit is the matching alone.
    Intentionally simple and only usable for tiny groups; the exact counts
    cross-check the starter search.
    """
    group = model.group
    if group.order > _BRUTE_FORCE_CAP:
        raise ValueError(f"brute force is capped at group order {_BRUTE_FORCE_CAP}")
    edges = all_edges(model)
    ne = len(edges)
    nv = group.order
    eid = {e: i for i, e in enumerate(edges)}
    vbit = [(1 << u) | (1 << v) for u, v in edges]
    by_vertex: list[list[int]] = [[] for _ in range(nv)]
    for i, (u, v) in enumerate(edges):
        by_vertex[u].append(i)
        by_vertex[v].append(i)
    shifts = []  # edge-index rows of the nonzero translations, when required
    if require_invariance:
        for g in range(1, nv):
            row = group.translation(g)
            shifts.append([eid[model.pair(row[u], row[v])] for u, v in edges])
    full_v = (1 << nv) - 1
    count = 0
    witnesses: list[tuple[tuple[int, ...], ...]] = []
    exhausted = True
    stack: list[tuple[int, ...]] = []  # the factors so far, as edge-index tuples

    def rec(avail: int, covered: int, chosen: list[int]) -> bool:
        """Grow the matching chosen, which covers the vertices in covered,
        by each edge of avail at the least uncovered vertex.  A perfect
        matching joins stack with its orbit under shifts, if the orbit tiles
        without overlap, and the next factor starts at the least edge left
        in avail.  True means stop the search."""
        nonlocal count, exhausted
        if covered == full_v:
            mask = sum(1 << i for i in chosen)
            orbit_mask = mask
            orbit = {tuple(sorted(chosen))}
            for row in shifts:
                shifted = sorted(row[i] for i in chosen)
                smask = sum(1 << i for i in shifted)
                if smask != mask and smask & mask:
                    return False
                orbit_mask |= smask
                orbit.add(tuple(shifted))
            pos = len(stack)
            stack.extend(sorted(orbit))
            stop = rec(avail & ~orbit_mask, 0, [])
            del stack[pos:]
            return stop
        if not covered:
            if not avail:  # every edge lies in a factor
                count += 1
                if len(witnesses) < max_witnesses:
                    witnesses.append(tuple(stack))
                exhausted = stop_after is None or count < stop_after
                return not exhausted
            e0 = (avail & -avail).bit_length() - 1
            return rec(avail, vbit[e0], [e0])
        v = ((covered + 1) & ~covered).bit_length() - 1  # least uncovered vertex
        for i in by_vertex[v]:
            if avail >> i & 1 and not vbit[i] & covered:
                chosen.append(i)
                if rec(avail, covered | vbit[i], chosen):
                    return True
                chosen.pop()
        return False

    rec((1 << ne) - 1, 0, [])

    built = []
    for factor_ids in witnesses:
        factors = tuple(sorted(tuple(sorted(edges[i] for i in m)) for m in factor_ids))
        built.append(OneFactorization(model, factors))
    return BruteForceResult(count, tuple(built), exhausted)
