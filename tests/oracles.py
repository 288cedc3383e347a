"""Test-only oracles, written apart from the package's algorithms.

The search, the develop step and the invariance check are cross-checked
against these: a brute-force count of one-factorizations with no starter
theory, the model's edges as one tuple, and invariance under every
translation rather than the standard generators alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from starfact.cayley import CayleyModel
from starfact.starters import OneFactorization

_BRUTE_FORCE_CAP = 12


def all_edges(model: CayleyModel) -> tuple[tuple[int, int], ...]:
    """Every edge as a (u, v) pair, ascending (neighbours_above)."""
    return tuple((u, v) for u, above in model.neighbours_above() for v in above)


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
