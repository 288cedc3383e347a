"""Test-only oracles, written apart from the package's algorithms.

The search, the develop step, the invariance check and the starter
verifier are cross-checked against these: a brute-force count of
one-factorizations with no starter theory, the model's edges as one tuple,
invariance under every translation rather than the standard generators
alone, a reference verifier that checks each starter condition in a pass
of its own, and a reference search walk that applies every child and
runs every bound at every node.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass

from starfact.cayley import CayleyModel, build_model
from starfact.groups import enumerate_abelian_groups
from starfact.starters import ConditionVerdict, OneFactorization, Starter, VerificationReport

_BRUTE_FORCE_CAP = 12


# The orders up to 24 that have a model: those with a proper nontrivial H.
COMPOSITE_ORDERS = [n for n in range(4, 25) if any(n % k == 0 for k in range(2, n))]


@functools.cache
def models_of_order(order: int) -> list[CayleyModel]:
    """A model for every (G, H) with |G| = order and 2 <= |H| < order."""
    return [
        build_model(H)
        for group in enumerate_abelian_groups(order)
        for H in group.subgroups
        if 2 <= H.order < order
    ]


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


def reference_walk(model: CayleyModel, mode: str = "first", budget: int | None = None):
    """The starter search as a plain per-node walk: (status, nodes_explored,
    witnesses), each witness a list of (companion elements, sorted edges)
    per set.

    It branches as search_starter does, on the least uncovered difference w:
    first every placement of w in each open set, then a fresh set of each
    companion (largest order first) whose index is at most the number of
    uncovered differences, taking only the edge at the identity unless
    mode is all.  Every child is applied and counted.  Every child then
    recounts its open slots and is cut when they exceed the uncovered
    differences, and every open set with an odd number of slots left needs
    an uncovered involution in its companion.  The budget counts nodes in
    depth-first order, the root included."""
    group = model.group
    omega = sorted(model.omega)
    companions = sorted(group.subgroups, key=lambda s: (-s.order, s.sorted_elements))
    collect = mode == "all"
    nodes = 1
    hits: list = []
    if budget == 0:
        return "budget_exceeded", 0, hits

    def placements(comp, w, hit):
        """(cosets hit after, edge) for each edge of difference w, by
        ascending x, whose endpoints' cosets miss hit."""
        coset = companions[comp].coset_of
        short = w in group.involutions
        out = []
        for x, y in enumerate(group.translation(w)):
            if short and y < x:
                continue
            marks = {coset[x], coset[y]}
            if not marks & hit:
                out.append((hit | marks, (min(x, y), max(x, y))))
        return out

    def children(sets, free):
        w = free[0]
        short = w in group.involutions
        need = 1 if short else 2
        for i, (comp, left, hit, edges) in enumerate(sets):
            if left >= need and (w in companions[comp].elements) == short:
                for after, edge in placements(comp, w, hit):
                    yield sets[:i] + [(comp, left - need, after, edges + [edge])] + sets[i + 1:]
        for comp, sub in enumerate(companions):
            if sub.index <= len(free) and (w in sub.elements) == short:
                fresh = placements(comp, w, frozenset())
                for after, edge in fresh if collect else fresh[:1]:
                    yield sets + [(comp, sub.index - need, after, [edge])]

    def expand(sets, free) -> bool:
        """Walk the children of a node; True stops the walk."""
        nonlocal nodes
        for child in children(sets, free):
            nodes += 1
            if budget is not None and nodes > budget:
                return True
            covered = set()
            for _, _, _, edges in child:
                for u, v in edges:
                    covered.update((group.difference(u, v), group.difference(v, u)))
            rest = [d for d in omega if d not in covered]
            if sum(left for _, left, _, _ in child) > len(rest):
                continue
            if not rest:
                hits.append([(companions[c].sorted_elements, sorted(e)) for c, _, _, e in child])
                if not collect:
                    return True
                continue
            spare = [d for d in rest if d in group.involutions]
            if any(
                left % 2 and not any(d in companions[c].elements for d in spare)
                for c, left, _, _ in child
            ):
                continue
            if expand(child, rest):
                return True
        return False

    if expand([], omega) and budget is not None and nodes > budget:
        return "budget_exceeded", budget, hits
    return ("found" if hits else "none_exists"), nodes, hits
