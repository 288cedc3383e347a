"""Exhaustive starter search, nonexistence certification, and a brute-force
factorization oracle.

In modes "first" and "exhaust" the search enumerates starters up to per-set
translation.  Translating one set by any group element preserves all three
starter conditions and the developed factorization, so each set may be
normalized to contain the edge [identity, w] where w is the first difference
the set covers.  The search branches on the least uncovered difference:
either an existing open set absorbs an edge realizing it (all placements
tried), or a new set opens with the anchored edge.  This visits a witness
for every starter that exists.  Mode "all" drops the normalization and
enumerates every starter literally, each exactly once.

The walk applies each move to one mutable state and undoes it after the
subtree below, and it keeps its levels on an explicit stack, so search depth
has no recursion limit.  Each move reads its placements from a table keyed
by (companion, difference, hit-coset mask) that holds only the placements
that fit, filled on first use, so a node builds and rejects none.  The
total of open slots travels with each move as one integer, so no node sums
it over the open sets.

Every search runs in one process as one walk from the root.  Budgets count
search-tree nodes in depth-first order, the root included, and a search
stops as soon as its outcome is decided.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cayley import CayleyModel, build_model
from .groups import Subgroup, enumerate_abelian_groups, subgroups_of_order
from .serialize import generators_payload, starter_payload
from .starters import OneFactorization, Starter, StarterSet, verify_starter

__all__ = [
    "SearchOutcome",
    "CertificationResult",
    "BruteForceResult",
    "search_starter",
    "certify_nonexistence",
    "brute_force_factorizations",
]

FOUND = "found"
NONE_EXISTS = "none_exists"
BUDGET_EXCEEDED = "budget_exceeded"

_MODES = ("first", "exhaust", "all")
_BRUTE_FORCE_CAP = 12


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # found | none_exists | budget_exceeded
    witness: Starter | None
    nodes_explored: int
    subgroups_tried: tuple[Subgroup, ...]
    witnesses: tuple[Starter, ...] = ()

    def payload(self) -> dict:
        out = {
            "status": self.status,
            "nodes_explored": self.nodes_explored,
            "subgroups_tried": [generators_payload(sub) for sub in self.subgroups_tried],
        }
        if self.witness is not None:
            out["witness"] = starter_payload(self.witness)
        if self.witnesses:
            out["witness_count"] = len(self.witnesses)
            out["witnesses"] = [starter_payload(w) for w in self.witnesses]
        return out


class _Ctx:
    """Search tables for one (group, H) model, on vertex indices.  The group
    supplies negation, involutions, translation rows, the lattice of
    companions and their cached coset indices.

    fits maps (companion, w, hit) to the placements of difference w that a
    set of that companion whose endpoints already hit the cosets in hit can
    take, as (hit | mark, edge) pairs in _placements order.  It starts empty
    and fills as the walk asks; a fresh set reads the entry with hit 0."""

    def __init__(self, model: CayleyModel):
        self.model = model
        group = model.group
        self.neg = group.negs
        self.invol = group.involutions
        self.omega_ids = sorted(model.omega)
        self.omega_mask = sum(1 << i for i in self.omega_ids)
        # A plain list, since _placements reads one row per call.
        self.rows = [group.translation(w) if c else None for w, c in enumerate(model.H.coset_of)]

        self.companions = sorted(group.subgroups, key=lambda s: (-s.order, s.sorted_elements))
        self.comp_index = [s.index for s in self.companions]
        # A list per companion, since _moves reads it at every node.
        self.comp_member = [[x in s.elements for x in range(group.order)] for s in self.companions]
        self.comp_invol_omega = [
            sum(1 << i for i in self.omega_ids if i in self.invol and member[i])
            for member in self.comp_member
        ]
        self.fits: dict[tuple[int, int, int], tuple] = {}  # filled by _fill


def _placements(ctx: _Ctx, comp: int, w: int):
    """(coset mark, edge) for each edge realizing difference w, by ascending
    x.  An involution's edge {x, x + w} is listed once, from its lesser
    endpoint; any other difference gives one edge per x.  The mark holds the
    cosets of the companion that the endpoints lie in: one coset for a short
    edge (w lies in the companion), two for a long one."""
    coset = ctx.companions[comp].coset_of
    row = ctx.rows[w]
    inv = w in ctx.invol
    for x, y in enumerate(row):
        if x < y:
            yield 1 << coset[x] | 1 << coset[y], (x, y)
        elif not inv:
            yield 1 << coset[x] | 1 << coset[y], (y, x)


def _fill(ctx: _Ctx, key: tuple[int, int, int]) -> tuple:
    """Compute and keep ctx.fits[key]: for key (companion, w, hit), the
    (hit | mark, edge) pairs of the placements whose mark misses hit."""
    comp, w, hit = key
    fits = ctx.fits[key] = tuple(
        (hit | mark, edge) for mark, edge in _placements(ctx, comp, w) if not mark & hit
    )
    return fits


def _moves(ctx: _Ctx, sets: list, covered: int, slots: int, w: int, comps, anchor: bool):
    """Apply each move that covers difference w to sets in place, yield the
    new (cover, open slots), and undo the move before applying the next.

    slots is the total of open slots in sets before the move.  A set takes
    an edge realizing w when its companion contains w exactly if w is an
    involution, and it has need slots left: 1 for a short edge, 2 for a long
    one.  Moves come in a fixed order: every placement in each open set,
    then every placement on a fresh set of each companion in comps whose
    index fits the uncovered differences.  With anchor, a fresh set takes
    only its first placement, the edge at the identity.
    """
    table = ctx.fits
    inv = w in ctx.invol
    need = 1 if inv else 2
    cover = covered | 1 << w | 1 << ctx.neg[w]
    extended = cover, slots - need
    for s in sets:
        comp, left, hit, edges = s
        if left < need or ctx.comp_member[comp][w] != inv:
            continue
        key = comp, w, hit
        fits = table.get(key)
        if fits is None:  # an entry may be (), so test for None
            fits = _fill(ctx, key)
        s[1] = left - need
        for s[2], edge in fits:  # the new hit mask goes in place
            edges.append(edge)
            yield extended
            edges.pop()
        s[1], s[2] = left, hit
    uncovered = (ctx.omega_mask & ~covered).bit_count()
    for comp in comps:
        index = ctx.comp_index[comp]
        if index > uncovered or ctx.comp_member[comp][w] != inv:
            continue
        key = comp, w, 0
        fits = table.get(key)
        if fits is None:
            fits = _fill(ctx, key)
        opened = cover, slots + index - need
        for mark, edge in fits:
            sets.append([comp, index - need, mark, [edge]])
            yield opened
            sets.pop()
            if anchor:
                break


def _witness_starter(ctx: _Ctx, witness_sets) -> Starter:
    """The walk's sets as a verified Starter.  The walk places ascending
    pairs only, so each set needs sorting alone; verify_starter judges the
    edges."""
    out = tuple(StarterSet(tuple(sorted(edges)), ctx.companions[c]) for c, edges in witness_sets)
    starter = Starter(ctx.model, out, provenance={"construction": "search"})
    report = verify_starter(starter)
    if not report.passed:
        raise RuntimeError("search produced an invalid witness:\n" + report.summary())
    return starter


def _root_branches(ctx: _Ctx) -> list[int]:
    # The companions that can open the first set, which a search reports as
    # subgroups_tried.  Anchored root moves open one set per companion that
    # can take the least difference; a fresh set's feasibility does not
    # depend on the placement, so the list serves every mode.
    sets: list = []
    root = _moves(ctx, sets, 0, 0, ctx.omega_ids[0], range(len(ctx.companions)), True)
    return [sets[0][0] for _ in root]


def _walk(ctx: _Ctx, cap: int | None, collect: bool):
    """(nodes, hits, aborted) for the whole tree below the root, walked in
    depth-first order.  nodes counts the nodes walked, or is cap when the
    walk stops because the next node would pass it (aborted).  hits holds
    [(companion, edges)] for each complete starter met; without collect the
    walk stops at the first.

    One state holds the open sets as [companion, slots left, hit-coset
    bitmask, edges]; each level's move generator changes it and restores it,
    and yields the cover and the open-slot total after its move.  The levels
    sit on an explicit stack, so depth costs no Python frames.  The root
    level opens the first set with every companion in turn.
    """
    anchor = not collect
    sets: list[list] = []
    hits: list[list] = []
    nodes = 0
    every_comp = range(len(ctx.companions))
    stack = [_moves(ctx, sets, 0, 0, ctx.omega_ids[0], every_comp, anchor)]
    while stack:
        # A move always covers w, so cover 0 means the level is done.
        covered, slots = next(stack[-1], (0, 0))
        if not covered:
            stack.pop()
            continue
        nodes += 1
        if cap is not None and nodes > cap:
            return cap, hits, True
        free = ctx.omega_mask & ~covered
        if slots > free.bit_count():
            continue
        if not free:
            hits.append([(s[0], list(s[3])) for s in sets])
            if not collect:
                break
            continue
        if any(s[1] % 2 and not ctx.comp_invol_omega[s[0]] & free for s in sets):
            continue
        w = (free & -free).bit_length() - 1
        stack.append(_moves(ctx, sets, covered, slots, w, every_comp, anchor))
    return nodes, hits, False


def search_starter(
    model: CayleyModel,
    mode: str = "first",
    budget: int | None = None,
) -> SearchOutcome:
    """Find a starter for the model, prove none exists, or enumerate all.

    Modes first and exhaust stop at the first witness and share the
    translation-normalized tree; exhaust is the certification alias, since a
    run that returns none_exists has provably emptied the space.  Mode all
    keeps going and reports every starter, with no normalization applied;
    it holds every witness in memory with no cap (Z2 x Z6 with H = <(1, 0)>
    grew past 5.6 GB without a budget), so give it a budget.  budget limits
    the number of search-tree nodes, the root included; when it runs out
    the outcome is budget_exceeded, never a silent none_exists; a negative
    budget raises ValueError before any search.
    The search runs in this process and returns as soon as its outcome is
    decided.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    ctx = _Ctx(model)
    tried = tuple(ctx.companions[c] for c in _root_branches(ctx))
    if budget == 0:
        return SearchOutcome(BUDGET_EXCEEDED, None, 0, tried)
    collect = mode == "all"
    # The root costs one node; the walk counts the nodes below it.
    nodes, hits, aborted = _walk(ctx, None if budget is None else budget - 1, collect)
    found = tuple(_witness_starter(ctx, sets) for sets in hits)
    if aborted:
        status = BUDGET_EXCEEDED
    else:
        status = FOUND if found else NONE_EXISTS
    witness = found[0] if found else None
    return SearchOutcome(status, witness, 1 + nodes, tried, found if collect else ())


# ---------------------------------------------------------------------------
# certification across all abelian groups of order mn
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificationResult:
    m: int
    n: int
    status: str  # certified | witness | budget_exceeded
    pairs: tuple[dict, ...]
    witness: Starter | None

    def payload(self) -> dict:
        out = {
            "m": self.m,
            "n": self.n,
            "status": self.status,
            "pairs": [dict(p) for p in self.pairs],
        }
        if self.witness is not None:
            out["witness"] = starter_payload(self.witness)
        return out


def certify_nonexistence(m: int, n: int, budget: int | None = None) -> CertificationResult:
    """Run the search over every abelian group of order mn and every subgroup
    of order n.  certified means every pair exhausted with no witness; a
    budget_exceeded on any pair downgrades the result, never silently.  A
    negative budget raises ValueError from the first pair's search_starter,
    before it searches."""
    if m < 2 or n < 2:
        raise ValueError("need m >= 2 and n >= 2")
    if (m * n) % 2 == 1:
        raise ValueError(
            "odd m*n leaves an odd number of vertices, so no perfect matching"
            " exists and no search is needed"
        )
    pairs = []
    exceeded = False
    for group in enumerate_abelian_groups(m * n):
        for H in subgroups_of_order(group, n):
            outcome = search_starter(build_model(group, H), mode="exhaust", budget=budget)
            pairs.append(
                {
                    "group": list(group.cyclic_orders),
                    "H_generators": generators_payload(H),
                    "status": outcome.status,
                    "nodes_explored": outcome.nodes_explored,
                }
            )
            if outcome.status == FOUND:
                return CertificationResult(m, n, "witness", tuple(pairs), outcome.witness)
            if outcome.status == BUDGET_EXCEEDED:
                exceeded = True
    status = BUDGET_EXCEEDED if exceeded else "certified"
    return CertificationResult(m, n, status, tuple(pairs), None)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


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
    edges = model.all_edges
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
