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

Budgets count search-tree nodes in depth-first order.  Work splits across
top-level branches (the companion choice of the first set); a merge step
replays the sequential accounting, so status, witnesses, and node counts do
not depend on the worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .cayley import CayleyModel, build_model
from .groups import Subgroup, enumerate_abelian_groups, make_group, subgroups_of_order
from .serialize import starter_payload
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
            "subgroups_tried": [
                [list(g) for g in sub.generators] for sub in self.subgroups_tried
            ],
        }
        if self.witness is not None:
            out["witness"] = starter_payload(self.witness)
        if self.witnesses:
            out["witness_count"] = len(self.witnesses)
            out["witnesses"] = [starter_payload(w) for w in self.witnesses]
        return out


class _BudgetHit(Exception):
    pass


class _Ctx:
    """Search tables for one (group, H) model.

    Elements are their vertex indices, which are their lexicographic ranks.
    Companions come from the group's cached lattice and their coset numbers
    from each subgroup's cached coset index, so the inner loop never touches
    tuples.
    """

    def __init__(self, model: CayleyModel):
        self.model = model
        group = model.group
        self.n = group.order
        elems = group.elements()
        self.elems = elems
        index = group.vertex_index
        self.add = [[index(group.add(a, b)) for b in elems] for a in elems]
        self.neg = [index(group.neg(a)) for a in elems]
        self.omega_ids = sorted(index(d) for d in model.omega)
        self.omega_mask = sum(1 << i for i in self.omega_ids)
        self.invol = [a in group.involutions for a in elems]

        self.companions = sorted(group.subgroups, key=lambda s: (-s.order, s.sorted_elements))
        self.comp_index = [s.index for s in self.companions]
        # A subgroup is the coset of the identity, which is coset 0.
        self.comp_member = [[c == 0 for c in s.coset_of] for s in self.companions]
        self.comp_invol_omega = [
            sum(1 << i for i in self.omega_ids if self.invol[i] and member[i])
            for member in self.comp_member
        ]


@dataclass
class _OpenSet:
    comp: int  # index into ctx.companions
    slots_left: int
    hit: set[int] = field(default_factory=set)  # coset ranks already used
    edges: list[tuple[int, int]] = field(default_factory=list)


class _Searcher:
    """Depth-first walk over one model, optionally restricted to a single
    top-level branch so that branches can run in separate processes."""

    def __init__(self, ctx: _Ctx, cap: int | None, collect: bool, anchor: bool):
        self.ctx = ctx
        self.cap = cap
        self.collect = collect
        self.anchor = anchor
        self.nodes = 0
        self.stop = False
        self.hits: list[tuple[int, list]] = []  # (node count at hit, sets)

    def run_branch(self, branch_comp: int) -> None:
        """Explore the subtree rooted at opening the first set with the given
        companion.  Raises _BudgetHit when the node cap runs out."""
        for move in self._open_moves(branch_comp, self.ctx.omega_ids[0], 0, []):
            self._descend(*move)
            if self.stop:
                return

    # -- move construction ------------------------------------------------

    def _open_feasible(self, comp: int, w: int, covered: int) -> bool:
        ctx = self.ctx
        index = ctx.comp_index[comp]
        uncovered = len(ctx.omega_ids) - bin(covered & ctx.omega_mask).count("1")
        if index > uncovered:
            return False
        if ctx.invol[w]:
            return ctx.comp_member[comp][w]
        return not ctx.comp_member[comp][w] and index >= 2

    def _open_moves(self, comp: int, w: int, covered: int, sets: list[_OpenSet]):
        """State deltas for opening a new set on an edge realizing w.  With
        anchoring only [identity, w] is tried; without it every placement is
        a separate move (fresh sets have no hit cosets, so all are legal)."""
        ctx = self.ctx
        if not self._open_feasible(comp, w, covered):
            return []
        index = ctx.comp_index[comp]
        coset = ctx.companions[comp].coset_of
        out = []
        if ctx.invol[w]:
            new_cover = covered | (1 << w)
            for x in range(ctx.n):
                y = ctx.add[x][w]
                if y < x:
                    continue
                oset = _OpenSet(comp, index - 1, {coset[x]}, [(x, y)])
                out.append((new_cover, sets + [oset]))
                if self.anchor:
                    break
        else:
            new_cover = covered | (1 << w) | (1 << ctx.neg[w])
            for x in range(ctx.n):
                y = ctx.add[x][w]
                e = (x, y) if x < y else (y, x)
                oset = _OpenSet(comp, index - 2, {coset[x], coset[y]}, [e])
                out.append((new_cover, sets + [oset]))
                if self.anchor:
                    break
        return out

    def _extend_moves(self, w: int, covered: int, sets: list[_OpenSet]):
        """All ways an already-open set can absorb an edge realizing w."""
        ctx = self.ctx
        out = []
        is_inv = ctx.invol[w]
        for si, oset in enumerate(sets):
            member = ctx.comp_member[oset.comp]
            coset = ctx.companions[oset.comp].coset_of
            if is_inv:
                if oset.slots_left < 1 or not member[w]:
                    continue
                new_cover = covered | (1 << w)
                for x in range(ctx.n):
                    y = ctx.add[x][w]
                    if y < x:
                        continue
                    c = coset[x]
                    if c in oset.hit:
                        continue
                    out.append(self._with_edge(sets, si, (x, y), {c}, new_cover, 1))
            else:
                if oset.slots_left < 2 or member[w]:
                    continue
                new_cover = covered | (1 << w) | (1 << ctx.neg[w])
                for x in range(ctx.n):
                    y = ctx.add[x][w]
                    cx, cy = coset[x], coset[y]
                    if cx in oset.hit or cy in oset.hit:
                        continue
                    e = (x, y) if x < y else (y, x)
                    out.append(self._with_edge(sets, si, e, {cx, cy}, new_cover, 2))
        return out

    @staticmethod
    def _with_edge(sets, si, edge, new_cosets, new_cover, used):
        oset = sets[si]
        replacement = _OpenSet(
            oset.comp,
            oset.slots_left - used,
            oset.hit | new_cosets,
            oset.edges + [edge],
        )
        return new_cover, sets[:si] + [replacement] + sets[si + 1 :]

    # -- the walk ----------------------------------------------------------

    def _descend(self, covered: int, sets: list[_OpenSet]) -> None:
        ctx = self.ctx
        self.nodes += 1
        if self.cap is not None and self.nodes > self.cap:
            self.nodes = self.cap
            raise _BudgetHit
        w = -1
        for i in ctx.omega_ids:
            if not covered & (1 << i):
                w = i
                break
        if w < 0:
            if any(s.slots_left for s in sets):
                return
            self.hits.append((self.nodes, [(s.comp, list(s.edges)) for s in sets]))
            if not self.collect:
                self.stop = True
            return
        uncovered = len(ctx.omega_ids) - bin(covered & ctx.omega_mask).count("1")
        if sum(s.slots_left for s in sets) > uncovered:
            return
        free = ~covered
        for s in sets:
            if s.slots_left % 2 and not ctx.comp_invol_omega[s.comp] & free:
                return
        for move in self._extend_moves(w, covered, sets):
            self._descend(*move)
            if self.stop:
                return
        for comp in range(len(ctx.companions)):
            for move in self._open_moves(comp, w, covered, sets):
                self._descend(*move)
                if self.stop:
                    return


def _witness_starter(ctx: _Ctx, witness_sets) -> Starter:
    model = ctx.model
    out = []
    for comp, edges in witness_sets:
        built = tuple(
            sorted(model.edge(ctx.elems[u], ctx.elems[v]) for u, v in edges)
        )
        out.append(StarterSet(built, ctx.companions[comp]))
    starter = Starter(model, tuple(out), provenance={"construction": "search"})
    report = verify_starter(starter)
    if not report.passed:
        raise RuntimeError("search produced an invalid witness:\n" + report.summary())
    return starter


def _root_branches(ctx: _Ctx) -> list[int]:
    # A fresh set has no hit cosets, so feasibility does not depend on the
    # placement; the anchored probe decides for every mode.
    probe = _Searcher(ctx, cap=None, collect=False, anchor=True)
    w0 = ctx.omega_ids[0]
    return [
        comp
        for comp in range(len(ctx.companions))
        if probe._open_feasible(comp, w0, 0)
    ]


def _run_branch(ctx: _Ctx, comp: int, cap: int | None, mode: str):
    """(nodes, hits, aborted) for one top-level branch."""
    searcher = _Searcher(ctx, cap, collect=(mode == "all"), anchor=(mode != "all"))
    aborted = False
    try:
        searcher.run_branch(comp)
    except _BudgetHit:
        aborted = True
    return searcher.nodes, searcher.hits, aborted


def _branch_task(args):
    """_run_branch in a worker process; hits come back as raw index data."""
    orders, h_gens, comp, cap, mode = args
    group = make_group(orders)
    ctx = _Ctx(build_model(group, group.subgroup(h_gens)))
    return _run_branch(ctx, comp, cap, mode)


def search_starter(
    model: CayleyModel,
    mode: str = "first",
    budget: int | None = None,
    workers: int = 1,
) -> SearchOutcome:
    """Find a starter for the model, prove none exists, or enumerate all.

    Modes first and exhaust stop at the first witness and share the
    translation-normalized tree; exhaust is the certification alias, since a
    run that returns none_exists has provably emptied the space.  Mode all
    keeps going and reports every starter, with no normalization applied.
    budget limits the number of search-tree nodes; when it runs out the
    outcome is budget_exceeded, never a silent none_exists.  workers > 1
    fans top-level branches out to processes; results are identical to the
    single-process run.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    ctx = _Ctx(model)
    branches = _root_branches(ctx)
    tried = tuple(ctx.companions[c] for c in branches)
    if budget is not None and budget < 1:
        return SearchOutcome(BUDGET_EXCEEDED, None, 0, tried)
    cap = None if budget is None else budget - 1
    # Replay sequential accounting: the root costs one node, then branches
    # run in order against the remaining allowance.
    total = 1
    remaining = cap

    if workers <= 1 or len(branches) <= 1:
        # Lazy, so the replay stops running branches once the outcome is
        # decided; each branch is capped by the allowance left when it starts.
        results = (_run_branch(ctx, comp, remaining, mode) for comp in branches)
    else:
        orders = list(model.group.cyclic_orders)
        h_gens = [list(g) for g in model.H.generators]
        tasks = [(orders, h_gens, comp, cap, mode) for comp in branches]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_branch_task, tasks))

    collected: list[Starter] = []
    for nodes, hits, aborted in results:
        usable = [h for h in hits if remaining is None or h[0] <= remaining]
        if mode != "all" and usable:
            at, sets = usable[0]
            return SearchOutcome(FOUND, _witness_starter(ctx, sets), total + at, tried)
        for _, sets in usable:
            collected.append(_witness_starter(ctx, sets))
        if remaining is not None and (aborted or nodes > remaining):
            return SearchOutcome(
                BUDGET_EXCEEDED,
                collected[0] if collected else None,
                total + remaining,
                tried,
                tuple(collected),
            )
        total += nodes
        if remaining is not None:
            remaining -= nodes
    if collected:
        return SearchOutcome(FOUND, collected[0], total, tried, tuple(collected))
    return SearchOutcome(NONE_EXISTS, None, total, tried)


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


def certify_nonexistence(
    m: int, n: int, budget: int | None = None, workers: int = 1
) -> CertificationResult:
    """Run the search over every abelian group of order mn and every subgroup
    of order n.  certified means every pair exhausted with no witness; a
    budget_exceeded on any pair downgrades the result, never silently."""
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
            outcome = search_starter(
                build_model(group, H), mode="exhaust", budget=budget, workers=workers
            )
            pairs.append(
                {
                    "group": list(group.cyclic_orders),
                    "H_generators": [list(g) for g in H.generators],
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
    which keeps that check sufficient.  Intentionally simple and only usable
    for tiny groups; the exact counts cross-check the starter search.
    """
    group = model.group
    if group.order > _BRUTE_FORCE_CAP:
        raise ValueError(f"brute force is capped at group order {_BRUTE_FORCE_CAP}")
    edges = model.all_edges
    ne = len(edges)
    nv = group.order
    eid = {e: i for i, e in enumerate(edges)}
    vbit = [
        (1 << group.vertex_index(e.u)) | (1 << group.vertex_index(e.v)) for e in edges
    ]
    by_vertex: list[list[int]] = [[] for _ in range(nv)]
    for i, e in enumerate(edges):
        by_vertex[group.vertex_index(e.u)].append(i)
        by_vertex[group.vertex_index(e.v)].append(i)
    trans = [
        [eid[model.translate_edge(e, g)] for e in edges] for g in group.elements()
    ]
    full_v = (1 << nv) - 1

    def matchings(avail: int, covered: int, chosen: list[int]):
        """Perfect matchings inside avail extending chosen (which covers
        covered); yields edge-index lists."""
        if covered == full_v:
            yield list(chosen)
            return
        v = ((covered + 1) & ~covered).bit_length() - 1  # least uncovered vertex
        for i in by_vertex[v]:
            if not avail >> i & 1:
                continue
            if vbit[i] & covered:
                continue
            chosen.append(i)
            yield from matchings(avail, covered | vbit[i], chosen)
            chosen.pop()

    count = 0
    witnesses: list[tuple[tuple[int, ...], ...]] = []
    exhausted = True

    def emit(stack: list[tuple[int, ...]]) -> bool:
        """Record a completed factorization; True means stop the search."""
        nonlocal count, exhausted
        count += 1
        if len(witnesses) < max_witnesses:
            witnesses.append(tuple(stack))
        if stop_after is not None and count >= stop_after:
            exhausted = False
            return True
        return False

    def rec_plain(avail: int, stack: list[tuple[int, ...]]) -> bool:
        if avail == 0:
            return emit(stack)
        e0 = (avail & -avail).bit_length() - 1
        for m in matchings(avail & ~(1 << e0), vbit[e0], [e0]):
            mask = 0
            for i in m:
                mask |= 1 << i
            stack.append(tuple(sorted(m)))
            if rec_plain(avail & ~mask, stack):
                return True
            stack.pop()
        return False

    def rec_invariant(avail: int, stack: list[tuple[int, ...]]) -> bool:
        if avail == 0:
            return emit(stack)
        e0 = (avail & -avail).bit_length() - 1
        for m in matchings(avail & ~(1 << e0), vbit[e0], [e0]):
            mmask = 0
            for i in m:
                mmask |= 1 << i
            orbit_mask = mmask
            orbit = {tuple(sorted(m))}
            ok = True
            for g in range(1, nv):
                row = trans[g]
                shifted = sorted(row[i] for i in m)
                smask = 0
                for i in shifted:
                    smask |= 1 << i
                if smask != mmask and smask & mmask:
                    ok = False
                    break
                orbit_mask |= smask
                orbit.add(tuple(shifted))
            if not ok:
                continue
            pos = len(stack)
            stack.extend(sorted(orbit))
            if rec_invariant(avail & ~orbit_mask, stack):
                return True
            del stack[pos:]
        return False

    rec = rec_invariant if require_invariance else rec_plain
    rec((1 << ne) - 1, [])

    built = []
    for stack in witnesses:
        factors = tuple(sorted(tuple(sorted(edges[i] for i in m)) for m in stack))
        built.append(OneFactorization(model, factors))
    return BruteForceResult(count, tuple(built), exhausted)
