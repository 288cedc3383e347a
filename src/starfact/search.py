"""Exhaustive starter search and nonexistence certification.

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

Two bounds cut the tree.  The slot-sum bound cuts a node whose open sets
have more slots left than there are uncovered differences.  A move that
extends an open set never fails it, and a fresh set fails it exactly when
its index is too large; companions come in ascending index, so the
children that fail are the last ones of their level.  Each level counts
them without applying them: one per companion when the fresh set is
anchored, else one per edge realizing the difference, since a fresh set's
placement entry (hit mask 0) is never empty.  The odd-slot bound cuts a
node with an open set whose slots left are odd and whose companion has no
uncovered involution; it is checked only where a move can change it.

The subtree below a node depends only on its state: the cover, which also
fixes the next difference and the open-slot total, and the (companion,
slots left, hit-coset mask) of each open set with slots left.  The edges
and the order of the sets change only the order of the walk.  So the walk
keeps a table, of at most _MAX_STATES entries, from state to the number of
nodes below a level that ended with no starter met below it; a node whose
state is in the table adds that number instead of walking its subtree again.

Every search runs in one process as one walk from the root.  Budgets count
search-tree nodes in depth-first order, the root included; the children
cut by the slot-sum bound and the nodes credited from the table still
count, one node each.  A search stops as soon as its outcome is decided.

The brute-force oracle that cross-checks the search on small models lives
with the tests, in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import not_

from .cayley import CayleyModel, build_model
from .groups import Subgroup, enumerate_abelian_groups, subgroups_of_order
from .serialize import generators_payload, starter_payload
from .starters import Starter, StarterSet, verify_starter

__all__ = [
    "SearchOutcome",
    "CertificationResult",
    "search_starter",
    "certify_nonexistence",
]

FOUND = "found"
NONE_EXISTS = "none_exists"
BUDGET_EXCEEDED = "budget_exceeded"
CERTIFIED = "certified"
WITNESS = "witness"

_MODES = ("first", "exhaust", "all")

# The walk's state table is only a cache, so it stops growing here.
_MAX_STATES = 1 << 17


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
    companions and their coset indices.

    fits maps (companion, w, hit) to the placements of difference w that a
    set of that companion whose endpoints already hit the cosets in hit can
    take, as (hit | mark, edge) pairs in _fill's order.  It starts empty
    and fills as the walk asks; a fresh set reads the entry with hit 0."""

    def __init__(self, model: CayleyModel):
        self.model = model
        group = model.group
        self.neg = group.negs
        self.invol = group.involutions
        self.omega_mask = sum(1 << i for i in model.omega)

        self.companions = sorted(group.subgroups, key=lambda s: (-s.order, s.elements))
        self.comp_index = [s.index for s in self.companions]
        # A list per companion, since _moves reads it at every node.
        self.comp_member = [list(map(not_, s.coset_of)) for s in self.companions]
        self.comp_invol = [sum(1 << i for i in self.invol if member[i]) for member in self.comp_member]
        self.fits: dict[tuple[int, int, int], tuple] = {}  # filled by _fill


def _fill(ctx: _Ctx, key: tuple[int, int, int]) -> tuple:
    """Compute and keep ctx.fits[key]: for key (companion, w, hit), the
    (hit | mark, edge) pairs of the edges realizing difference w whose mark
    misses hit, by ascending x.  An involution's edge {x, x + w} is listed
    once, from its lesser endpoint; any other difference gives one edge per
    x.  The mark holds the cosets of the companion that the endpoints lie
    in: one coset for a short edge (w lies in the companion), two for a
    long one."""
    comp, w, hit = key
    coset = ctx.companions[comp].coset_of
    inv = w in ctx.invol
    fits = []
    for x, y in enumerate(ctx.model.group.translation(w)):
        if x < y or not inv:
            mark = 1 << coset[x] | 1 << coset[y]
            if not mark & hit:
                fits.append((hit | mark, (x, y) if x < y else (y, x)))
    fits = ctx.fits[key] = tuple(fits)
    return fits


def _moves(ctx: _Ctx, sets: list, covered: int, slots: int, w: int, anchor: bool):
    """Apply each move that covers difference w to sets in place, yield the
    new (cover, open slots), and undo the move before applying the next.
    The last yield is (0, cut): the number of children that fail the
    slot-sum bound, counted without being applied.

    slots is the total of open slots in sets before the move; the caller's
    node passed the slot-sum bound, so it is at most the number of
    uncovered differences.  A set takes an edge realizing w when its
    companion contains w exactly if w is an involution, and it has need
    slots left: 1 for a short edge, 2 for a long one.  Moves come in a fixed
    order: every placement in each open set, then every placement on a
    fresh set of each companion, by ascending index, whose index fits the
    uncovered differences.  With anchor, a fresh set takes only its first
    placement, the edge at the identity.

    An extending move never fails the slot-sum bound, since the open slots
    and the uncovered count both fall by need.  A fresh set of index k
    fails it exactly when k > uncovered - slots, so the children that fail
    are the level's last ones.  Each such companion counts one child with
    anchor, and otherwise one per entry of its hit-0 placements: every edge
    realizing w, |G| of them, or |G|/2 for an involution.  That entry is
    never empty, since w lies in Omega and not in H.
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
    room = uncovered - slots  # a fresh set of larger index fails the bound
    cut = 0
    for comp, index in enumerate(ctx.comp_index):
        if index > uncovered:
            break
        if ctx.comp_member[comp][w] != inv:
            continue
        if index > room:
            cut += 1
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
    if cut and not anchor:
        order = ctx.model.group.order
        cut *= order // 2 if inv else order
    yield 0, cut


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

    No child that a generator applies fails the slot-sum bound.  The
    children that do are the level's last ones, and its final yield counts
    them, so the walk adds them when it pops the level, and a budget stops
    at the same node as if each were walked.  Each level keeps whether w is
    an involution and how many sets were open before its move, for the
    odd-slot bound: an open set with an odd number of slots left needs an
    uncovered involution in its companion.  A move on an involution can
    change that for any set, so every set is checked; any other move
    changes no parity and covers no involution, so only a set it opened
    needs checking.

    Each level also keeps its node's state key, the node count and the
    number of hits when it was pushed.  When it pops with no new hit, sizes
    maps the key to the nodes counted since, unless it is full; a later
    node with that key adds them instead of pushing a level.  The sum
    passes cap exactly when a node-by-node walk of the same hit-free subtree
    would, so a budget stops with the same count; a walk that stops stores
    nothing for its open levels.
    """
    anchor = not collect
    invol = ctx.invol
    comp_invol = ctx.comp_invol
    sets: list[list] = []
    hits: list[list] = []
    sizes: dict = {}  # state key -> nodes below a hit-free node of that state
    nodes = 0
    w = ctx.model.omega[0]
    stack = [(_moves(ctx, sets, 0, 0, w, anchor), w in invol, 0, None, 0, 0)]
    while stack:
        level, inv, before, key, start, found = stack[-1]
        covered, slots = next(level)
        if not covered:  # a move always covers w; slots counts the cut children
            stack.pop()
            nodes += slots
            if cap is not None and nodes > cap:
                return cap, hits, True
            if len(hits) == found and len(sizes) < _MAX_STATES:
                sizes[key] = nodes - start
            continue
        nodes += 1
        if cap is not None and nodes > cap:
            return cap, hits, True
        free = ctx.omega_mask & ~covered
        if not free:
            hits.append([(s[0], list(s[3])) for s in sets])
            if not collect:
                break
            continue
        if inv:
            if any(s[1] % 2 and not comp_invol[s[0]] & free for s in sets):
                continue
        elif len(sets) > before:
            s = sets[-1]
            if s[1] % 2 and not comp_invol[s[0]] & free:
                continue
        key = covered, tuple(sorted([(s[0], s[1], s[2]) for s in sets if s[1]]))
        size = sizes.get(key)
        if size is not None:
            nodes += size
            if cap is not None and nodes > cap:
                return cap, hits, True
            continue
        w = (free & -free).bit_length() - 1
        stack.append(
            (_moves(ctx, sets, covered, slots, w, anchor), w in invol, len(sets), key, nodes, len(hits))
        )
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
    decided.  Its state table stops at _MAX_STATES entries, so memory stays
    bounded without a budget.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    ctx = _Ctx(model)
    # subgroups_tried: the companions whose fresh set can take the least
    # difference at the root (see _moves), in any mode.
    w0 = ctx.model.omega[0]
    tried = tuple(
        ctx.companions[c]
        for c, k in enumerate(ctx.comp_index)
        if k <= len(ctx.model.omega) and ctx.comp_member[c][w0] == (w0 in ctx.invol)
    )
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
    before it searches.  Each search's state table stops at _MAX_STATES
    entries, so memory stays bounded without a budget."""
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
            outcome = search_starter(build_model(H), mode="exhaust", budget=budget)
            pairs.append(
                {
                    "group": list(group.cyclic_orders),
                    "H_generators": generators_payload(H),
                    "status": outcome.status,
                    "nodes_explored": outcome.nodes_explored,
                }
            )
            if outcome.status == FOUND:
                return CertificationResult(m, n, WITNESS, tuple(pairs), outcome.witness)
            if outcome.status == BUDGET_EXCEEDED:
                exceeded = True
    status = BUDGET_EXCEEDED if exceeded else CERTIFIED
    return CertificationResult(m, n, status, tuple(pairs), None)
