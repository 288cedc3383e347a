"""Exhaustive search, certification, budgets, and the brute-force
cross-check."""

from __future__ import annotations

import hashlib
import inspect
import sys
import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starfact.search
from oracles import (
    COMPOSITE_ORDERS,
    brute_force_factorizations,
    every_translation_invariant,
    models_of_order,
    reference_walk,
)
from starfact.cayley import build_model
from starfact.constructions import classify_existence
from starfact.groups import enumerate_abelian_groups, make_group, subgroups_of_order
from starfact.search import (
    BUDGET_EXCEEDED,
    FOUND,
    NONE_EXISTS,
    certify_nonexistence,
    search_starter,
)
from starfact.serialize import canonical_json, factorization_payload
from starfact.starters import (
    develop_factorization,
    verify_factorization,
    verify_starter,
)


def _model(orders, h_gens):
    g = make_group(orders)
    return build_model(g.subgroup(h_gens))


def test_found_on_z4():
    out = search_starter(_model([4], [(2,)]))
    assert out.status == FOUND
    assert out.nodes_explored == 2  # root plus the single anchored opening
    assert verify_starter(out.witness).passed
    sets = out.witness.sets
    assert len(sets) == 1
    assert sets[0].edges == ((0, 1),)
    assert sets[0].subgroup.elements == (0, 2)
    assert len(out.subgroups_tried) == 1
    assert out.subgroups_tried[0].elements == (0, 2)


def test_none_exists_examples():
    assert search_starter(_model([6], [(3,)])).status == NONE_EXISTS
    assert search_starter(_model([10], [(5,)])).status == NONE_EXISTS
    out = search_starter(_model([6], [(3,)]), mode="exhaust")
    assert out.status == NONE_EXISTS
    assert out.witness is None


def test_found_on_klein_group():
    out = search_starter(_model([2, 2], [(1, 0)]))
    assert out.status == FOUND
    fact = develop_factorization(out.witness)
    assert every_translation_invariant(fact)


def test_budget_ladder():
    m = _model([12], [(6,)])
    full = search_starter(m)
    assert full.status == FOUND
    assert full.nodes_explored == 13
    assert search_starter(m, budget=0).status == BUDGET_EXCEEDED
    assert search_starter(m, budget=0).nodes_explored == 0
    for b in range(1, 13):
        out = search_starter(m, budget=b)
        assert out.status == BUDGET_EXCEEDED, b
        assert out.nodes_explored == b
    out = search_starter(m, budget=13)
    assert out.status == FOUND
    assert out.nodes_explored == 13


def test_decided_search_skips_later_branches():
    # The witness lies 20 nodes in, inside the second root branch; the
    # fourth branch holds millions of nodes, which a decided search must
    # never walk.
    m = _model([4, 9], [(1, 0)])
    start = time.perf_counter()
    for budget in (None, 5_000_000):
        out = search_starter(m, budget=budget)
        assert (out.status, out.nodes_explored) == (FOUND, 20), budget
        assert verify_starter(out.witness).passed
    assert time.perf_counter() - start < 5.0


def test_search_depth_has_no_recursion_limit():
    # 44 sets deep; a walk that spends even one frame per level overflows
    # a recursion limit only 40 frames above the caller.
    m = _model([4, 22], [(2, 0)])
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        out = search_starter(m)
    finally:
        sys.setrecursionlimit(old)
    assert (out.status, out.nodes_explored) == (FOUND, 89)
    assert sum(len(s.edges) for s in out.witness.sets) == 44


def test_witness_on_z12_order3_parts():
    out = search_starter(_model([12], [(4,)]))
    assert out.status == FOUND
    assert out.nodes_explored == 6
    shaped = [(s.edges, s.subgroup.order) for s in out.witness.sets]
    assert shaped == [
        (((0, 1),), 6),
        (((0, 2), (1, 7)), 4),
        (((0, 3),), 6),
        (((0, 5),), 6),
    ]
    # companions are probed largest first
    assert [s.order for s in out.subgroups_tried] == [6, 4, 3, 2]


def test_enumerate_all_starters_z4():
    out = search_starter(_model([4], [(2,)]), mode="all")
    assert out.status == FOUND
    assert out.nodes_explored == 5
    # the four translates of the single long edge, nothing else
    edges = sorted(s.edges[0] for w in out.witnesses for s in w.sets)
    assert edges == [(0, 1), (0, 3), (1, 2), (2, 3)]
    assert out.witness == out.witnesses[0]
    for w in out.witnesses:
        assert verify_starter(w).passed


def test_enumerate_all_starters_klein():
    # two short-edge choices per involution, independently
    out = search_starter(_model([2, 2], [(1, 0)]), mode="all")
    assert out.status == FOUND
    assert len(out.witnesses) == 4
    facts = {
        canonical_json(factorization_payload(develop_factorization(w)))
        for w in out.witnesses
    }
    # all four develop to the same invariant factorization of the 4-cycle
    assert len(facts) == 1


def test_enumeration_respects_budget():
    # the non-anchored tree, cut off by a budget and walked to the end
    cases = [
        ([4], [(2,)], 3, BUDGET_EXCEEDED, 3, 2),
        ([6], [(2,)], None, FOUND, 55, 24),
        ([2, 3], [(0, 1)], None, FOUND, 49, 24),
        ([8], [(4,)], None, NONE_EXISTS, 657, 0),
        ([12], [(4,)], 2000, BUDGET_EXCEEDED, 2000, 354),
    ]
    for orders, h_gens, budget, status, nodes, count in cases:
        out = search_starter(_model(orders, h_gens), mode="all", budget=budget)
        got = (out.status, out.nodes_explored, len(out.witnesses))
        assert got == (status, nodes, count), (orders, h_gens, budget)


_PINNED_TREES = pytest.mark.parametrize(
    "orders, h_gens, mode, budget, status, nodes, count, digest",
    [
        ([2, 3, 5], [(1, 1, 0)], "all", 100_000, BUDGET_EXCEEDED, 100_000, 0,
         "69f2b7dc53b7a583ed0de191c5698b14c211dd9fd05457b0c7fa23f4507ed261"),
        ([2, 3, 5], [(1, 1, 0)], "exhaust", 300_000, BUDGET_EXCEEDED, 300_000, 0,
         "80b389d682ab103cb054da49e7fe5267272cf36d003b09afd34da1822fd9c640"),
        ([6, 3], [(2, 0)], "exhaust", None, FOUND, 183, 0,
         "0d70f79d32f8383c58e8a4f0849b611b6d48c4281ef1a3ce23e7063df8e92af6"),
        ([2, 3, 3], [(1, 0, 0), (0, 1, 0)], "exhaust", None, NONE_EXISTS, 15_869, 0,
         "90085a0f417ab851efece9b22fda219f48b348bb6c8ea7c119a549cf31e04d51"),
        ([4, 5], [(2, 0)], "all", 50_000, BUDGET_EXCEEDED, 50_000, 5_756,
         "61ebb6e9f8eef8615433053b7f41d12a38df78120c2df65d9899c85fd6fd8ed2"),
    ],
)


@_PINNED_TREES
def test_search_tree_is_pinned(orders, h_gens, mode, budget, status, nodes, count, digest):
    # Deep trees in both move orders (anchored and literal).  The payload
    # hash pins the witnesses found and where the budget cut the walk, so a
    # faster engine must walk the same tree move for move.
    out = search_starter(_model(orders, h_gens), mode=mode, budget=budget)
    assert (out.status, out.nodes_explored, len(out.witnesses)) == (status, nodes, count)
    assert hashlib.sha256(canonical_json(out.payload()).encode()).hexdigest() == digest


@_PINNED_TREES
def test_state_table_is_only_a_cache(
    monkeypatch, orders, h_gens, mode, budget, status, nodes, count, digest
):
    # A state table that fills after 8 entries walks repeated subtrees
    # again, but every pinned tree keeps its status, node count and digest.
    monkeypatch.setattr(starfact.search, "_MAX_STATES", 8)
    test_search_tree_is_pinned(orders, h_gens, mode, budget, status, nodes, count, digest)


def _witness_sets(out):
    """Each witness of a search outcome as the reference walk lists it."""
    found = out.witnesses or ((out.witness,) if out.witness else ())
    return [[(s.subgroup.elements, list(s.edges)) for s in w.sets] for w in found]


_MODES = ("first", "exhaust", "all")


@settings(max_examples=150, database=None, derandomize=True, deadline=None)
@given(
    order=st.sampled_from(COMPOSITE_ORDERS),
    pick=st.integers(0, 10**6),
    mode=st.sampled_from(_MODES),
    budget=st.integers(0, 1_500),
)
def test_search_matches_reference_walk(order, pick, mode, budget):
    # A random model with |G| <= 24, a random mode and budget: the walk that
    # counts slot-cut children in bulk and checks the odd-slot bound only
    # where a move can change it gives the per-node walk's status, node
    # count and witnesses.
    models = models_of_order(order)
    model = models[pick % len(models)]
    out = search_starter(model, mode, budget)
    got = out.status, out.nodes_explored, _witness_sets(out)
    assert got == reference_walk(model, mode, budget)


_SWEEP_ALL_CAP = 64


def _sweep(model, mode, cap=None):
    """Search model at every budget from 0 to one past its tree of N nodes
    (walked up to cap): a budget b reports min(b, N) nodes and runs out
    exactly when b < N, even where it falls inside a level's bulk count of
    slot-cut children.  Mode all's witnesses under a budget are a prefix of
    the full list.  Returns the number of budgets tried."""
    full = search_starter(model, mode, cap)
    n, whole = full.nodes_explored, full.status != BUDGET_EXCEEDED
    witnesses = _witness_sets(full)
    budgets = range(n + 2 if whole else n + 1)
    for b in budgets:
        out = search_starter(model, mode, b)
        assert out.nodes_explored == min(b, n), (model.H.elements, mode, b)
        assert (out.status == BUDGET_EXCEEDED) == (b < n or not whole)
        if mode == "all":
            got = _witness_sets(out)
            assert got == witnesses[: len(got)]
        elif b >= n:
            assert out.payload() == full.payload()
    return len(budgets)


def test_budget_sweep_cuts_every_small_tree_at_every_node():
    # Every model with |G| <= 12, in every mode, at every budget (mode all
    # stops at _SWEEP_ALL_CAP nodes, since each of its runs verifies every
    # witness).
    runs = sum(
        _sweep(model, mode, _SWEEP_ALL_CAP if mode == "all" else None)
        for order in range(4, 13)
        for model in models_of_order(order)
        for mode in _MODES
    )
    assert runs == 3_192


@pytest.mark.parametrize(
    "orders, h_gens, cap, nodes",
    [
        # whole trees; each cut level counts |G| = 8 slot-cut children
        ([8], [(4,)], None, 657),
        ([8], [(2,)], None, 161),
        # an involution's fresh sets count |G|/2 = 4 at a time, and one
        # level counts 12 over three companions
        ([2, 2, 2], [(0, 0, 1)], 300, 300),
    ],
)
def test_budget_sweep_deep_in_mode_all_trees(monkeypatch, orders, h_gens, cap, nodes):
    # Mode all past _SWEEP_ALL_CAP on the cheapest trees, so budgets also
    # land inside bulk counts deep in the walk.  The full run matches the
    # per-node walk and verifies its witnesses; the budgeted runs skip
    # verification, which would otherwise be nearly all of the time.
    model = _model(orders, h_gens)
    out = search_starter(model, "all", cap)
    assert out.nodes_explored == nodes
    assert (out.status, nodes, _witness_sets(out)) == reference_walk(model, "all", cap)
    monkeypatch.setattr(starfact.search, "verify_starter", lambda s: _PASSED)
    _sweep(model, "all", cap)


_PASSED = types.SimpleNamespace(passed=True)


def test_moves_apply_no_child_that_fails_the_slot_bound(monkeypatch):
    # Every child a level applies passes the slot-sum bound; the ones that
    # would fail are only counted, in the level's last yield.
    moves = starfact.search._moves
    applied = cut = 0

    def checked(ctx, *args):
        nonlocal applied, cut
        for covered, slots in moves(ctx, *args):
            if covered:
                assert slots <= (ctx.omega_mask & ~covered).bit_count()
                applied += 1
            else:
                cut += slots
            yield covered, slots

    monkeypatch.setattr(starfact.search, "_moves", checked)
    model = _model([2, 3, 3], [(1, 0, 0), (0, 1, 0)])
    out = search_starter(model, mode="exhaust")
    assert (out.status, out.nodes_explored) == (NONE_EXISTS, 15_869)
    assert reference_walk(model, "exhaust")[:2] == (NONE_EXISTS, 15_869)
    # Only the walk applies moves; subgroups_tried is read off the
    # companion tables.  Fewer children are applied or cut than the tree
    # has nodes, since a subtree whose state the walk has already met is
    # counted from its table.
    assert 1 + applied + cut < 15_869
    assert cut > 0


def test_bad_mode_and_budget_zero():
    m = _model([4], [(2,)])
    with pytest.raises(ValueError, match="mode"):
        search_starter(m, mode="everything")
    assert search_starter(m, budget=0).status == BUDGET_EXCEEDED


def test_payload_shape():
    out = search_starter(_model([4], [(2,)]))
    payload = out.payload()
    assert payload["status"] == "found"
    assert payload["subgroups_tried"] == [[[2]]]
    assert payload["witness"]["sets"][0]["edges"] == [[[0], [1]]]


def test_brute_force_counts():
    # cross-checked against the translation-filtered plain enumeration
    cases = [
        ([4], [(2,)], 1, 1),
        ([2, 2], [(1, 0)], 1, 1),
        ([2, 3], [(1, 0)], 2, 0),
        ([2, 3], [(0, 1)], 2, 2),
        ([8], [(4,)], 416, 0),
    ]
    for orders, h_gens, plain, invariant in cases:
        m = _model(orders, h_gens)
        r_plain = brute_force_factorizations(m)
        r_inv = brute_force_factorizations(m, require_invariance=True)
        assert (r_plain.count, r_inv.count) == (plain, invariant), (orders, h_gens)
        assert r_plain.exhausted and r_inv.exhausted
        for fact in r_plain.witnesses + r_inv.witnesses:
            assert verify_factorization(fact).passed
        for fact in r_inv.witnesses:
            assert every_translation_invariant(fact)


def test_brute_force_invariant_mode_agrees_with_literal_filter():
    for orders, h_gens in [([2, 3], [(0, 1)]), ([2, 3], [(1, 0)]), ([4], [(2,)]), ([2, 2], [(0, 1)])]:
        m = _model(orders, h_gens)
        everything = brute_force_factorizations(m, max_witnesses=10**6)
        assert everything.exhausted
        filtered = [
            f
            for f in everything.witnesses
            if every_translation_invariant(f)
        ]
        direct = brute_force_factorizations(m, require_invariance=True)
        assert direct.count == len(filtered)


def test_brute_force_stop_after_and_cap():
    m = _model([8], [(4,)])
    partial = brute_force_factorizations(m, stop_after=5, max_witnesses=2)
    assert partial.count == 5
    assert not partial.exhausted
    assert len(partial.witnesses) == 2
    big = make_group([16])
    with pytest.raises(ValueError, match="capped"):
        brute_force_factorizations(build_model(big.subgroup([(8,)])))


def test_search_agrees_with_brute_force_small_orders():
    # subset here; the full order <= 12 sweep runs in the acceptance suite
    for order in (4, 6, 8):
        for group in enumerate_abelian_groups(order):
            for size in range(2, order):
                if order % size:
                    continue
                for H in subgroups_of_order(group, size):
                    m = build_model(H)
                    found = search_starter(m).status == FOUND
                    positive = (
                        brute_force_factorizations(
                            m, require_invariance=True, stop_after=1
                        ).count
                        > 0
                    )
                    assert found == positive, (group.cyclic_orders, H.elements)


def test_certify_small_pairs():
    r = certify_nonexistence(3, 2)
    assert r.status == "certified"
    assert len(r.pairs) == 1
    assert r.pairs[0] == {
        "group": [2, 3],
        "H_generators": [[1, 0]],
        "status": "none_exists",
        "nodes_explored": 2,
    }
    assert certify_nonexistence(5, 2).status == "certified"
    assert certify_nonexistence(7, 2).status == "certified"


# Pairs with mn <= 24 that classify_existence leaves unknown; certification
# finds a witness for each.  These are computed facts, not rules.
_UNKNOWN_PAIRS_WITH_WITNESSES = {(3, 4), (5, 4), (9, 2), (3, 8)}


def test_existence_atlas_agrees_with_classifier():
    start = time.perf_counter()
    checked = set()
    for mn in range(4, 25, 2):
        for n in range(2, mn // 2 + 1):
            if mn % n:
                continue
            m = mn // n
            verdict = classify_existence(m, n).status
            result = certify_nonexistence(m, n, budget=20_000).status
            if (m, n) in _UNKNOWN_PAIRS_WITH_WITNESSES:
                assert (verdict, result) == ("unknown", "witness"), (m, n)
            else:
                assert (verdict, result) in {
                    ("exists", "witness"),
                    ("not_exists", "certified"),
                }, (m, n, verdict, result)
            checked.add((m, n))
    assert len(checked) == 32 and _UNKNOWN_PAIRS_WITH_WITNESSES <= checked
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize(
    "m, n, status, nodes",
    [
        # Counted node by node before subtrees were counted from the table.
        (3, 10, "certified", [38_195_705]),
        (15, 2, "certified", [1_686_033_019_041]),
        # The first pair exhausts its tree before the second gives a witness.
        (12, 2, "witness", [1_480_536_227, 13]),
    ],
)
def test_unbudgeted_certification_of_large_trees(m, n, status, nodes):
    # Each tree has millions of nodes or more, so a walk that visits every
    # node one by one misses the ceiling by far.
    start = time.perf_counter()
    r = certify_nonexistence(m, n)
    assert (r.status, [p["nodes_explored"] for p in r.pairs]) == (status, nodes)
    assert time.perf_counter() - start < 30.0


def test_classifier_never_contradicts_certified_search():
    # Every (m, n) with mn even and at most 36, searched to a million nodes
    # per pair: no rule's verdict meets the opposite search result, every
    # pair the rules leave unknown has a witness, and the two rows left
    # undecided are the ones certified without a budget above.
    rows, undecided = 0, set()
    for mn in range(4, 37, 2):
        for n in range(2, mn // 2 + 1):
            if mn % n:
                continue
            m = mn // n
            verdict = classify_existence(m, n).status
            result = certify_nonexistence(m, n, budget=10**6).status
            contradictions = {("exists", "certified"), ("not_exists", "witness")}
            assert (verdict, result) not in contradictions, (m, n)
            assert verdict != "unknown" or result == "witness", (m, n)
            if result == BUDGET_EXCEEDED:
                undecided.add((m, n))
            rows += 1
    assert (rows, undecided) == (57, {(3, 10), (15, 2)})


def test_certify_finds_witness_and_stops():
    r = certify_nonexistence(2, 2)
    assert r.status == "witness"
    assert len(r.pairs) == 1  # stops at the first hit
    assert r.pairs[0]["group"] == [4]
    assert r.witness is not None
    assert verify_starter(r.witness).passed


def test_certify_budget_downgrade():
    r = certify_nonexistence(2, 2, budget=1)
    assert r.status == "budget_exceeded"
    assert len(r.pairs) == 4  # [4] has one order-2 subgroup, [2,2] has three
    assert all(p["status"] == "budget_exceeded" for p in r.pairs)
    assert all(p["nodes_explored"] == 1 for p in r.pairs)
    assert r.witness is None


def test_certify_rejects_degenerate_input():
    with pytest.raises(ValueError):
        certify_nonexistence(1, 2)
    with pytest.raises(ValueError, match="odd"):
        certify_nonexistence(3, 3)


def test_certify_payload_deterministic():
    a = canonical_json(certify_nonexistence(3, 2).payload())
    b = canonical_json(certify_nonexistence(3, 2).payload())
    assert a == b
