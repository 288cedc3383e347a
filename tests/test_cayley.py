"""Multipartite Cayley models: edges, differences, orbits, exports."""

from __future__ import annotations

import random

import pytest

from oracles import all_edges
from starfact.cayley import build_model, export_edge_list
from starfact.groups import make_group, subgroups_of_order
from starfact.starters import Starter, StarterSet, verify_starter


def _model(orders, h_gens):
    g = make_group(orders)
    return build_model(g.subgroup(h_gens))


def _differences(m, e):
    """{u - v, v - u} for the edge e = (u, v)."""
    d = m.group.difference(*e)
    return {d, m.group.negs[d]}


def _condition2(m, sset):
    return verify_starter(Starter(m, (sset,))).condition2


def test_build_model_validation():
    g = make_group([10])
    with pytest.raises(ValueError):
        build_model(g.subgroup([]))  # parts of size 1
    with pytest.raises(ValueError):
        build_model(g.subgroup([(1,)]))  # H not proper


def test_shape_k5x2():
    m = _model([10], [(5,)])
    assert (m.m, m.n) == (5, 2)
    assert m.group.order == 10
    assert len(m.omega) == 8
    assert m.edge_count == 40
    # the parts are the cosets of H, and Omega is everything outside H
    coset = m.H.coset_of
    assert [coset.count(c) for c in range(5)] == [2] * 5
    assert {i for i, c in enumerate(coset) if c == 0} == {0, 5}
    assert m.omega == (1, 2, 3, 4, 6, 7, 8, 9)


def test_edge_canonicalization_and_kinds():
    m = _model([10], [(5,)])
    e = m.edge(3, 1)
    assert e == (1, 3)
    assert m.group.difference(*e) not in m.group.involutions  # long
    assert _differences(m, e) == {2, 8}
    # both ends of a long edge are marked: the full group's one coset is hit twice
    full = StarterSet((e,), m.group.full_subgroup())
    assert _condition2(m, full).violations == [
        "set 0: coset of (0,) has 2 marked endpoints (companion order 10)"
    ]

    m22 = _model([2, 2], [(1, 0)])
    s = m22.edge(1, 0)  # (0, 1) ~ (0, 0)
    assert s == (0, 1)
    assert m22.group.difference(*s) in m22.group.involutions  # short
    assert _differences(m22, s) == {1}
    # only one end of a short edge is marked, so the full group passes ...
    assert _condition2(m22, StarterSet((s,), m22.group.full_subgroup())).ok
    # ... and it is the lesser end: under <(1, 0)> the ends lie in two cosets,
    # and the coset of the greater end (0, 1) is the one left empty
    split = StarterSet((s,), m22.group.subgroup([(1, 0)]))
    assert _condition2(m22, split).violations == [
        "set 0: coset of (0, 1) has 0 marked endpoints (companion order 2)"
    ]


def test_illegal_and_degenerate_edges():
    m = _model([10], [(5,)])
    with pytest.raises(ValueError, match=r"illegal edge \(0,\) ~ \(5,\)"):
        m.edge(0, 5)  # difference in H
    # the message reads the ascending pair and its difference u - v
    message = r"^illegal edge \(0,\) ~ \(4,\): difference \(8,\) lies in H$"
    with pytest.raises(ValueError, match=message):
        _model([12], [(4,)]).edge(4, 0)
    with pytest.raises(ValueError, match=r"degenerate edge at \(2,\)"):
        m.edge(2, 2)
    for bad in (-1, 10):
        with pytest.raises(ValueError, match="vertex index out of range"):
            m.pair(0, bad)
    # pair lets the illegal difference through, but edge still refuses it
    e = m.pair(0, 5)
    assert e == (0, 5)
    assert m.group.difference(*e) in m.H.elements
    with pytest.raises(ValueError):
        m.edge(*e)


def test_translate_preserves_difference():
    rng = random.Random(1183)
    m = _model([4, 3], [(2, 0)])
    invol = m.group.involutions
    for _ in range(100):
        e = rng.choice(all_edges(m))
        row = m.group.translation(rng.randrange(m.group.order))
        t = m.pair(row[e[0]], row[e[1]])
        assert t[0] < t[1]
        assert _differences(m, t) == _differences(m, e)
        assert (m.group.difference(*t) in invol) == (m.group.difference(*e) in invol)


def test_short_orbits_are_perfect_matchings():
    # a short edge has a stabilizer of order 2, so its orbit has |G|/2 edges
    # covering every vertex exactly once
    cases = [([2, 2], [(1, 0)]), ([4, 2], [(0, 1)]), ([2, 2, 3], [(0, 0, 1)]), ([12, 2], [(6, 0)])]
    for orders, h_gens in cases:
        m = _model(orders, h_gens)
        shorts = [e for e in all_edges(m) if m.group.difference(*e) in m.group.involutions]
        if not shorts:
            continue
        rows = [m.group.translation(g) for g in range(m.group.order)]
        u, v = shorts[0]
        orbit = {m.pair(row[u], row[v]) for row in rows}
        assert len(orbit) == m.group.order // 2
        covered = [x for e in orbit for x in e]
        assert sorted(covered) == list(range(m.group.order))


def test_all_edges_complete_and_sorted():
    for orders, h_gens in [([10], [(5,)]), ([2, 2], [(1, 0)]), ([3, 4], [(0, 2)])]:
        m = _model(orders, h_gens)
        edges = all_edges(m)
        assert len(edges) == m.edge_count
        assert len(set(edges)) == len(edges)
        assert list(edges) == sorted(edges)
        for u, v in edges:
            assert u < v
            assert m.group.difference(u, v) not in m.H.elements  # legality
            assert m.H.coset_of[u] != m.H.coset_of[v]  # no edge inside a part
        # the short edges are {x, x + t} for the involutions t in Omega
        short = {e for e in edges if m.group.difference(*e) in m.group.involutions}
        expected = set()
        for t in set(m.omega) & m.group.involutions:
            row = m.group.translation(t)
            expected.update((x, y) for x, y in enumerate(row) if x < y)
        assert short == expected


def test_edge_count_formula_across_lattice():
    # mn(mn - n)/2 for every proper subgroup H of order >= 2
    for orders in ([8], [2, 2, 2], [3, 4], [6, 2]):
        g = make_group(orders)
        for size in range(2, g.order):
            if g.order % size:
                continue
            for H in subgroups_of_order(g, size):
                m = build_model(H)
                assert m.edge_count == g.order * (g.order - size) // 2


def test_export_edge_list_golden():
    m = _model([4], [(2,)])
    assert export_edge_list(m) == "0 1\n0 3\n1 2\n2 3\n"


def test_edge_index_pairs_ascending():
    m = _model([5, 2], [(0, 1)])
    pairs = list(all_edges(m))
    assert all(type(e) is tuple and len(e) == 2 for e in pairs)
    assert pairs == sorted(pairs)
    assert len(pairs) == m.edge_count
    assert all(0 <= i < j < 10 for i, j in pairs)
