"""Group arithmetic, subgroup lattice, and isomorphism-class enumeration."""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from math import prod

import pytest

from coords import add, closure, element_order, index, neg, scale, sub
from starfact.cli import main
from starfact.groups import (
    AbelianGroup,
    all_subgroups,
    enumerate_abelian_groups,
    factorize,
    make_group,
    subgroup_from_generators,
    subgroups_of_order,
)
from starfact.serialize import generators_payload


def test_make_group_rejects_bad_orders():
    with pytest.raises(ValueError):
        make_group([])
    with pytest.raises(ValueError):
        make_group([4, 1])
    with pytest.raises(ValueError):
        make_group([0])
    # orders must be exactly int, never truncated or coerced
    for bad in (4.5, "4", 4.0, True):
        with pytest.raises(ValueError, match="integers"):
            make_group([bad])
        with pytest.raises(ValueError, match="integers"):
            AbelianGroup((2, bad))


def test_element_reduction_and_shape():
    g = make_group([5, 5, 2])
    assert g.elements()[g.index_of((7, -1, 3))] == (2, 4, 1)
    assert g.elements()[0] == (0, 0, 0)  # vertex 0 is the identity
    with pytest.raises(ValueError):
        g.index_of((1, 2))


def test_arithmetic_examples():
    g = make_group([5, 5, 2])
    o = g.cyclic_orders
    assert add(o, (4, 3, 1), (2, 4, 1)) == (1, 2, 0)
    assert neg(o, (1, 0, 1)) == (4, 0, 1)
    assert sub(o, (0, 0, 0), (2, 3, 1)) == (3, 2, 1)
    assert scale(o, 3, (2, 1, 1)) == (1, 3, 1)
    # the same sums on vertex indices
    i = g.index_of
    assert g.translation(i((2, 4, 1)))[i((4, 3, 1))] == i((1, 2, 0))
    assert g.negs[i((1, 0, 1))] == i((4, 0, 1))
    assert g.difference(i((0, 0, 0)), i((2, 3, 1))) == i((3, 2, 1))


def test_element_order():
    assert element_order((12,), (4,)) == 3
    assert element_order((12,), (6,)) == 2
    assert element_order((12,), (1,)) == 12
    assert element_order((12,), (0,)) == 1
    assert element_order((2, 2), (1, 1)) == 2
    assert element_order((4, 6), (2, 3)) == 2
    assert element_order((4, 6), (1, 2)) == 12


def test_involutions():
    assert make_group([5]).involutions == frozenset()
    assert make_group([4]).involutions == frozenset({2})
    g = make_group([2, 2, 3])
    assert g.involutions == frozenset(
        g.index_of(a) for a in [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    )
    # 2^s - 1 of them, s = number of even factors
    assert len(make_group([4, 2]).involutions) == 3
    assert len(make_group([2, 2, 2]).involutions) == 7


def test_vertex_indexing_roundtrip():
    g = make_group([5, 5, 2])
    assert g.index_of((1, 2, 1)) == 15
    assert g.elements()[15] == (1, 2, 1)
    for i, a in enumerate(g.elements()):
        assert g.index_of(a) == i
        assert index(g.cyclic_orders, a) == i
    # index arithmetic agrees with the coordinate arithmetic
    for orders in ([5, 5, 2], [12], [2, 2, 3], [4, 6]):
        g = make_group(orders)
        el = g.elements()
        for x, a in enumerate(el):
            assert g.negs[x] == index(orders, neg(orders, a))
            for y, b in enumerate(el):
                assert g.translation(y)[x] == index(orders, add(orders, a, b))
                assert g.difference(x, y) == index(orders, sub(orders, a, b))


def test_elements_are_sorted_and_complete():
    g = make_group([3, 4])
    elems = g.elements()
    assert len(elems) == 12
    assert list(elems) == sorted(elems)


def test_subgroup_closure():
    g = make_group([4])
    s = g.subgroup([(2,)])
    assert s.elements == (0, 2)
    assert s.order == 2
    assert s.index == 2
    g12 = make_group([12])
    assert g12.subgroup([(4,)]).elements == (0, 4, 8)
    assert g12.subgroup([]).order == 1
    assert g12.full_subgroup().order == 12
    h = make_group([2, 2])
    assert h.subgroup([(1, 0), (0, 1)]).order == 4
    assert h.subgroup([(1, 1)]).elements == (0, 3)  # (0, 0) and (1, 1)


def test_cosets_are_lex_least_reps():
    g = make_group([4])
    assert g.subgroup([(2,)]).coset_reps == (0, 1)
    g6 = make_group([6])
    assert g6.subgroup([(3,)]).coset_reps == (0, 1, 2)
    g23 = make_group([2, 3])
    assert g23.subgroup([(0, 1)]).coset_reps == (0, 3)


def test_coset_reps_are_the_first_index_of_each_coset():
    # The least element of coset c is where coset_of first reads c.
    count = 0
    for order in range(2, 49):
        for group in enumerate_abelian_groups(order):
            for s in group.subgroups:
                assert s.coset_reps == tuple(map(s.coset_of.index, range(s.index))), s
                assert all(a < b for a, b in zip(s.coset_reps, s.coset_reps[1:])), s
                count += 1
    assert count == 1481


def test_coset_reps_take_one_pass_at_a_large_index():
    # Index 31,250: one scan of coset_of per coset took 36 s.  The closure
    # builds the coset index and the representatives together.
    start = time.perf_counter()
    s = make_group([5**6, 5, 2]).subgroup([(0, 1, 0)])
    elapsed = time.perf_counter() - start
    coset = s.coset_of
    reps = s.coset_reps
    assert len(reps) == s.index == 31_250
    assert reps[:4] == (0, 1, 10, 11) and coset[reps[-1]] == s.index - 1
    assert elapsed < 5.0, f"{elapsed:.2f}s"


def test_subgroup_lattice_sizes():
    # counted by the element-adjoining closure itself on one hand and by the
    # classical lattice structure of these small groups on the other
    expected = {
        (4,): 3,
        (2, 2): 5,
        (8,): 4,
        (12,): 6,
        (2, 4): 8,
        (2, 2, 2): 16,
    }
    for orders, count in expected.items():
        g = make_group(orders)
        subs = all_subgroups(g)
        assert len(subs) == count, orders
        # Lagrange, plus stable ordering
        keys = [(s.order, s.elements) for s in subs]
        assert keys == sorted(keys)
        for s in subs:
            assert g.order % s.order == 0
        # each call hands out a fresh list over the same cached lattice
        subs.sort(key=lambda s: -s.order)
        again = all_subgroups(g)
        assert [(s.order, s.elements) for s in again] == keys
        assert again == all_subgroups(g)
        assert again is not all_subgroups(g)


def _gaussian_binomial(k: int, j: int, p: int) -> int:
    """Number of j-dimensional subspaces of F_p^k."""
    num = prod(p ** (k - i) - 1 for i in range(j))
    den = prod(p ** (j - i) - 1 for i in range(j))
    return num // den


def test_subgroup_counts_match_lattice_oracles():
    # Z_p^k is the vector space F_p^k, so its subgroups are the subspaces:
    # sum over j of the Gaussian binomial [k choose j]_p.
    expected = {
        (2, 2): 5, (2, 3): 16, (2, 4): 67, (3, 2): 6, (3, 3): 28, (3, 4): 212,
        (5, 2): 8, (5, 3): 64, (7, 2): 10,
    }
    for (p, k), count in expected.items():
        assert sum(_gaussian_binomial(k, j, p) for j in range(k + 1)) == count
        subs = make_group([p] * k).subgroups
        assert len(subs) == count, (p, k)
        by_order = [sum(s.order == p**j for s in subs) for j in range(k + 1)]
        assert by_order == [_gaussian_binomial(k, j, p) for j in range(k + 1)], (p, k)
    # Z_n has exactly one subgroup of each order dividing n.
    for n in range(2, 61):
        orders = [s.order for s in make_group([n]).subgroups]
        assert orders == [d for d in range(1, n + 1) if n % d == 0], n
    # A subgroup of a finite abelian group is the product of its Sylow parts,
    # so the number of subgroups of each order multiplies over the primes.
    for order in (250, 360):
        for g in enumerate_abelian_groups(order):
            expected = Counter({1: 1})
            for p, _ in factorize(order):
                part = make_group([n for n in g.cyclic_orders if n % p == 0])
                sizes = Counter(s.order for s in part.subgroups)
                expected = Counter(
                    {a * b: x * y for a, x in expected.items() for b, y in sizes.items()}
                )
            assert Counter(s.order for s in g.subgroups) == expected, g.cyclic_orders


def test_lattice_listing_is_pinned_and_fast(capsys):
    # sha256 of `groups --order O --subgroups`, recorded with the lattice
    # built by adjoining every element to every subgroup (orders 250 and 360:
    # every least coset representative); adjoining only the representatives
    # whose closure is not known to repeat must list the same subgroups, in
    # the same order, with the same generators.
    expected = {
        32: "203a0427e26268894cdcae088b02c37133a320ca72c3a9c2407409f68e8026ca",
        48: "3e7e3d8bcc69b3434736d3c83bb99c45db78c90960aea8756a6533852cf28b6f",
        64: "61b18beb4c58c7d3fefbb535283c8c44b11360a1d87c41860e4bbe32ac5b3b97",
        210: "d3b98128f144cff49f4aadc53dbb93008f0a21e267cd2cc4311438f654713983",
        250: "24a5daa4e8543b5a2e445757b2710fde810db543a29f4c70aaa3424463057b38",
        360: "9afe96fc6d62138bcd119649eb368fdb6fa181073229ba8a6470f03e7112be7a",
    }
    start = time.perf_counter()
    for order, digest in expected.items():
        assert main(["groups", "--order", str(order), "--subgroups"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, order
    elapsed = time.perf_counter() - start
    assert elapsed < 6.0, f"{elapsed:.2f}s"


def test_lattice_generators_round_trip_through_the_wire_format():
    # Every subgroup of every group of order <= 48 holds its generators as
    # vertex indices, its elements are the coordinate closure of those
    # generators, held as the ascending tuple of the vertices in coset 0,
    # and closing its wire format gives back the same elements and the
    # same generators.
    count = 0
    for order in range(2, 49):
        for g in enumerate_abelian_groups(order):
            for s in g.subgroups:
                assert all(type(x) is int and 0 <= x < order for x in s.generators)
                gens = generators_payload(s)
                o = g.cyclic_orders
                assert s.elements == tuple(sorted(index(o, a) for a in closure(o, gens))), s
                # held once, strictly ascending, and the members of coset 0
                assert s.elements == tuple(sorted(set(s.elements)))
                assert s.elements == tuple(x for x, c in enumerate(s.coset_of) if c == 0)
                again = subgroup_from_generators(g, gens)
                assert again.elements == s.elements
                assert again.generators == s.generators
                assert again.coset_of == s.coset_of and again.coset_reps == s.coset_reps
                # the coset index does not depend on the order of closing
                backward = subgroup_from_generators(g, gens[::-1])
                assert backward.coset_of == s.coset_of and backward.coset_reps == s.coset_reps
                count += 1
    assert count == 1481


def test_lattice_closures_leave_the_row_cache_empty():
    # Each closure builds its own translation row and drops it: caching one
    # row per coset representative took 330 MB over the groups of order 1000.
    groups = enumerate_abelian_groups(1000)
    assert sum(len(g.subgroups) for g in groups) == 2296
    assert not any("_rows" in g.__dict__ for g in groups)


def test_subgroups_are_equal_by_group_and_elements():
    # Closing every element of a subgroup, in a fresh group of the same
    # cyclic orders, gives other generators but an equal subgroup with an
    # equal hash; equal element sets in different groups stay unequal.
    count = 0
    for order in range(2, 49):
        for g in enumerate_abelian_groups(order):
            elems = g.elements()
            for s in g.subgroups:
                closed = make_group(g.cyclic_orders).subgroup([elems[x] for x in s.elements])
                assert closed.generators != s.generators
                assert closed == s and hash(closed) == hash(s), s
                count += 1
    assert count == 1481
    z4, z2z2 = make_group([4]).subgroup([(2,)]), make_group([2, 2]).subgroup([(1, 0)])
    assert z4.elements == z2z2.elements == (0, 2)
    assert z4 != z2z2


def test_subgroups_of_order():
    g = make_group([2, 2])
    assert len(subgroups_of_order(g, 2)) == 3
    assert len(subgroups_of_order(g, 4)) == 1
    assert subgroups_of_order(g, 3) == []


def test_factorize():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(97) == [(97, 1)]
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    with pytest.raises(ValueError):
        factorize(0)


def _partition_count(n: int) -> int:
    # independent oracle: p(n) by the standard bottom-up recurrence
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def test_enumeration_matches_partition_product_oracle():
    # the number of abelian groups of order n is the product of p(e) over
    # the prime exponents e of n
    for order in range(2, 129):
        groups = enumerate_abelian_groups(order)
        expected = prod(_partition_count(e) for _, e in factorize(order))
        assert len(groups) == expected, order
        # equal multisets of prime-power invariants mean isomorphic groups
        keys = {
            tuple(sorted(pe for n in g.cyclic_orders for pe in factorize(n))) for g in groups
        }
        assert len(keys) == len(groups), order
        for g in groups:
            assert g.order == order


def test_enumeration_examples():
    assert [list(g.cyclic_orders) for g in enumerate_abelian_groups(8)] == [
        [8],
        [4, 2],
        [2, 2, 2],
    ]
    assert len(enumerate_abelian_groups(72)) == 6
    with pytest.raises(ValueError):
        enumerate_abelian_groups(1)


def _random_group(rng: random.Random) -> AbelianGroup:
    rank = rng.randint(1, 3)
    return make_group([rng.choice([2, 3, 4, 5, 6, 8, 9]) for _ in range(rank)])


def test_arithmetic_properties_random_sweep():
    rng = random.Random(20259)
    for _ in range(1000):
        g = _random_group(rng)
        o = g.cyclic_orders
        zero = (0,) * g.rank
        elems = g.elements()
        a = rng.choice(elems)
        b = rng.choice(elems)
        c = rng.choice(elems)
        assert add(o, a, b) == add(o, b, a)
        assert add(o, add(o, a, b), c) == add(o, a, add(o, b, c))
        assert add(o, a, neg(o, a)) == zero
        assert sub(o, a, b) == add(o, a, neg(o, b))
        k = rng.randint(0, 7)
        acc = zero
        for _ in range(k):
            acc = add(o, acc, a)
        assert scale(o, k, a) == acc
        assert scale(o, -1, a) == neg(o, a)
        assert g.order % element_order(o, a) == 0
        # the same laws on vertex indices, each sum checked against the oracle
        x, y, z = g.index_of(a), g.index_of(b), g.index_of(c)
        plus = g.translation
        assert plus(y)[x] == plus(x)[y] == index(o, add(o, a, b))
        assert plus(z)[plus(y)[x]] == plus(plus(z)[y])[x]
        assert plus(g.negs[x])[x] == 0
        assert g.difference(x, y) == plus(g.negs[y])[x] == index(o, sub(o, a, b))
        acc = 0
        for _ in range(k):
            acc = plus(x)[acc]
        assert acc == index(o, scale(o, k, a))


def test_subgroup_properties_random_sweep():
    rng = random.Random(40917)
    for _ in range(200):
        g = _random_group(rng)
        o = g.cyclic_orders
        elems = g.elements()
        gens = [rng.choice(elems) for _ in range(rng.randint(0, 2))]
        s = g.subgroup(gens)
        # the index elements are the coordinate closure of the generators
        assert s.elements == tuple(sorted(index(o, a) for a in closure(o, gens)))
        members = {elems[h] for h in s.elements}
        # closure generated twice is the same subgroup
        assert g.subgroup([elems[h] for h in s.elements]).elements == s.elements
        assert g.order % s.order == 0
        reps = [elems[r] for r in s.coset_reps]
        assert len(reps) == s.index
        seen = set()
        for r in reps:
            coset = {add(o, r, h) for h in members}
            assert r == min(coset)
            assert not (coset & seen)
            seen |= coset
        assert len(seen) == g.order
        # the coset index numbers the same classes in the same order
        assert len(s.coset_of) == g.order
        classes = [[] for _ in range(s.index)]
        for a in elems:
            classes[s.coset_of[g.index_of(a)]].append(a)
        assert all(len(c) == s.order for c in classes)
        assert [min(c) for c in classes] == reps
        assert set(classes[0]) == members


def test_involution_count_random_sweep():
    rng = random.Random(7311)
    for _ in range(200):
        g = _random_group(rng)
        o = g.cyclic_orders
        zero = (0,) * g.rank
        s = sum(1 for n in g.cyclic_orders if n % 2 == 0)
        assert len(g.involutions) == 2**s - 1
        for i in g.involutions:
            a = g.elements()[i]
            assert add(o, a, a) == zero
            assert a != zero
        assert g.involutions == {
            index(o, a) for a in g.elements() if element_order(o, a) == 2
        }


def test_full_subgroup_generators_fold_coprime_factors():
    # Each generator sums unit vectors of pairwise coprime orders, so it
    # generates their factors together: with prime-power factors there are
    # as many as the largest p-rank, and they close to the whole group.
    for order in range(2, 65):
        for group in enumerate_abelian_groups(order):
            gens = group.full_subgroup().generators
            el = group.elements()
            closed = subgroup_from_generators(group, [el[g] for g in gens])
            assert closed.elements == tuple(range(order)), group
            rank = max(
                sum(n % p == 0 for n in group.cyclic_orders) for p, _ in factorize(order)
            )
            assert len(gens) == rank, group
    for orders, count in (([6, 10], 2), ([6, 10, 15], 3), ([17, 17, 2], 2), ([4, 9, 5], 1)):
        group = make_group(orders)
        gens = group.full_subgroup().generators
        el = group.elements()
        assert subgroup_from_generators(group, [el[g] for g in gens]).order == group.order
        assert len(gens) == count, orders
