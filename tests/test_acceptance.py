"""Acceptance suite: one test per headline capability, each with an explicit
runtime ceiling.  Every expected number here was produced by an independent
oracle (hand counting, brute-force enumeration, or the partition-product
formula) before being frozen.
"""

from __future__ import annotations

import hashlib
import random
import time
from math import prod

from coords import add, element_order, index, neg
from oracles import brute_force_factorizations, every_translation_invariant
from starfact.cayley import build_model, export_edge_list
from starfact.constructions import (
    classify_existence,
    construct_prime_power,
    double_starter,
    parity_nonexistence,
)
from starfact.groups import (
    enumerate_abelian_groups,
    factorize,
    make_group,
    subgroups_of_order,
)
from starfact.search import (
    FOUND,
    certify_nonexistence,
    search_starter,
)
from starfact.serialize import canonical_json, factorization_payload, starter_payload
from starfact.starters import (
    check_invariance,
    develop_factorization,
    verify_factorization,
    verify_starter,
)


def _prime_power_artifacts(p: int) -> tuple[str, str]:
    starter = construct_prime_power(p, 2)
    assert verify_starter(starter).passed
    fact = develop_factorization(starter)
    assert verify_factorization(fact).passed
    assert check_invariance(fact)
    return canonical_json(starter_payload(starter)), canonical_json(
        factorization_payload(fact)
    )


def _doubling_artifacts() -> tuple[str, str]:
    base = search_starter(build_model(make_group([12]).subgroup([(4,)])))
    assert base.status == FOUND
    doubled = double_starter(base.witness)
    assert verify_starter(doubled).passed
    fact = develop_factorization(doubled)
    assert verify_factorization(fact).passed
    assert every_translation_invariant(fact)
    return canonical_json(starter_payload(doubled)), canonical_json(
        factorization_payload(fact)
    )


def _certification_artifacts(m: int, n: int) -> str:
    result = certify_nonexistence(m, n)
    assert result.status == "certified", (m, n, result.status)
    assert all(p["status"] == "none_exists" for p in result.pairs), (m, n)
    return canonical_json(result.payload())


def test_criterion_1_prime_power_p5_pipeline():
    start = time.perf_counter()
    starter = construct_prime_power(5, 2)
    assert verify_starter(starter).passed
    assert len(starter.sets) == 8
    fact = develop_factorization(starter)
    assert len(fact.factors) == 48
    assert all(len(f) == 25 for f in fact.factors)
    assert sum(len(f) for f in fact.factors) == 1200
    assert verify_factorization(fact).passed
    assert check_invariance(fact)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    print(f"criterion 1: PASS (p=5 pipeline, 48 x 25 factors, {elapsed:.2f}s)")


def test_criterion_2_prime_power_p13_pipeline():
    start = time.perf_counter()
    starter = construct_prime_power(13, 2)
    assert verify_starter(starter).passed
    fact = develop_factorization(starter)
    assert len(fact.factors) == 336
    assert all(len(f) == 169 for f in fact.factors)
    assert verify_factorization(fact).passed
    assert check_invariance(fact)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"{elapsed:.2f}s"
    print(f"criterion 2: PASS (p=13 pipeline, 336 x 169 factors, {elapsed:.2f}s)")


def test_criterion_3_doubling_pipeline():
    start = time.perf_counter()
    # small case: one long edge over Z_4 lifts to a 2 x 4 model
    g4 = make_group([4])
    m4 = build_model(g4.subgroup([(2,)]))
    small = search_starter(m4)
    assert small.status == FOUND
    lifted = double_starter(small.witness)
    assert verify_starter(lifted).passed
    fact = develop_factorization(lifted)
    assert len(fact.factors) == 4
    assert all(len(f) == 4 for f in fact.factors)
    assert every_translation_invariant(fact)
    # larger case: a searched 4 x 3 starter lifts to 4 x 6
    _doubling_artifacts()
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    print(f"criterion 3: PASS (doubling 2x2->2x4 and 4x3->4x6, {elapsed:.2f}s)")


def test_criterion_4_certified_nonexistence():
    for m, n in [(3, 2), (5, 2), (7, 2)]:
        start = time.perf_counter()
        result = certify_nonexistence(m, n)
        assert result.status == "certified", (m, n)
        assert result.pairs, (m, n)
        for pair in result.pairs:
            assert pair["status"] == "none_exists", (m, n, pair)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, (m, n, f"{elapsed:.2f}s")
    print("criterion 4: PASS ((3,2), (5,2), (7,2) certified with no cutoffs)")


def test_criterion_5_parity_certificate_agrees_with_search():
    applicable = [
        (m, 2 * d)
        for m in range(3, 15, 4)
        for d in range(1, 8, 2)
        if m * 2 * d <= 14
    ]
    assert applicable == [(3, 2), (7, 2)]
    for m, n in applicable:
        d = n // 2
        cert = parity_nonexistence(m, n)
        assert cert is not None
        assert cert["type_zero_count"] == d * (m - 1)
        assert cert["residue_mod_4"] == 2
        verdict = classify_existence(m, n)
        assert verdict.status == "not_exists"
        assert verdict.rule == "parity_count"
        assert certify_nonexistence(m, n).status == "certified"
    print("criterion 5: PASS (parity certificates confirmed by exhaustive search)")


def test_criterion_6_search_matches_brute_force_through_order_12():
    start = time.perf_counter()
    checked = 0
    for order in range(4, 13):
        for group in enumerate_abelian_groups(order):
            for size in range(2, order):
                if order % size:
                    continue
                for H in subgroups_of_order(group, size):
                    model = build_model(H)
                    found = search_starter(model).status == FOUND
                    oracle = brute_force_factorizations(
                        model, require_invariance=True, stop_after=1
                    )
                    assert found == (oracle.count > 0), (
                        group.cyclic_orders,
                        H.elements,
                    )
                    checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 47
    assert elapsed < 120.0, f"{elapsed:.2f}s"
    print(f"criterion 6: PASS ({checked} (group, H) pairs agree, {elapsed:.2f}s)")


def _partition_count(n: int) -> int:
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def test_criterion_7_algebra_property_suite():
    start = time.perf_counter()
    rng = random.Random(90125)
    pool = [2, 3, 4, 5, 6, 7, 8, 9, 12]
    for _ in range(1000):
        g = make_group([rng.choice(pool) for _ in range(rng.randint(1, 3))])
        o = g.cyclic_orders
        elems = g.elements()
        a, b = rng.choice(elems), rng.choice(elems)
        assert add(o, a, b) == add(o, b, a)
        assert add(o, a, neg(o, a)) == (0,) * len(g.cyclic_orders)
        assert g.order % element_order(o, a) == 0
        assert elems[g.index_of(a)] == a
        # the index arithmetic agrees with the coordinate oracle
        x, y = g.index_of(a), g.index_of(b)
        assert g.translation(y)[x] == g.translation(x)[y] == index(o, add(o, a, b))
        assert g.negs[x] == index(o, neg(o, a))
    for order in range(2, 129):
        expected = prod(_partition_count(e) for _, e in factorize(order))
        assert len(enumerate_abelian_groups(order)) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    print(f"criterion 7: PASS (1000 random checks + class counts, {elapsed:.2f}s)")


def test_criterion_8_reruns_are_byte_identical():
    first = {
        "p5": _prime_power_artifacts(5),
        "p13": _prime_power_artifacts(13),
        "doubling": _doubling_artifacts(),
        "certify": tuple(_certification_artifacts(m, 2) for m in (3, 5, 7)),
    }
    second = {
        "p5": _prime_power_artifacts(5),
        "p13": _prime_power_artifacts(13),
        "doubling": _doubling_artifacts(),
        "certify": tuple(_certification_artifacts(m, 2) for m in (3, 5, 7)),
    }
    assert first == second
    print("criterion 8: PASS (constructed artifacts identical across runs)")


# sha256 of the developed factorizations and of the p = 13 edge list, as
# the edge-at-a-time develop, payload and edge-list writer first wrote them.
_ARTIFACT_SHA256 = {
    "factorization p=5": "ad33ae6f39c1e56438ed9bce835d388d2020012c6f3a1232d56da46c07642e44",
    "factorization p=13": "e012b1dd86636a3239680ef56c6d527a37478cc60addbe2a989f1e0249c337d1",
    "doubled 4x6 factorization": "6dc05420ec16dacf67b288196ba7970c951d4e07805a23dc631008df1bb605a6",
    "edge list p=13": "668b681d533a8e423ad9a7e8aa8772869138f7105739f675c8e2d99a2851e4e2",
}


def test_artifact_bytes_are_pinned():
    texts = {
        "factorization p=5": _prime_power_artifacts(5)[1],
        "factorization p=13": _prime_power_artifacts(13)[1],
        "doubled 4x6 factorization": _doubling_artifacts()[1],
        "edge list p=13": export_edge_list(construct_prime_power(13, 2).model),
    }
    digests = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}
    assert digests == _ARTIFACT_SHA256
