"""Starter verification, development, invariance, and JSON round-trips."""

from __future__ import annotations

import json
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    COMPOSITE_ORDERS,
    every_translation_invariant,
    models_of_order,
    reference_verify_starter,
)
from starfact.cayley import build_model
from starfact.constructions import construct_prime_power
from starfact.groups import (
    AbelianGroup,
    enumerate_abelian_groups,
    factorize,
    make_group,
    subgroups_of_order,
)
from starfact.search import search_starter
from starfact.serialize import (
    canonical_json,
    factorization_from_payload,
    factorization_payload,
    starter_from_payload,
    starter_payload,
)
from starfact.starters import (
    InvalidStarterError,
    OneFactorization,
    Starter,
    StarterSet,
    check_invariance,
    develop_factorization,
    verify_factorization,
    verify_starter,
)


def _model(orders, h_gens):
    g = make_group(orders)
    return build_model(g.subgroup(h_gens))


def _golden_starter():
    """One long edge [0,1] with the index-2 companion over Z_4."""
    m = _model([4], [(2,)])
    sset = StarterSet((m.edge(0, 1),), m.group.subgroup([(2,)]))
    return Starter(m, (sset,))


def test_golden_starter_passes():
    report = verify_starter(_golden_starter())
    assert report.passed
    assert report.condition1.ok and report.condition2.ok and report.condition3.ok
    assert report.payload()["passed"] is True


def test_trivial_companion_breaks_transversal():
    m = _model([4], [(2,)])
    sset = StarterSet((m.edge(0, 1),), m.group.subgroup([]))
    report = verify_starter(Starter(m, (sset,)))
    assert not report.passed
    assert report.condition1.ok
    assert not report.condition2.ok
    assert any("coset of (2,)" in v for v in report.condition2.violations)


def test_duplicate_and_missing_differences_reported():
    m = _model([4], [(2,)])
    comp = m.group.subgroup([(2,)])
    e = m.edge(0, 1)
    report = verify_starter(Starter(m, (StarterSet((e,), comp), StarterSet((e,), comp))))
    assert not report.condition1.ok
    assert any("covered 2 times" in v for v in report.condition1.violations)

    m6 = _model([6], [(3,)])
    sset = StarterSet((m6.edge(0, 1),), m6.group.subgroup([(3,)]))
    report = verify_starter(Starter(m6, (sset,)))
    assert any("not covered" in v for v in report.condition1.violations)


def test_illegal_edge_reported_not_thrown():
    m = _model([4], [(2,)])
    bad = m.pair(0, 2)  # difference lies in H
    report = verify_starter(Starter(m, (StarterSet((bad,), m.group.subgroup([(2,)])),)))
    assert not report.passed
    assert any("illegal" in v for v in report.condition1.violations)


def test_short_edge_companion_membership():
    m = _model([2, 2], [(1, 0)])
    short = m.edge(0, 1)  # (0, 0) ~ (0, 1)
    inside = StarterSet((short,), m.group.subgroups[-1])
    outside = StarterSet((short,), m.group.subgroup([(1, 0)]))
    assert verify_starter(Starter(m, (inside,))).condition3.ok
    verdict = verify_starter(Starter(m, (outside,))).condition3
    assert not verdict.ok
    assert "outside its companion" in verdict.violations[0]


def test_develop_golden():
    fact = develop_factorization(_golden_starter())
    assert fact.factors == (((0, 1), (2, 3)), ((0, 3), (1, 2)))
    report = verify_factorization(fact)
    assert report.passed
    assert check_invariance(fact)
    assert every_translation_invariant(fact)


def test_develop_rejects_invalid_starter():
    m = _model([4], [(2,)])
    broken = Starter(m, (StarterSet((m.edge(0, 1),), m.group.subgroup([])),))
    with pytest.raises(InvalidStarterError) as exc:
        develop_factorization(broken)
    assert exc.value.report.passed is False


def test_develop_is_deterministic():
    a = canonical_json(factorization_payload(develop_factorization(_golden_starter())))
    b = canonical_json(factorization_payload(develop_factorization(_golden_starter())))
    assert a == b


def test_verify_factorization_failures():
    fact = develop_factorization(_golden_starter())
    m = fact.model

    missing = OneFactorization(m, fact.factors[:1])
    report = verify_factorization(missing)
    assert not report.passed
    assert not report.condition3.ok  # wrong factor count
    assert any("expected 2" in v for v in report.condition3.violations)

    doubled = OneFactorization(m, (fact.factors[0], fact.factors[0]))
    report = verify_factorization(doubled)
    assert not report.condition2.ok  # repeated edges

    tampered = OneFactorization(m, (fact.factors[0], fact.factors[0][:1]))
    report = verify_factorization(tampered)
    assert not report.condition1.ok  # uncovered vertices


def test_non_invariant_factor_set_detected():
    m = _model([4], [(2,)])
    lone = tuple(sorted((m.edge(0, 1), m.edge(2, 3))))
    fact = OneFactorization(m, (lone,))
    assert not check_invariance(fact)
    assert not every_translation_invariant(fact)


def test_starter_json_golden():
    text = canonical_json(starter_payload(_golden_starter()))
    assert text == (
        "{\n"
        '  "H_generators": [\n'
        "    [\n"
        "      2\n"
        "    ]\n"
        "  ],\n"
        '  "group": {\n'
        '    "cyclic_orders": [\n'
        "      4\n"
        "    ]\n"
        "  },\n"
        '  "sets": [\n'
        "    {\n"
        '      "edges": [\n'
        "        [\n"
        "          [\n"
        "            0\n"
        "          ],\n"
        "          [\n"
        "            1\n"
        "          ]\n"
        "        ]\n"
        "      ],\n"
        '      "subgroup_generators": [\n'
        "        [\n"
        "          2\n"
        "        ]\n"
        "      ]\n"
        "    }\n"
        "  ]\n"
        "}\n"
    )


def test_starter_roundtrip_preserves_provenance():
    base = _golden_starter()
    tagged = Starter(base.model, base.sets, provenance={"construction": "handmade"})
    payload = starter_payload(tagged)
    assert payload["construction"] == "handmade"
    back = starter_from_payload(json.loads(canonical_json(payload)))
    assert back.provenance == {"construction": "handmade"}
    assert back.sets[0].edges == tagged.sets[0].edges
    assert back.sets[0].subgroup.elements == tagged.sets[0].subgroup.elements
    assert verify_starter(back).passed


def test_factorization_payload_golden_and_roundtrip():
    fact = develop_factorization(_golden_starter())
    payload = json.loads(canonical_json(factorization_payload(fact)))
    assert payload == {
        "group": {"cyclic_orders": [4]},
        "H_generators": [[2]],
        "factors": [[[0, 1], [2, 3]], [[0, 3], [1, 2]]],
    }
    back = factorization_from_payload(payload)
    assert back.factors == fact.factors
    assert verify_factorization(back).passed


def test_bad_payloads_raise():
    with pytest.raises((KeyError, TypeError, ValueError)):
        starter_from_payload({"group": {"cyclic_orders": [4]}})
    with pytest.raises((KeyError, TypeError, ValueError)):
        factorization_from_payload({"factors": []})


def test_searched_witnesses_develop_cleanly():
    # development soundness over found starters on a few small models
    cases = [([4], [(2,)]), ([2, 2], [(0, 1)]), ([12], [(4,)]), ([12], [(6,)])]
    for orders, h_gens in cases:
        m = _model(orders, h_gens)
        outcome = search_starter(m)
        assert outcome.status == "found", (orders, h_gens)
        fact = develop_factorization(outcome.witness)
        assert len(fact.factors) == m.group.order - m.n
        assert verify_factorization(fact).passed
        assert every_translation_invariant(fact)


def _first_edge_moved(starter):
    """The starter with its first edge (u, v) moved to (u, v'), v' the least
    vertex in another part whose difference pair differs, or None when
    there is none (Omega is the one pair {v - u, u - v})."""
    model, group = starter.model, starter.model.group
    first = starter.sets[0]
    u, v = first.edges[0]
    coset = model.H.coset_of
    d = group.difference(u, v)
    others = [
        w
        for w in range(group.order)
        if coset[w] != coset[u] and group.difference(u, w) not in (d, group.negs[d])
    ]
    if not others:
        return None
    edges = tuple(sorted((model.pair(u, others[0]),) + first.edges[1:]))
    return Starter(model, (StarterSet(edges, first.subgroup),) + starter.sets[1:])


def test_every_small_witness_develops_cleanly():
    # Every (G, H) with |G| even and at most 24 and both m, n >= 2 is
    # searched at budget 5,000; each witness develops into a factorization
    # that verifies and that check_invariance, which translates by the
    # full subgroup's index generators, and the exhaustive oracle both
    # find invariant.  Moving its first edge leaves {v - u, u - v}
    # uncovered, so condition 1 must fail.
    statuses = {"found": 0, "none_exists": 0, "budget_exceeded": 0}
    moved = 0
    for order in range(4, 25, 2):
        for group in enumerate_abelian_groups(order):
            for n in range(2, order // 2 + 1):
                if order % n:
                    continue
                for H in subgroups_of_order(group, n):
                    outcome = search_starter(build_model(H), budget=5_000)
                    statuses[outcome.status] += 1
                    if outcome.witness is None:
                        continue
                    fact = develop_factorization(outcome.witness)
                    assert verify_factorization(fact).passed, (group, H)
                    assert check_invariance(fact), (group, H)
                    assert every_translation_invariant(fact), (group, H)
                    tampered = _first_edge_moved(outcome.witness)
                    if tampered is not None:
                        assert not verify_starter(tampered).condition1.ok, (group, H)
                        moved += 1
    assert statuses == {"found": 220, "none_exists": 8, "budget_exceeded": 9}
    assert moved == 219  # all but Z4 with H = <2>


def _mutations(fact):
    """Six altered copies of a developed factorization: its first factor
    duplicated, its first factor dropped, a factor whose last edge repeats
    its first, a factor missing its first edge, no factors, and every
    factor merged into one."""
    factors, model = fact.factors, fact.model
    first = factors[0]
    altered = [
        factors + (first,),
        factors[1:],
        (first[:-1] + first[:1],) + factors[1:],
        (first[1:],) + factors[1:],
        (),
        (tuple(sorted(chain.from_iterable(factors))),),
    ]
    return [OneFactorization(model, tuple(sorted(f))) for f in altered]


def test_check_invariance_matches_every_translation():
    # Every witness of a model with |G| even and at most 24, searched at
    # budget 5,000, and six mutations of each: check_invariance, which
    # tries the full subgroup's generators on mate lists (or, with a factor
    # that is no perfect matching, on sorted pairs), agrees with the oracle
    # that tries every translation.
    verdicts = [[0, 0] for _ in range(7)]
    for order in range(4, 25, 2):
        for model in models_of_order(order):
            outcome = search_starter(model, budget=5_000)
            if outcome.witness is None:
                continue
            fact = develop_factorization(outcome.witness)
            for k, case in enumerate([fact, *_mutations(fact)]):
                invariant = check_invariance(case)
                assert invariant == every_translation_invariant(case), (model.group, model.H, k)
                verdicts[k][invariant] += 1
    # [not invariant, invariant] per case.  Dropping a factor keeps the
    # rest invariant exactly when every translation fixes that factor; the
    # merged factor, the whole edge set, is fixed by every translation.
    assert verdicts == [[0, 220], [0, 220], [72, 148], [220, 0], [220, 0], [0, 220], [0, 220]]


def test_witness_json_round_trips_are_byte_stable():
    # Every search witness on a group of order <= 16, cyclic or not: the
    # starter JSON and the developed factorization JSON both survive a load
    # and a dump unchanged.  Moving the first edge (u, v) to (u, v'), with
    # v' the least vertex in another part whose difference pair differs,
    # leaves {v - u, u - v} uncovered, so condition 1 must fail.
    witnesses = []
    moved = 0
    for order in range(4, 17, 2):
        for group in enumerate_abelian_groups(order):
            for size in range(2, order):
                if order % size:
                    continue
                for H in subgroups_of_order(group, size):
                    outcome = search_starter(build_model(H))
                    if outcome.status != "found":
                        continue
                    primes = [p for n in group.cyclic_orders for p, _ in factorize(n)]
                    witnesses.append(len(set(primes)) < len(primes))  # non-cyclic
                    payload = json.loads(canonical_json(starter_payload(outcome.witness)))
                    back = starter_from_payload(payload)
                    assert canonical_json(starter_payload(back)) == canonical_json(payload)
                    fact = factorization_payload(develop_factorization(back))
                    again = factorization_payload(factorization_from_payload(fact))
                    assert canonical_json(again) == canonical_json(fact)
                    tampered = _first_edge_moved(back)
                    if tampered is not None:
                        assert not verify_starter(tampered).condition1.ok
                        moved += 1
    assert len(witnesses) == 154
    assert sum(witnesses) == 143
    assert moved == 153  # all but Z4 with H = <2>


def _small_witnesses():
    """The search witness of every model with 4 <= |G| <= 16 that has one."""
    out = []
    for order in range(4, 17):
        for group in enumerate_abelian_groups(order):
            for H in group.subgroups:
                if 2 <= H.order < order:
                    outcome = search_starter(build_model(H))
                    if outcome.status == "found":
                        out.append(outcome.witness)
    return out


def _tampered(starter):
    """Four tampered copies: the first edge (u, v) moved to (u, w), the first
    set duplicated, the first edge made illegal as (u, u + h) with h the
    least element of H but 0, and the first companion swapped for the next
    subgroup in the lattice."""
    model = starter.model
    group = model.group
    first, rest = starter.sets[0], starter.sets[1:]
    (u, v), edges = first.edges[0], first.edges[1:]
    w = (v + 1) % group.order
    if w == u:
        w = (w + 1) % group.order
    h = model.H.elements[1]
    subs = group.subgroups
    swapped = subs[(subs.index(first.subgroup) + 1) % len(subs)]

    def with_first(edge, companion=first.subgroup):
        sset = StarterSet(tuple(sorted((edge,) + edges)), companion)
        return Starter(model, (sset,) + rest)

    return [
        with_first(model.pair(u, w)),
        Starter(model, starter.sets + (first,)),
        with_first(model.pair(u, group.translation(u)[h])),
        with_first((u, v), swapped),
    ]


def test_verify_starter_matches_reference_on_witnesses_and_tampered_copies():
    # verify_starter reads each edge once; the reference checks each
    # condition in a pass of its own.  Reports agree message for message.
    witnesses = _small_witnesses()
    assert len(witnesses) == 154
    failed = [0] * 4
    for witness in witnesses:
        assert verify_starter(witness).payload() == reference_verify_starter(witness).payload()
        for k, starter in enumerate(_tampered(witness)):
            report = verify_starter(starter)
            assert report.payload() == reference_verify_starter(starter).payload()
            failed[k] += not report.passed
    assert failed == [154, 154, 154, 143]  # 11 swapped companions still work


_VERTEX = st.integers(0, 23)


@settings(max_examples=150, database=None, derandomize=True, deadline=None)
@given(
    order=st.sampled_from(COMPOSITE_ORDERS),
    pick=st.integers(0, 10**6),
    companions=st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
    edges=st.lists(st.tuples(st.integers(0, 3), _VERTEX, _VERTEX), max_size=24),
)
def test_verify_starter_matches_reference_on_random_sets(order, pick, companions, edges):
    # Random edge sets on a random model with |G| <= 24, legal or not, with
    # random companions: every message and its order match the reference.
    # Each draw picks from its list modulo the list's length.
    models = models_of_order(order)
    model = models[pick % len(models)]
    subgroups = model.group.subgroups
    sets = [[] for _ in companions]
    for i, u, v in edges:
        u, v = u % order, v % order
        if u != v:
            sets[i % len(sets)].append(model.pair(u, v))
    starter = Starter(
        model,
        tuple(
            StarterSet(tuple(sorted(es)), subgroups[c % len(subgroups)])
            for es, c in zip(sets, companions)
        ),
    )
    assert verify_starter(starter).payload() == reference_verify_starter(starter).payload()


def test_verify_starter_reads_each_difference_once(monkeypatch):
    starter = construct_prime_power(5, 2)
    edges = sum(len(sset.edges) for sset in starter.sets)
    calls = 0
    difference = AbelianGroup.difference

    def counted(self, u, v):
        nonlocal calls
        calls += 1
        return difference(self, u, v)

    monkeypatch.setattr(AbelianGroup, "difference", counted)
    assert verify_starter(starter).passed
    assert calls == edges
    calls = 0
    assert reference_verify_starter(starter).passed
    assert calls == 3 * edges
