"""Explicit constructions: the K_{p^v x 2} family, index-2 completion,
doubling, the parity certificate, and the existence classifier."""

from __future__ import annotations

import pytest

from starfact.cayley import build_model
from starfact.constructions import (
    ConstructionError,
    NonexistenceCertificate,
    PrimePowerParams,
    build_prime_power_starter,
    classify_existence,
    complete_via_index2,
    construct_prime_power,
    double_starter,
    parity_nonexistence,
)
from starfact.groups import make_group
from starfact.starters import (
    InvalidStarterError,
    Starter,
    StarterSet,
    check_invariance,
    develop_factorization,
    verify_factorization,
    verify_starter,
)


def test_params_validation():
    p = PrimePowerParams.validate(5, 2)
    assert (p.t, p.t_prime) == (1, 1)
    p13 = PrimePowerParams.validate(13, 2)
    assert (p13.t, p13.t_prime) == (3, 3)
    # t' tracks the exponent: (5^2 - 1)/4 = 6
    assert PrimePowerParams.validate(5, 3).t_prime == 6
    with pytest.raises(ValueError, match="not prime"):
        PrimePowerParams.validate(6, 2)
    with pytest.raises(ValueError, match="not congruent"):
        PrimePowerParams.validate(7, 2)
    with pytest.raises(ValueError, match="v must be"):
        PrimePowerParams.validate(5, 1)


def test_partial_family_shape_p5():
    partial, A = build_prime_power_starter(5, 2)
    assert list(partial.model.group.cyclic_orders) == [5, 5, 2]
    assert partial.model.H.sorted_elements == (0, 1)  # (0, 0, 0) and (0, 0, 1)
    assert A.order == 25
    # one special set, 2t' = 2 middle sets, one final set; five edges each
    # at p = 5 (3t + t - 1 + 2 = 5, 4t + 1 = 5, 4t' + 1 = 5)
    assert len(partial.sets) == 4
    assert [len(s.edges) for s in partial.sets] == [5, 5, 5, 5]
    # first three sets share the line companion, the final set the column one
    line = partial.model.group.subgroup([(1, 0, 0)])
    col = partial.model.group.subgroup([(0, 1, 0)])
    assert [s.subgroup for s in partial.sets] == [line, line, line, col]


def test_underdetermined_slots_resolved_p5():
    partial, _ = build_prime_power_starter(5, 2)
    res = partial.provenance["typo_resolutions"]
    assert res[0] == {"slot": "final_set_bridge_coordinate", "value": 0}
    # at p = 5 the printed columns collide with a middle set's difference,
    # so the lexicographic fallback kicks in
    assert res[1] == {
        "slot": "final_set_anchor_columns",
        "value": [0, 0],
        "printed": [2, 0],
    }


def test_underdetermined_slots_resolved_p13():
    partial, _ = build_prime_power_starter(13, 2)
    res = partial.provenance["typo_resolutions"]
    # the printed anchor columns survive at p = 13; only the blank third
    # coordinate needed filling
    assert res == [{"slot": "final_set_bridge_coordinate", "value": 0}]


def test_completion_p5():
    partial, A = build_prime_power_starter(5, 2)
    starter = complete_via_index2(partial.model, partial, A)
    assert len(starter.sets) == 8
    assert starter.provenance["completed_pairs"] == 4
    singles = starter.sets[4:]
    el = starter.model.group.elements()
    assert [el[s.edges[0][1]] for s in singles] == [
        (0, 2, 1),
        (1, 3, 1),
        (2, 0, 1),
        (2, 2, 1),
    ]
    for s in singles:
        assert len(s.edges) == 1
        assert s.edges[0][0] == 0  # the identity
        assert s.subgroup == A
    assert verify_starter(starter).passed


def test_construct_prime_power_p5_end_to_end():
    starter = construct_prime_power(5, 2)
    assert verify_starter(starter).passed
    fact = develop_factorization(starter)
    assert len(fact.factors) == 48
    assert all(len(f) == 25 for f in fact.factors)
    assert verify_factorization(starter.model, fact).passed
    assert check_invariance(starter.model, fact)


def test_construct_prime_power_p13_shape():
    starter = construct_prime_power(13, 2)
    # 1 special + 6 middle + 1 final + 64 completion singletons
    assert len(starter.sets) == 72
    assert starter.provenance["completed_pairs"] == 64
    final = starter.sets[7]
    assert len(final.edges) == 13
    assert final.subgroup.order == 13
    g = starter.model.group
    assert not any(g.difference(u, v) in g.involutions for u, v in final.edges)
    marked = [x for e in final.edges for x in e]
    assert len(marked) == 26  # all long, both endpoints marked
    assert verify_starter(starter).passed


def test_prime_power_rejects_bad_parameters():
    for p, v in [(7, 2), (6, 2), (5, 1)]:
        with pytest.raises(ValueError):
            construct_prime_power(p, v)


def test_completion_handles_involutions_and_passthrough():
    g = make_group([2, 2])
    model = build_model(g, g.subgroup([(0, 1)]))
    A = g.subgroup([(1, 0)])
    covered = StarterSet((model.edge(0, 2),), g.full_subgroup())  # (0, 0) ~ (1, 0)
    partial = Starter(model, (covered,))
    done = complete_via_index2(model, partial, A)
    assert len(done.sets) == 2
    extra = done.sets[1]
    assert extra.edges[0] == model.edge(0, 3)  # (0, 0) ~ (1, 1)
    # an uncovered involution cannot take A (short edges must keep their
    # difference inside the companion), so the full group steps in
    assert extra.subgroup.order == 4
    assert verify_starter(done).passed
    assert complete_via_index2(model, done, A) is done


def test_completion_error_paths():
    g = make_group([2, 2])
    model = build_model(g, g.subgroup([(0, 1)]))
    A = g.subgroup([(1, 0)])
    empty = Starter(model, ())
    with pytest.raises(ConstructionError, match="inside the index-2"):
        complete_via_index2(model, empty, A)  # (1, 0) uncovered but in A
    with pytest.raises(ValueError, match="index 2"):
        complete_via_index2(model, empty, g.full_subgroup())

    m4 = build_model(make_group([4]), make_group([4]).subgroup([(2,)]))
    e = m4.edge(0, 1)
    comp = m4.group.subgroup([(2,)])
    dup = Starter(m4, (StarterSet((e,), comp), StarterSet((e,), comp)))
    with pytest.raises(ConstructionError, match="repeats differences"):
        complete_via_index2(m4, dup, comp)


def test_doubling_golden():
    m4 = build_model(make_group([4]), make_group([4]).subgroup([(2,)]))
    base = Starter(m4, (StarterSet((m4.edge(0, 1),), m4.group.subgroup([(2,)])),))
    doubled = double_starter(base)
    assert list(doubled.model.group.cyclic_orders) == [4, 2]
    assert (doubled.model.m, doubled.model.n) == (2, 4)
    assert doubled.provenance == {"construction": "doubling"}
    assert len(doubled.sets) == 2
    assert all(s.subgroup.order == 4 for s in doubled.sets)
    # plain copy keeps differences in the 0 layer, mixed copy moves to 1
    g = doubled.model.group
    el = g.elements()
    plain_diffs = {el[g.difference(u, v)][-1] for u, v in doubled.sets[0].edges}
    mixed_diffs = {el[g.difference(u, v)][-1] for u, v in doubled.sets[1].edges}
    assert plain_diffs == {0}
    assert mixed_diffs == {1}
    assert verify_starter(doubled).passed
    fact = develop_factorization(doubled)
    assert len(fact.factors) == 4
    assert all(len(f) == 4 for f in fact.factors)
    assert check_invariance(doubled.model, fact, exhaustive=True)


def test_doubling_rejects_bad_input():
    m4 = build_model(make_group([4]), make_group([4]).subgroup([(2,)]))
    invalid = Starter(m4, (StarterSet((m4.edge(0, 1),), m4.group.subgroup([])),))
    with pytest.raises(InvalidStarterError):
        double_starter(invalid)
    base = Starter(m4, (StarterSet((m4.edge(0, 1),), m4.group.subgroup([(2,)])),))
    redoubled = double_starter(base)
    with pytest.raises(ValueError, match="cyclic"):
        double_starter(redoubled)


def test_parity_certificate_values():
    cert = parity_nonexistence(3, 2)
    assert isinstance(cert, NonexistenceCertificate)
    assert (cert.d, cert.type_zero_count, cert.residue_mod_4) == (1, 2, 2)
    assert cert.payload()["type"] == "parity_nonexistence"

    cert = parity_nonexistence(7, 6)
    assert (cert.d, cert.type_zero_count, cert.residue_mod_4) == (3, 18, 2)

    assert parity_nonexistence(11, 2).type_zero_count == 10
    assert parity_nonexistence(5, 2) is None  # m = 1 mod 4
    assert parity_nonexistence(3, 4) is None  # d even
    assert parity_nonexistence(3, 3) is None  # n odd


def test_parity_count_is_always_2_mod_4_when_applicable():
    for m in range(3, 40, 4):
        for d in range(1, 12, 2):
            cert = parity_nonexistence(m, 2 * d)
            assert cert is not None
            assert cert.type_zero_count == d * (m - 1)
            assert cert.residue_mod_4 == 2


def test_classification_table():
    expected = {
        (2, 2): ("exists", "both_twice_odd"),
        (2, 3): ("exists", "even_m_odd_n"),
        (2, 4): ("exists", "even_m_n_multiple_of_4"),
        (3, 2): ("not_exists", "parity_count"),
        (7, 2): ("not_exists", "parity_count"),
        (7, 6): ("not_exists", "parity_count"),
        (5, 2): ("not_exists", "prime_m_pairs"),
        (13, 2): ("not_exists", "prime_m_pairs"),
        (25, 2): ("exists", "prime_power_m_pairs"),
        (125, 2): ("exists", "prime_power_m_pairs"),
        (45, 2): ("exists", "composite_1mod4_pairs"),
        (12, 2): ("exists", "m_multiple_of_4"),
        (6, 2): ("exists", "both_twice_odd"),
        (5, 6): ("exists", "m_1mod4_n_twice_odd"),
        (9, 2): ("unknown", "no_rule"),
        (3, 4): ("unknown", "no_rule"),
        (3, 3): ("not_exists", "odd_vertex_count"),
        (5, 5): ("not_exists", "odd_vertex_count"),
    }
    for (m, n), (status, rule) in expected.items():
        verdict = classify_existence(m, n)
        assert (verdict.status, verdict.rule) == (status, rule), (m, n)
        payload = verdict.payload(m, n)
        assert payload["m"] == m and payload["n"] == n
        assert payload["status"] == status


def test_classification_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        classify_existence(1, 2)
    with pytest.raises(ValueError):
        classify_existence(2, 1)


def test_construction_error_carries_details():
    err = ConstructionError("boom", details=["a", "b"])
    assert err.details == ["a", "b"]
