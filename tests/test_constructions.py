"""Explicit constructions: the K_{p^v x 2} family and its completion,
doubling, the parity certificate, and the existence classifier."""

from __future__ import annotations

import hashlib

import pytest

from oracles import every_translation_invariant
from starfact import constructions, starters
from starfact.cayley import build_model
from starfact.constructions import (
    NonexistenceCertificate,
    classify_existence,
    construct_prime_power,
    double_starter,
    parity_nonexistence,
)
from starfact.groups import make_group
from starfact.serialize import canonical_json, starter_payload
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
    # t = (p - 1)/4 and t' = (p^(v-1) - 1)/4 show in the 2t' middle sets,
    # between the special set and the final set
    s5 = construct_prime_power(5, 2)
    assert len(s5.sets) - s5.provenance["completed_pairs"] == 1 + 2 + 1
    s13 = construct_prime_power(13, 2)
    assert len(s13.sets) - s13.provenance["completed_pairs"] == 1 + 6 + 1
    assert len(s13.sets[0].edges) == 3 * 3 + 3 - 1 + 2  # 3t + t - 1 + 2 at t = 3
    # t' tracks the exponent: (5^2 - 1)/4 = 6
    s53 = construct_prime_power(5, 3)
    assert len(s53.sets) - s53.provenance["completed_pairs"] == 1 + 12 + 1
    assert len(s53.sets[-s53.provenance["completed_pairs"] - 1].edges) == 4 * 6 + 1
    with pytest.raises(ValueError, match="not prime"):
        construct_prime_power(6, 2)
    with pytest.raises(ValueError, match="not congruent"):
        construct_prime_power(7, 2)
    with pytest.raises(ValueError, match="v must be"):
        construct_prime_power(5, 1)


def test_partial_family_shape_p5():
    starter = construct_prime_power(5, 2)
    family = starter.sets[:4]
    assert list(starter.model.group.cyclic_orders) == [5, 5, 2]
    assert starter.model.H.elements == (0, 1)  # (0, 0, 0) and (0, 0, 1)
    assert all(s.subgroup.order == 25 for s in starter.sets[4:])
    # one special set, 2t' = 2 middle sets, one final set; five edges each
    # at p = 5 (3t + t - 1 + 2 = 5, 4t + 1 = 5, 4t' + 1 = 5)
    assert [len(s.edges) for s in family] == [5, 5, 5, 5]
    # first three sets share the line companion, the final set the column one
    line = starter.model.group.subgroup([(1, 0, 0)])
    col = starter.model.group.subgroup([(0, 1, 0)])
    assert [s.subgroup for s in family] == [line, line, line, col]


def test_underdetermined_slots_resolved_p5():
    starter = construct_prime_power(5, 2)
    res = starter.provenance["typo_resolutions"]
    assert res[0] == {"slot": "final_set_bridge_coordinate", "value": 0}
    # at p = 5 the printed columns collide with a middle set's difference,
    # so the lexicographic fallback kicks in
    assert res[1] == {
        "slot": "final_set_anchor_columns",
        "value": [0, 0],
        "printed": [2, 0],
    }


def test_underdetermined_slots_resolved_p13():
    starter = construct_prime_power(13, 2)
    res = starter.provenance["typo_resolutions"]
    # the printed anchor columns survive at p = 13; only the blank third
    # coordinate needed filling
    assert res == [{"slot": "final_set_bridge_coordinate", "value": 0}]


def test_completion_p5():
    starter = construct_prime_power(5, 2)
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
    A = starter.model.group.subgroup([(1, 0, 0), (0, 1, 0)])
    for s in singles:
        assert len(s.edges) == 1
        assert s.edges[0][0] == 0  # the identity
        assert s.subgroup == A
    assert verify_starter(starter).passed


# canonical_json(starter_payload(...)) sha256 of the family beyond the
# benchmark's p = 5 and 17, so any change to the built bytes shows
_FAMILY_DIGESTS = {
    (5, 2): "d06ebecd837f50c8dff1d3a16b85c730a1c67a083b2f133ec6dc67d0c27dd742",
    (5, 3): "1bd99bcbdb94083f65782c57b881fe8c5459e117940e8199b8695bd2a4e1accd",
    (13, 2): "229d4afa5e117ea11007191aeed4c80957eef79ec774e5949bd5b6146c29e5ca",
    (17, 2): "504bbd42b216269145a50ae012920433c6a3f71feddfded9d10d37662a4ada76",
    (29, 2): "213b2ff95ee0cf234eaee3decb1863c2995fe9df08bee9a55cd15e87cba58c8f",
    (13, 3): "7570b2c6624bd895f445c1a892560ea06b45474ee924ebfe87587b1ddcdd6f5e",
    (37, 2): "342b0815008a117c77486ba61e6a9d01a00993fa6e368d21fb6bd93d3b266808",
}


@pytest.mark.parametrize("p, v", list(_FAMILY_DIGESTS))
def test_prime_power_family_is_pinned(p, v):
    starter = construct_prime_power(p, v)
    digest = hashlib.sha256(canonical_json(starter_payload(starter)).encode()).hexdigest()
    assert digest == _FAMILY_DIGESTS[(p, v)]
    # the family leaves (p^v - 2p^(v-1) - p - 2)/2 pairs for the singletons
    assert starter.provenance["completed_pairs"] == (p**v - 2 * p ** (v - 1) - p - 2) // 2
    assert verify_starter(starter).passed


def test_construct_prime_power_scans_each_candidate_twice(monkeypatch):
    # once to find the uncovered differences, once inside verify_starter
    calls = []
    real = starters.scan_sets

    def spy(model, sets):
        calls.append(len(sets))
        return real(model, sets)

    monkeypatch.setattr(starters, "scan_sets", spy)
    monkeypatch.setattr(constructions, "scan_sets", spy)
    starter = construct_prime_power(17, 2)
    assert calls == [len(starter.sets) - 118, len(starter.sets)]


def test_construct_prime_power_p5_end_to_end():
    starter = construct_prime_power(5, 2)
    assert verify_starter(starter).passed
    fact = develop_factorization(starter)
    assert len(fact.factors) == 48
    assert all(len(f) == 25 for f in fact.factors)
    assert verify_factorization(fact).passed
    assert check_invariance(fact)


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


def test_doubling_golden():
    m4 = build_model(make_group([4]).subgroup([(2,)]))
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
    assert every_translation_invariant(fact)


def test_doubling_rejects_bad_input():
    m4 = build_model(make_group([4]).subgroup([(2,)]))
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
        payload = verdict.payload()
        assert payload["m"] == m and payload["n"] == n
        assert payload["status"] == status


def test_classifier_bytes_are_pinned():
    # sha256 over the canonical payload of every (m, n) with m, n >= 2 and
    # mn <= 2000, m in the outer loop; the pin is the hash of the classify
    # command's artifacts over the same pairs, parity certificates included.
    digest = hashlib.sha256()
    rules = set()
    for m in range(2, 1001):
        for n in range(2, 2000 // m + 1):
            verdict = classify_existence(m, n)
            rules.add(verdict.rule)
            digest.update(canonical_json(verdict.payload()).encode())
    assert digest.hexdigest() == "e9bf564388e870f48c59be2b8e6233bf51d90ea402807631d1f340f8f9a7fe68"
    assert rules == set(constructions._RULES)


def test_classification_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        classify_existence(1, 2)
    with pytest.raises(ValueError):
        classify_existence(2, 1)
