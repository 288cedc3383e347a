"""canonical_json writes exactly what json.dumps(indent=2, sort_keys=True)
writes, plus a newline, on every artifact the package emits and on the
values its fast paths must leave alone."""

from __future__ import annotations

import enum
import json
import math
import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starfact.cayley import build_model
from starfact.cli import main
from starfact.constructions import classify_existence, construct_prime_power, double_starter
from starfact.groups import make_group
from starfact.search import certify_nonexistence, search_starter
from starfact.serialize import (
    canonical_json,
    canonical_parts,
    factorization_from_payload,
    factorization_payload,
    starter_payload,
)
from starfact.starters import (
    OneFactorization,
    Starter,
    StarterSet,
    develop_factorization,
    verify_starter,
)


def _reference(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _written(payload) -> str:
    """The text cli.main writes: the parts of canonical_parts, each a str,
    in order."""
    parts = canonical_parts(payload)
    assert all(type(part) is str for part in parts)
    return "".join(parts)


def _artifacts():
    out = {}
    for p in (5, 13):
        starter = construct_prime_power(p, 2)
        out[f"starter p={p}"] = starter_payload(starter)
        out[f"factorization p={p}"] = factorization_payload(develop_factorization(starter))
    g = make_group([12])
    doubled = double_starter(search_starter(build_model(g.subgroup([(4,)]))).witness)
    out["doubled witness"] = starter_payload(doubled)
    out["doubled factorization"] = factorization_payload(develop_factorization(doubled))
    out["certify"] = certify_nonexistence(3, 4, budget=20000).payload()
    g = make_group([2, 6])
    model = build_model(g.subgroup([(1, 0)]))
    out["search"] = search_starter(model).payload()
    out["search, all"] = search_starter(model, mode="all", budget=300).payload()
    out["classify"] = classify_existence(7, 6).payload()
    m = build_model(make_group([4]).subgroup([(2,)]))
    broken = Starter(m, (StarterSet((m.edge(0, 1),), m.group.subgroup([])),))
    out["verify report"] = verify_starter(broken).payload()
    return out


def test_every_artifact_matches_json_dumps(tmp_path):
    for name, payload in _artifacts().items():
        assert canonical_json(payload) == _reference(payload), name
    # groups --subgroups builds its payload inside the command
    out = tmp_path / "groups.json"
    assert main(["groups", "--order", "12", "--subgroups", "-o", str(out)]) == 0
    assert out.read_text() == _reference(json.loads(out.read_text()))


class _Small(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {},
        [[], [1]],
        [[1], []],
        [[1], [2, 3]],
        [[1, 2], [3, True]],
        [1, True, 2],
        [False],
        [None, 1],
        [1.5, 2],
        [[1, 2], [3, 4.0]],
        [[1, 2], (3, 4)],
        ((1, 2), (3, 4)),
        [-3, 10**30, 0],
        {"b": [], "a": {}, "c": [[]]},
        {"naïve": "€ and 😀", "quote\"d": 'back\\slash\n"tab"\t'},
        None,
        1.5,
        float("nan"),
        [float("inf"), -0.0],
        True,
        "",
        {"x": [_Small.ONE, 2]},
        [1, _Small.ONE],
        {1: "int key"},
        OrderedDict([("b", 1), ("a", 2)]),
        {"nested": [{"deep": [[[1, 2]], [[3]]]}]},
        pytest.param(((1, 2), (3, True)), id="tuple-rows-with-a-bool"),
        pytest.param(((1, 2), (3,)), id="tuple-rows-of-two-lengths"),
        pytest.param([(1, 2), [3, 4]], id="tuple-and-list-rows"),
    ],
)
def test_edge_cases_match_json_dumps(payload):
    assert canonical_json(payload) == _reference(payload)


def test_true_in_an_int_list_prints_true():
    # bool is a subclass of int; the int fast paths test the exact type
    assert canonical_json([1, True]) == "[\n  1,\n  true\n]\n"
    assert canonical_json([[0, 1], [True, 2]]).count("true") == 1


def test_unserializable_payloads_fail_as_json_dumps_does():
    loop: list = []
    loop.append(loop)
    for payload in ({"a": object()}, {(1, 2): 3}, loop):
        with pytest.raises((TypeError, ValueError)) as ours:
            canonical_json(payload)
        with pytest.raises((TypeError, ValueError)) as theirs:
            _reference(payload)
        assert (type(ours.value), str(ours.value)) == (type(theirs.value), str(theirs.value))


def _random_value(rng: random.Random, depth: int):
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        return rng.choice([
            rng.randrange(-1000, 1000), rng.choice([True, False, None]),
            rng.uniform(-10, 10), rng.choice(["", "a", "é", '"', "\\", " "]),
        ])
    if roll < 0.45:  # an int list, the first fast path
        return [rng.randrange(100) for _ in range(rng.randrange(4))]
    if roll < 0.6:  # int rows of one length, the second, now and then spoiled
        k = rng.randrange(1, 3)
        rows = [[rng.randrange(100) for _ in range(k)] for _ in range(rng.randrange(1, 4))]
        if rng.random() < 0.3:
            rows[rng.randrange(len(rows))][0] = rng.choice([True, 1.0, None, "1", []])
        if rng.random() < 0.4:  # all tuples, as a factorization's factors are
            rows = [tuple(row) for row in rows]
        return rows
    if roll < 0.8:
        return [_random_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {rng.choice("abcdé\"") * rng.randrange(1, 3): _random_value(rng, depth + 1)
            for _ in range(rng.randrange(4))}


def test_random_payloads_match_json_dumps():
    rng = random.Random(20261018)
    for _ in range(3000):
        payload = _random_value(rng, 0)
        assert canonical_json(payload) == _reference(payload), payload
        assert _written(payload) == _reference(payload), payload


# JSON values.  nan and the infinities are drawn on their own too, since
# st.floats() seldom gives them; the int pairs, as lists or left as tuples,
# feed the writer's fast path for int rows of one length, with now and then
# a bool among the ints.  Text draws from characters json escapes or writes
# as they are, a lone surrogate included.
_ints = st.integers()
_pairs = st.tuples(_ints | st.booleans(), _ints)
_text = st.text(st.sampled_from('a"\\/\n\t\x00\x7f\u00e9\u20ac\u2028\U0001f600\ud800'))
_json_values = st.recursive(
    st.none()
    | st.booleans()
    | _ints
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | _text
    | st.lists(_pairs.map(list))
    | st.lists(_pairs),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_text, children, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, database=None, derandomize=True, deadline=None)
@given(_json_values)
def test_generated_payloads_match_json_dumps(payload):
    assert canonical_json(payload) == _reference(payload)
    assert _written(payload) == _reference(payload)


def test_factorization_loads_the_same_in_any_order():
    # The loader sorts the edges of each factor and then the factors, so a
    # developed p = 5 document with both orders shuffled loads to the
    # canonical factors and mate tuples; a document with a factor that is
    # no perfect matching loads to its sorted pairs.
    fact = develop_factorization(construct_prime_power(5, 2))
    doc = json.loads(canonical_json(factorization_payload(fact)))
    rng = random.Random(29)
    factors = [rng.sample(f, len(f)) for f in doc["factors"]]
    rng.shuffle(factors)
    shuffled = {**doc, "factors": factors}
    canonical = factorization_from_payload(doc)
    loaded = factorization_from_payload(shuffled)
    assert loaded.factors == canonical.factors == fact.factors
    assert loaded.mates == canonical.mates == fact.mates
    assert OneFactorization(fact.model, fact.factors).mates == fact.mates

    factors[7].pop()
    expected = tuple(sorted(tuple(sorted(map(tuple, f))) for f in shuffled["factors"]))
    loaded = factorization_from_payload(shuffled)
    assert loaded.factors == expected
    assert loaded.mates.count(None) == 1
