"""JSON wire formats for groups, starters, and factorizations.

Every artifact is written by canonical_json, whose text is byte for byte
that of json.dumps(payload, indent=2, sort_keys=True) plus a newline, so
identical inputs give identical files.  Starter edges are written in
coordinates and factorization edges as [u, v] vertex-index pairs; the
starter format converts here.
"""

from __future__ import annotations

import json
from itertools import chain

from .cayley import CayleyModel, build_model
from .groups import AbelianGroup, Subgroup, make_group, subgroup_from_generators
from .starters import OneFactorization, Starter, StarterSet

__all__ = [
    "canonical_json",
    "group_payload",
    "group_from_payload",
    "generators_payload",
    "starter_payload",
    "starter_from_payload",
    "factorization_payload",
    "factorization_from_payload",
]

_STARTER_CORE_KEYS = {"group", "H_generators", "sets"}


class _Unhandled(Exception):
    """A value _encode leaves to json.dumps."""


def canonical_json(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) + "\n", byte for byte.

    The indenting encoder of json is pure Python, one generator step per
    value.  _encode writes the same text but joins a list of ints, or a
    list of int lists (a factor), in one step.  It knows str-keyed dicts,
    lists, tuples, str, int, float, bool and None; a payload holding any
    other value, a subclass of one of these included, goes to json.dumps
    whole, as does one nested too deep to recurse, so its text or its
    error is the json module's."""
    try:
        return _encode(payload, "\n") + "\n"
    except (_Unhandled, RecursionError):
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _encode(x, newline: str) -> str:
    """x as json.dumps(x, indent=2, sort_keys=True) writes it at the depth
    whose line break plus indent is newline."""
    kind = type(x)
    if kind is list or kind is tuple:
        if not x:
            return "[]"
        inner = newline + "  "
        sep = "," + inner
        types = set(map(type, x))
        if types == {int}:
            body = sep.join(map(str, x))
        elif (
            types == {list}
            and x[0]
            and len(set(map(len, x))) == 1
            and set(map(type, chain.from_iterable(x))) == {int}
        ):
            # Int lists of one length share one template: a factor's edges.
            deeper = inner + "  "
            line = "[" + deeper + ("," + deeper).join(["%d"] * len(x[0])) + inner + "]"
            body = sep.join(map(line.__mod__, map(tuple, x)))
        else:
            body = sep.join([_encode(e, inner) for e in x])
        return "[" + inner + body + newline + "]"
    if kind is dict:
        if not x:
            return "{}"
        if set(map(type, x)) != {str}:
            raise _Unhandled
        inner = newline + "  "
        items = [json.dumps(k) + ": " + _encode(x[k], inner) for k in sorted(x)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is int:
        return str(x)
    if kind is str or kind is float or kind is bool or x is None:
        return json.dumps(x)
    raise _Unhandled


def group_payload(group: AbelianGroup) -> dict:
    return {"cyclic_orders": list(group.cyclic_orders)}


def group_from_payload(payload: dict) -> AbelianGroup:
    return make_group(payload["cyclic_orders"])


def generators_payload(sub: Subgroup) -> list[list[int]]:
    """The wire format of a subgroup: its generators as coordinate lists."""
    return [list(g) for g in sub.generators]


def starter_payload(starter: Starter) -> dict:
    el = starter.model.group.elements()
    payload = {
        "group": group_payload(starter.model.group),
        "H_generators": generators_payload(starter.model.H),
        "sets": [
            {
                "subgroup_generators": generators_payload(sset.subgroup),
                "edges": [[list(el[u]), list(el[v])] for u, v in sset.edges],
            }
            for sset in starter.sets
        ],
    }
    if starter.provenance:
        for key, value in starter.provenance.items():
            if key not in _STARTER_CORE_KEYS:
                payload[key] = value
    return payload


def _model_from_payload(payload: dict) -> CayleyModel:
    """The model of a starter or factorization payload: its group, then H."""
    group = group_from_payload(payload["group"])
    return build_model(group, subgroup_from_generators(group, payload["H_generators"]))


def starter_from_payload(payload: dict) -> Starter:
    model = _model_from_payload(payload)
    group = model.group
    index = group.index_of
    pair = model.pair
    sets = []
    for raw in payload["sets"]:
        sub = subgroup_from_generators(group, raw["subgroup_generators"])
        edges = (pair(index(u), index(v)) for u, v in raw["edges"])
        sets.append(StarterSet(tuple(sorted(edges)), sub))
    provenance = {k: v for k, v in payload.items() if k not in _STARTER_CORE_KEYS}
    return Starter(model, tuple(sets), provenance or None)


def factorization_payload(fact: OneFactorization) -> dict:
    return {
        "group": group_payload(fact.model.group),
        "H_generators": generators_payload(fact.model.H),
        "factors": [[[u, v] for u, v in factor] for factor in fact.factors],
    }


def factorization_from_payload(payload: dict) -> OneFactorization:
    """Each edge passes the index checks of CayleyModel.pair, in input
    order, and becomes an ascending (u, v) pair; legality is left to
    verify_factorization, which reports it."""
    model = _model_from_payload(payload)
    pair = model.pair
    factors = [tuple(sorted([pair(u, v) for u, v in raw])) for raw in payload["factors"]]
    return OneFactorization(model, tuple(sorted(factors)))
