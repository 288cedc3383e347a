"""JSON wire formats for groups, starters, and factorizations.

Every artifact is encoded by canonical_parts, whose parts join to the text
of json.dumps(payload, indent=2, sort_keys=True) plus a newline, byte for
byte, so identical inputs give identical files.  A factor is one part, and
the command line writes the parts one by one, so a large factorization's
text is never held whole; canonical_json joins them for a caller that
wants one str.  Starter edges are written in coordinates, converted here,
and factorization edges as [u, v] vertex-index pairs, straight from the
factorization's own (u, v) tuples.  A factorization document whose
factors are all perfect matchings of in-range [u, v] lists loads as mate
tuples alone, with no pair tuple made; any other loads as pairs.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import lt

from .cayley import CayleyModel, build_model
from .groups import AbelianGroup, Subgroup, make_group, subgroup_from_generators
from .starters import OneFactorization, Starter, StarterSet, _mate_tuple

__all__ = [
    "canonical_parts",
    "group_payload",
    "generators_payload",
    "starter_payload",
    "starter_from_payload",
    "factorization_payload",
    "factorization_from_payload",
]

_STARTER_CORE_KEYS = {"group", "H_generators", "sets"}


class _Unhandled(Exception):
    """A value _encode leaves to json.dumps."""


def canonical_parts(payload) -> list[str]:
    """The text of json.dumps(payload, indent=2, sort_keys=True) + "\n",
    byte for byte, as a list of parts in order: one per factor or other
    list of ints or int rows, plus the small pieces between.  A writer that
    sends them one by one never holds the artifact's text whole.

    The indenting encoder of json is pure Python, one generator step per
    value.  _encode writes the same text but joins a list of ints, or a
    list of int rows (a factor, as lists or tuples), in one step.  It knows
    str-keyed dicts, lists, tuples (written as arrays), str, int, float,
    bool and None; a payload holding any other value, a subclass of one of
    these included, goes to json.dumps whole, as does one nested too deep
    to recurse, so its text or its error is the json module's."""
    parts: list[str] = []
    try:
        _encode(payload, "\n", parts)
    except (_Unhandled, RecursionError):
        return [json.dumps(payload, indent=2, sort_keys=True), "\n"]
    parts.append("\n")
    return parts


def canonical_json(payload) -> str:
    """The canonical text as one str, the parts of canonical_parts joined;
    the command line writes the parts instead."""
    return "".join(canonical_parts(payload))


def _encode(x, newline: str, out: list[str]) -> None:
    """Append x to out as json.dumps(x, indent=2, sort_keys=True) writes
    it, tuples as arrays, at the depth whose line break plus indent is
    newline.  A list of ints or of int rows is one part."""
    kind = type(x)
    if kind is list or kind is tuple:
        if not x:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "," + inner
        types = set(map(type, x))
        if types == {int}:
            body = sep.join(map(str, x))
        elif (
            types in ({list}, {tuple})
            and x[0]
            and len(set(map(len, x))) == 1
            and set(map(type, ints := tuple(chain.from_iterable(x)))) == {int}
        ):
            # Int rows of one length, all lists or all tuples, share one
            # template, so a factor's edges are written by one % over all.
            deeper = inner + "  "
            line = "[" + deeper + ("," + deeper).join(["%d"] * len(x[0])) + inner + "]"
            body = sep.join([line] * len(x)) % ints
        else:
            for i, e in enumerate(x):
                out.append(sep if i else "[" + inner)
                _encode(e, inner, out)
            out.append(newline + "]")
            return
        out.append("[" + inner + body + newline + "]")
        return
    if kind is dict:
        if not x:
            out.append("{}")
            return
        if set(map(type, x)) != {str}:
            raise _Unhandled
        inner = newline + "  "
        sep = "," + inner
        for i, k in enumerate(sorted(x)):
            out.append((sep if i else "{" + inner) + json.dumps(k) + ": ")
            _encode(x[k], inner, out)
        out.append(newline + "}")
        return
    if kind is int:
        out.append(str(x))
    elif kind is str or kind is float or kind is bool or x is None:
        out.append(json.dumps(x))
    else:
        raise _Unhandled


def group_payload(group: AbelianGroup) -> dict:
    return {"cyclic_orders": list(group.cyclic_orders)}


def generators_payload(sub: Subgroup) -> list[list[int]]:
    """The wire format of a subgroup: its generators as coordinate lists."""
    el = sub.group.elements()
    return [list(el[g]) for g in sub.generators]


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
    group = make_group(payload["group"]["cyclic_orders"])
    return build_model(subgroup_from_generators(group, payload["H_generators"]))


def starter_from_payload(payload: dict) -> Starter:
    model = _model_from_payload(payload)
    group = model.group
    index = group.index_of
    pair = model.pair
    sets = []
    companions: dict[tuple, Subgroup] = {}  # closed once per generator list
    for raw in payload["sets"]:
        gens = raw["subgroup_generators"]
        key = tuple(map(index, gens))
        sub = companions.get(key)
        if sub is None:
            sub = companions[key] = subgroup_from_generators(group, gens)
        edges = (pair(index(u), index(v)) for u, v in raw["edges"])
        sets.append(StarterSet(tuple(sorted(edges)), sub))
    provenance = {k: v for k, v in payload.items() if k not in _STARTER_CORE_KEYS}
    return Starter(model, tuple(sets), provenance or None)


def factorization_payload(fact: OneFactorization) -> dict:
    """The factorization's own factors, which canonical_parts writes as arrays."""
    return {
        "group": group_payload(fact.model.group),
        "H_generators": generators_payload(fact.model.H),
        "factors": fact.factors,
    }


def _in_range(raw, order: int) -> bool:
    """True when raw is a factor of [u, v] int lists with
    0 <= u < v < order, which passes the checks of CayleyModel.pair in
    bulk."""
    if type(raw) is not list or set(map(type, raw)) != {list} or set(map(len, raw)) != {2}:
        return False
    ends = list(chain.from_iterable(raw))
    us, vs = ends[::2], ends[1::2]
    return (
        set(map(type, ends)) == {int}
        and all(map(lt, us, vs))
        and 0 <= min(us)
        and max(vs) < order
    )


def factorization_from_payload(payload: dict) -> OneFactorization:
    """Each edge passes the index checks of CayleyModel.pair, in input
    order, and becomes an ascending (u, v) pair; legality is left to
    verify_factorization, which reports it.  When every factor passes the
    checks in bulk and is a perfect matching, the factorization is built
    from the factors' sorted mate tuples, and no pair tuple is made."""
    model = _model_from_payload(payload)
    order = model.group.order
    raws = payload["factors"]
    mates = []
    for raw in raws:
        mate = _mate_tuple(raw, order) if _in_range(raw, order) else None
        if mate is None:
            break
        mates.append(mate)
    else:
        return OneFactorization._from_mates(model, tuple(sorted(mates)))
    factors = []
    for raw in raws:
        # A factor that fails the checks in bulk goes edge by edge through
        # pair, which raises on the first fault.
        if _in_range(raw, order):
            factors.append(tuple(sorted(map(tuple, raw))))
        else:
            factors.append(tuple(sorted([model.pair(u, v) for u, v in raw])))
    return OneFactorization(model, tuple(sorted(factors)))
