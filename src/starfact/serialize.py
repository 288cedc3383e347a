"""JSON wire formats for groups, starters, and factorizations.

All emitters go through canonical_json so repeated single-worker runs
produce byte-identical artifacts.  Starter edges are written in coordinates
and factorization edges as vertex indices; the starter format converts here.
"""

from __future__ import annotations

import json

from .cayley import build_model
from .groups import AbelianGroup, Subgroup, make_group, subgroup_from_generators
from .starters import OneFactorization, Starter, StarterSet

__all__ = [
    "canonical_json",
    "group_payload",
    "group_from_payload",
    "starter_payload",
    "starter_from_payload",
    "factorization_payload",
    "factorization_from_payload",
]

_STARTER_CORE_KEYS = {"group", "H_generators", "sets"}


def canonical_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def group_payload(group: AbelianGroup) -> dict:
    return {"cyclic_orders": list(group.cyclic_orders)}


def group_from_payload(payload: dict) -> AbelianGroup:
    return make_group(payload["cyclic_orders"])


def _gens_payload(sub: Subgroup) -> list[list[int]]:
    return [list(g) for g in sub.generators]


def starter_payload(starter: Starter) -> dict:
    el = starter.model.group.elements()
    payload = {
        "group": group_payload(starter.model.group),
        "H_generators": _gens_payload(starter.model.H),
        "sets": [
            {
                "subgroup_generators": _gens_payload(sset.subgroup),
                "edges": [[list(el[e.u]), list(el[e.v])] for e in sset.edges],
            }
            for sset in starter.sets
        ],
    }
    if starter.provenance:
        for key, value in starter.provenance.items():
            if key not in _STARTER_CORE_KEYS:
                payload[key] = value
    return payload


def starter_from_payload(payload: dict) -> Starter:
    group = group_from_payload(payload["group"])
    H = subgroup_from_generators(group, payload["H_generators"])
    model = build_model(group, H)
    index = group.index_of
    sets = []
    for raw in payload["sets"]:
        sub = subgroup_from_generators(group, raw["subgroup_generators"])
        edges = (model.edge_unchecked(index(u), index(v)) for u, v in raw["edges"])
        sets.append(StarterSet(tuple(sorted(edges)), sub))
    provenance = {k: v for k, v in payload.items() if k not in _STARTER_CORE_KEYS}
    return Starter(model, tuple(sets), provenance or None)


def factorization_payload(fact: OneFactorization) -> dict:
    return {
        "group": group_payload(fact.model.group),
        "H_generators": _gens_payload(fact.model.H),
        "factors": [[[e.u, e.v] for e in factor] for factor in fact.factors],
    }


def factorization_from_payload(payload: dict) -> OneFactorization:
    group = group_from_payload(payload["group"])
    H = subgroup_from_generators(group, payload["H_generators"])
    model = build_model(group, H)
    factors = []
    for raw in payload["factors"]:
        factors.append(tuple(sorted(model.edge_unchecked(i, j) for i, j in raw)))
    return OneFactorization(model, tuple(sorted(factors)))
