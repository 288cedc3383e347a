"""Complete multipartite graphs K_{m x n} as Cayley graphs.

The graph on an abelian group G with a subgroup H of order n is
Cay(G, Omega) with Omega = G minus H; the m = |G|/n parts are the cosets
of H.  An edge is *short* when its endpoint difference is an involution
(both differences coincide) and *long* otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .groups import AbelianGroup, Element, Subgroup

__all__ = [
    "Edge",
    "CayleyModel",
    "build_model",
    "export_edge_list",
]

SHORT = "short"
LONG = "long"


class Edge(NamedTuple):
    """Unordered edge stored with u lexicographically below v."""

    u: Element
    v: Element
    kind: str


@dataclass(frozen=True)
class CayleyModel:
    """K_{m x n} given by (group, H); vertex parts are the cosets of H."""

    group: AbelianGroup
    H: Subgroup
    m: int
    n: int
    omega: frozenset[Element]

    @property
    def vertex_count(self) -> int:
        return self.group.order

    @property
    def edge_count(self) -> int:
        return self.group.order * len(self.omega) // 2

    def is_involution(self, d: Element) -> bool:
        return d in self.group.involutions

    def edge(self, u, v) -> Edge:
        """Canonical edge, validated against the model (difference in Omega)."""
        e = self.edge_unchecked(u, v)
        d = self.group.sub(e.u, e.v)
        if d not in self.omega:
            raise ValueError(f"illegal edge {e.u} ~ {e.v}: difference {d} lies in H")
        return e

    def edge_unchecked(self, u, v) -> Edge:
        """Canonical edge without the legality check; verifiers use this so
        that malformed input is reported rather than thrown."""
        u = self.group.element(u)
        v = self.group.element(v)
        if u == v:
            raise ValueError(f"degenerate edge at {u}")
        if v < u:
            u, v = v, u
        kind = SHORT if self.is_involution(self.group.sub(u, v)) else LONG
        return Edge(u, v, kind)

    def edge_difference(self, e: Edge) -> frozenset[Element]:
        """{u-v, v-u} for a long edge, the single involution for a short one."""
        d = self.group.sub(e.u, e.v)
        if d not in self.omega:
            raise ValueError(f"illegal edge {e.u} ~ {e.v}: difference {d} lies in H")
        return frozenset({d, self.group.neg(d)})

    def edge_vertices(self, e: Edge) -> frozenset[Element]:
        """Marked endpoints: both endpoints for a long edge; the canonical
        (lesser) endpoint for a short one.  Either endpoint of a short edge
        lies in the same coset of any subgroup containing its difference, so
        the choice is safe.  No legality check, so verifiers can report an
        illegal edge's other faults too."""
        if e.kind == SHORT:
            return frozenset({e.u})
        return frozenset({e.u, e.v})

    def translate_edge(self, e: Edge, g: Element) -> Edge:
        u = self.group.add(e.u, g)
        v = self.group.add(e.v, g)
        if v < u:
            u, v = v, u
        return Edge(u, v, e.kind)

    @cached_property
    def all_edges(self) -> tuple[Edge, ...]:
        out = []
        for u in self.group.elements():
            for d in sorted(self.omega):
                v = self.group.add(u, d)
                if u < v:
                    kind = SHORT if self.is_involution(d) else LONG
                    out.append(Edge(u, v, kind))
        out.sort()
        return tuple(out)

    def edge_index_pairs(self) -> list[tuple[int, int]]:
        """Edges as (vertex index, vertex index) pairs, ascending."""
        gi = self.group.vertex_index
        pairs = [tuple(sorted((gi(e.u), gi(e.v)))) for e in self.all_edges]
        pairs.sort()
        return pairs

    def parts(self) -> list[frozenset[Element]]:
        """The m vertex classes, one per coset of H."""
        parts: list[list[Element]] = [[] for _ in range(self.m)]
        for a, c in zip(self.group.elements(), self.H.coset_of):
            parts[c].append(a)
        return [frozenset(p) for p in parts]


def build_model(group: AbelianGroup, H: Subgroup) -> CayleyModel:
    """Validate (group, H) and assemble the multipartite model."""
    if H.group.cyclic_orders != group.cyclic_orders:
        raise ValueError("H is not a subgroup of the given group")
    if H.order < 2:
        raise ValueError("H must have order at least 2 (parts of size >= 2)")
    if H.order >= group.order:
        raise ValueError("H must be a proper subgroup")
    omega = frozenset(a for a in group.elements() if a not in H.elements)
    return CayleyModel(
        group=group,
        H=H,
        m=group.order // H.order,
        n=H.order,
        omega=omega,
    )


def export_edge_list(model: CayleyModel) -> str:
    """Plain-text edge list: one 'i j' line per edge, ascending, using the
    mixed-radix vertex indexing."""
    lines = [f"{i} {j}" for i, j in model.edge_index_pairs()]
    return "\n".join(lines) + "\n"
