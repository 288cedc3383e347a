"""Complete multipartite graphs K_{m x n} as Cayley graphs.

The graph on an abelian group G with a subgroup H of order n is
Cay(G, Omega) with Omega = G minus H; the m = |G|/n parts are the cosets
of H.  An edge is an ascending (u, v) pair of vertex indices.  It is
*short* when its difference group.difference(u, v) is an involution (both
differences coincide) and *long* otherwise; the kind is read off the pair
where it matters and never stored.

Vertices, differences and edges are vertex indices (see groups); coordinate
tuples appear only in messages and in the starter JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .groups import AbelianGroup, Subgroup

__all__ = [
    "CayleyModel",
    "build_model",
    "export_edge_list",
]


@dataclass(frozen=True)
class CayleyModel:
    """K_{m x n} given by (group, H); vertex parts are the cosets of H.
    Vertices, differences and Omega are vertex indices."""

    group: AbelianGroup
    H: Subgroup
    m: int
    n: int
    omega: frozenset[int]

    @property
    def vertex_count(self) -> int:
        return self.group.order

    @property
    def edge_count(self) -> int:
        return self.group.order * len(self.omega) // 2

    def edge(self, u: int, v: int) -> tuple[int, int]:
        """The pair, validated against the model (ends in different parts)."""
        e = self.pair(u, v)
        self.edge_difference(e)  # raises ValueError for an illegal edge
        return e

    def pair(self, u: int, v: int) -> tuple[int, int]:
        """(u, v) in ascending order, after the index checks every edge read
        from input passes: each an exact int in range, and u != v.  No
        legality check, so verifiers can report an illegal edge rather
        than throw."""
        order = self.group.order
        for x in (u, v):
            if type(x) is not int:  # exactly int: no bool, float or str
                raise ValueError(f"vertex index must be an integer, got {x!r}")
            if not 0 <= x < order:
                raise ValueError("vertex index out of range")
        if u == v:
            raise ValueError(f"degenerate edge at {self.group.elements()[u]}")
        return (u, v) if u < v else (v, u)

    def edge_difference(self, e: tuple[int, int]) -> frozenset[int]:
        """{u-v, v-u} for a long edge (u, v), the single involution for a
        short one."""
        u, v = e
        d = self.group.difference(u, v)
        if d in self.H.elements:
            el = self.group.elements()
            raise ValueError(f"illegal edge {el[u]} ~ {el[v]}: difference {el[d]} lies in H")
        return frozenset({d, self.group.negs[d]})

    def neighbours_above(self):
        """(u, [v > u in another part]) for each vertex u in turn: every
        edge of the graph once, in ascending (u, v) order."""
        order = self.group.order
        coset = self.H.coset_of
        for u, cu in enumerate(coset):
            yield u, [v for v in range(u + 1, order) if coset[v] != cu]

    @cached_property
    def all_edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge as a (u, v) pair, ascending (neighbours_above)."""
        return tuple((u, v) for u, above in self.neighbours_above() for v in above)


def build_model(group: AbelianGroup, H: Subgroup) -> CayleyModel:
    """Validate (group, H) and assemble the multipartite model."""
    if H.group.cyclic_orders != group.cyclic_orders:
        raise ValueError("H is not a subgroup of the given group")
    if H.order < 2:
        raise ValueError("H must have order at least 2 (parts of size >= 2)")
    if H.order >= group.order:
        raise ValueError("H must be a proper subgroup")
    omega = frozenset(range(group.order)) - H.elements
    return CayleyModel(
        group=group,
        H=H,
        m=group.order // H.order,
        n=H.order,
        omega=omega,
    )


def export_edge_list(model: CayleyModel) -> str:
    """Plain-text edge list: one 'i j' line of vertex indices per edge,
    ascending; the pairs of all_edges without building the tuple."""
    names = [str(v) for v in range(model.group.order)]
    lines = []
    for u, above in model.neighbours_above():
        head = names[u] + " "
        lines.extend([head + names[v] for v in above])
    return "\n".join(lines) + "\n"
