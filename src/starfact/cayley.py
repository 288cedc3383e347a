"""Complete multipartite graphs K_{m x n} as Cayley graphs.

The graph on an abelian group G with a subgroup H of order n is
Cay(G, Omega) with Omega = G minus H; the m = |G|/n parts are the cosets
of H.  An edge is an ascending (u, v) pair of vertex indices.  It is
*short* when its difference group.difference(u, v) is an involution (both
differences coincide) and *long* otherwise; the kind is read off the pair
where it matters and never stored.  pair(u, v) checks the indices and
orders them; edge(u, v) also refuses a pair inside one coset of H, by
H.coset_of, and subtracts only to report the difference that lies in H.

Vertices, differences and edges are vertex indices (see groups); coordinate
tuples appear only in messages and in the starter JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import ne

from .groups import AbelianGroup, Subgroup

__all__ = [
    "CayleyModel",
    "build_model",
    "export_edge_list",
]


@dataclass(frozen=True)
class CayleyModel:
    """K_{m x n} given by (group, H); vertex parts are the cosets of H.
    Vertices, differences and Omega are vertex indices; omega is the
    ascending tuple of the vertices outside H, read off H.coset_of."""

    group: AbelianGroup
    H: Subgroup
    m: int
    n: int
    omega: tuple[int, ...]

    @property
    def edge_count(self) -> int:
        return self.group.order * len(self.omega) // 2

    def edge(self, u: int, v: int) -> tuple[int, int]:
        """The pair, validated against the model (ends in different parts)."""
        u, v = self.pair(u, v)
        coset = self.H.coset_of
        if coset[u] == coset[v]:
            el = self.group.elements()
            d = el[self.group.difference(u, v)]
            raise ValueError(f"illegal edge {el[u]} ~ {el[v]}: difference {d} lies in H")
        return u, v

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


def build_model(H: Subgroup) -> CayleyModel:
    """Validate H and assemble the multipartite model over H.group."""
    group = H.group
    if H.order < 2:
        raise ValueError("H must have order at least 2 (parts of size >= 2)")
    if H.order >= group.order:
        raise ValueError("H must be a proper subgroup")
    return CayleyModel(
        group=group,
        H=H,
        m=group.order // H.order,
        n=H.order,
        omega=tuple(compress(range(group.order), H.coset_of)),
    )


def export_edge_list(model: CayleyModel) -> str:
    """Plain-text edge list: one 'i j' line of vertex indices per edge,
    ascending; each vertex's edges to the vertices above it in other parts
    are joined as one block."""
    names = [str(v) for v in range(model.group.order)]
    coset = model.H.coset_of
    blocks = []
    for u, cu in enumerate(coset):
        above = list(compress(names[u + 1 :], map(ne, coset[u + 1 :], repeat(cu))))
        if above:
            head = names[u] + " "
            blocks.append(head + ("\n" + head).join(above))
    return "\n".join(blocks) + "\n"
