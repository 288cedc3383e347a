"""Exact arithmetic over finite abelian groups given as products of cyclic factors.

Elements are coordinate tuples reduced modulo the per-factor orders, and
each is named by its vertex index, its mixed-radix (lexicographic) rank; the
package works on indices, subgroup elements and generators included.
Coordinates are read only by AbelianGroup.index_of and written only to
starter JSON and messages, through elements().  Index order is lexicographic
coordinate order, so every set-valued result, sorted by index, comes back in
the same order at every run and output is reproducible byte for byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, prod

Element = tuple[int, ...]

__all__ = [
    "Element",
    "AbelianGroup",
    "Subgroup",
    "make_group",
    "subgroup_from_generators",
    "all_subgroups",
    "subgroups_of_order",
    "enumerate_abelian_groups",
    "factorize",
    "MAX_GROUP_ORDER",
    "check_group_order",
]

# The largest group order accepted.  A group keeps per-element tables
# (translation rows, negation, coset indices), so a larger order is refused
# with ValueError before any of them is allocated.
MAX_GROUP_ORDER = 1_000_000


def check_group_order(order: int, shown: str | None = None) -> None:
    """Refuse a group order above MAX_GROUP_ORDER with ValueError; the
    message writes the order as shown, when given, or as the number."""
    if order > MAX_GROUP_ORDER:
        raise ValueError(f"group order {shown or order} exceeds the maximum {MAX_GROUP_ORDER}")


@dataclass(frozen=True)
class AbelianGroup:
    """Direct product Z_{n1} x ... x Z_{nk}, each factor of order >= 2."""

    cyclic_orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(self.cyclic_orders)
        if any(type(n) is not int for n in orders):  # exactly int, as for coordinates
            raise ValueError(f"cyclic factor orders must be integers, got {orders!r}")
        if not orders:
            raise ValueError("a group needs at least one cyclic factor")
        if any(n < 2 for n in orders):
            raise ValueError(f"cyclic factor orders must be >= 2, got {orders}")
        order = prod(orders)
        check_group_order(order)
        object.__setattr__(self, "cyclic_orders", orders)

    @cached_property
    def order(self) -> int:
        return prod(self.cyclic_orders)

    @property
    def rank(self) -> int:
        return len(self.cyclic_orders)

    @cached_property
    def _elements(self) -> tuple[Element, ...]:
        return tuple(itertools.product(*(range(n) for n in self.cyclic_orders)))

    def elements(self) -> tuple[Element, ...]:
        """All group elements in lexicographic order."""
        return self._elements

    @cached_property
    def involutions(self) -> frozenset[int]:
        """Vertex indices of the elements of order exactly 2.  There are
        2^s - 1 of them, where s counts the even cyclic factors."""
        return frozenset(x for x, y in enumerate(self.negs) if x == y and x)

    def index_of(self, coords) -> int:
        """Vertex index of a sequence of integer coordinates, each reduced
        modulo its factor's order: the mixed-radix rank with the first
        factor most significant.  Input in coordinates converts here."""
        coords = tuple(coords)
        if len(coords) != len(self.cyclic_orders):
            raise ValueError(f"expected {len(self.cyclic_orders)} coordinates, got {coords!r}")
        if any(type(c) is not int for c in coords):  # exactly int: no bool, float or str
            raise ValueError(f"coordinates must be integers, got {coords!r}")
        idx = 0
        for c, n in zip(coords, self.cyclic_orders):
            idx = idx * n + c % n
        return idx

    def _per_coordinate(self, columns) -> list[int]:
        """Vertex indices of the elements whose coordinate i is taken from
        columns[i], in lexicographic order of the choices."""
        out = [0]
        for n, col in zip(self.cyclic_orders, columns):
            out = [a * n + c for a in out for c in col]
        return out

    @cached_property
    def _rows(self) -> list[list[int] | None]:  # see translation
        return [None] * self.order

    def translation(self, g: int) -> list[int]:
        """Row of x + g for every vertex index x, with g a vertex index.
        Rows, and the table that holds them, are built on first use."""
        row = self._rows[g]
        if row is None:
            shifted = zip(self._elements[g], self.cyclic_orders)
            row = self._per_coordinate([[(x + c) % n for x in range(n)] for c, n in shifted])
            self._rows[g] = row
        return row

    @cached_property
    def negs(self) -> list[int]:
        """Vertex index of -x for every vertex index x."""
        return self._per_coordinate([[-x % n for x in range(n)] for n in self.cyclic_orders])

    def difference(self, u: int, v: int) -> int:
        """Vertex index of u - v, by subtracting the mixed-radix digits of
        the two indices, least significant factor first."""
        out = 0
        place = 1
        for n in reversed(self.cyclic_orders):
            u, a = divmod(u, n)
            v, b = divmod(v, n)
            out += (a - b) % n * place
            place *= n
        return out

    def subgroup(self, generators) -> Subgroup:
        return subgroup_from_generators(self, generators)

    def full_subgroup(self) -> Subgroup:
        """The whole group.  Each generator is a sum of unit vectors whose
        factor orders are pairwise coprime, which generates those factors
        together (CRT); first fit, so with prime-power factors there are as
        many generators as the largest p-rank."""
        gens: list[list[int]] = []  # [product of the orders summed, index of the sum]
        for i, n in enumerate(self.cyclic_orders):
            unit = prod(self.cyclic_orders[i + 1 :])
            for g in gens:
                if gcd(g[0], n) == 1:
                    g[0] *= n
                    g[1] += unit
                    break
            else:
                gens.append([n, unit])
        return Subgroup(self, tuple(g for _, g in gens), frozenset(range(self.order)))

    @cached_property
    def subgroups(self) -> tuple[Subgroup, ...]:
        """Every subgroup, found by repeatedly adjoining single elements,
        sorted by (order, sorted element list) so the listing is stable.
        <P, g> depends only on g + P, so P is extended by each other coset's
        least element, the one a scan of every element would reach first."""
        trivial = Subgroup(self, (), frozenset({0}))
        found = {trivial.elements: trivial}
        queue = [trivial]
        for sub in queue:  # breadth first: the loop reaches what it appends
            for r in sub.coset_reps[1:]:
                bigger = _adjoin(self, sub.elements, r)
                if bigger not in found:
                    found[bigger] = Subgroup(self, sub.generators + (r,), bigger)
                    queue.append(found[bigger])
        return tuple(sorted(found.values(), key=lambda s: (s.order, s.sorted_elements)))


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of an AbelianGroup, identified by its group and its element
    set, a set of vertex indices; its generators, vertex indices in the
    order they were adjoined, take no part in equality or hashing."""

    group: AbelianGroup
    generators: tuple[int, ...] = field(compare=False)
    elements: frozenset[int]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.group.order // len(self.elements)

    @cached_property
    def sorted_elements(self) -> tuple[int, ...]:
        return tuple(sorted(self.elements))

    @cached_property
    def coset_of(self) -> tuple[int, ...]:
        """Coset number of each group element, indexed by vertex index.
        Cosets are numbered in the order of their least elements, so the
        subgroup itself is coset 0.  The subgroup is closed under negation,
        so the coset i + H is {i - h for h in H}."""
        difference = self.group.difference
        out = [-1] * self.group.order
        count = 0
        for i in range(self.group.order):
            if out[i] < 0:
                for h in self.elements:
                    out[difference(i, h)] = count
                count += 1
        return tuple(out)

    @cached_property
    def coset_reps(self) -> tuple[int, ...]:
        """Vertex index of the least element of each coset, by coset number.
        Cosets are numbered by least element, so coset c is new at the index
        where c reps are already found: one pass over coset_of."""
        reps = []
        for i, c in enumerate(self.coset_of):
            if c == len(reps):
                reps.append(i)
        return tuple(reps)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {list(self.group.cyclic_orders)})"


def make_group(cyclic_orders) -> AbelianGroup:
    """Build the direct product of cyclic groups of the given orders."""
    return AbelianGroup(tuple(cyclic_orders))


def _adjoin(group: AbelianGroup, elems: frozenset[int], g: int) -> frozenset[int]:
    """<elems, g> for a subgroup elems and a vertex index g: the cosets
    kg + elems, each {kg - h for h in elems}, for k = 0, 1, ... until kg
    falls back into elems."""
    difference = group.difference
    minus_g = group.negs[g]
    out = set(elems)
    x = g
    while x not in elems:
        out.update(difference(x, h) for h in elems)
        x = difference(x, minus_g)
    return frozenset(out)


def subgroup_from_generators(group: AbelianGroup, generators) -> Subgroup:
    """Closure of generators given in coordinates, each mapped once through
    index_of; the empty list gives the trivial subgroup."""
    gens = tuple(map(group.index_of, generators))
    elems = frozenset({0})
    for g in gens:
        elems = _adjoin(group, elems, g)
    return Subgroup(group, gens, elems)


def all_subgroups(group: AbelianGroup) -> list[Subgroup]:
    """Every subgroup, sorted by (order, sorted element list); a fresh list
    over the group's cached lattice."""
    return list(group.subgroups)


def subgroups_of_order(group: AbelianGroup, n: int) -> list[Subgroup]:
    return [s for s in group.subgroups if s.order == n]


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs, primes ascending."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def _partitions_desc(n: int, largest: int | None = None):
    """Integer partitions of n in decreasing-part form, largest first."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions_desc(n - first, first):
            yield (first,) + rest


def enumerate_abelian_groups(order: int) -> list[AbelianGroup]:
    """One representative per isomorphism class of abelian groups of the
    given order, via integer partitions of each prime exponent.  An order
    above MAX_GROUP_ORDER is refused before it is factorized."""
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    check_group_order(order)
    per_prime = []
    for p, e in factorize(order):
        per_prime.append([tuple(p**part for part in parts) for parts in _partitions_desc(e)])
    out = []
    for combo in itertools.product(*per_prime):
        orders = tuple(itertools.chain.from_iterable(combo))
        out.append(AbelianGroup(orders))
    return out
