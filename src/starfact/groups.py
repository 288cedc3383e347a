"""Exact arithmetic over finite abelian groups given as products of cyclic factors.

Elements are coordinate tuples reduced modulo the per-factor orders, and
each is named by its vertex index, its mixed-radix (lexicographic) rank; the
package works on indices, subgroup elements and generators included.
Coordinates are read only by AbelianGroup.index_of and written only to
starter JSON and messages, through elements().  Index order is lexicographic
coordinate order; a subgroup's elements are held once, as their ascending
index tuple, and membership reads its coset index, so every result comes
back in the same order at every run and output is reproducible byte for byte.
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

    def _row(self, g: int) -> list[int]:
        """Row of x + g for every vertex index x, built afresh: translation
        caches it, a closure drops it when done.  The digits of g come off
        its index, least significant factor first, so no coordinate table
        is built."""
        columns = []
        for n in reversed(self.cyclic_orders):
            g, c = divmod(g, n)
            columns.append([(x + c) % n for x in range(n)])
        return self._per_coordinate(reversed(columns))

    def translation(self, g: int) -> list[int]:
        """Row of x + g for every vertex index x, with g a vertex index.
        Rows, and the table that holds them, are built on first use."""
        row = self._rows[g]
        if row is None:
            row = self._rows[g] = self._row(g)
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
        elems = tuple(range(self.order))
        return Subgroup(self, tuple(g for _, g in gens), elems, (0,) * self.order, (0,))

    @cached_property
    def subgroups(self) -> tuple[Subgroup, ...]:
        """Every subgroup, found by repeatedly adjoining single elements,
        sorted by (order, elements) so the listing is stable.
        <P, g> depends only on g + P, so P is extended by each other coset's
        least element, the one a scan of every element would reach first.
        Each closure reads a transient translation row of its representative
        r (see _adjoin) and returns the cycle of P's cosets that r + P
        generates in G/P: the cosets of 0, r, 2r, ...  When that cycle has
        length k, <P, jr> = <P, r> for every j coprime to k, so the cosets
        of those jr are marked and a later representative in a marked coset
        is skipped.  It could only rebuild a subgroup that r found first, so
        the generators stay the same."""
        everything = tuple(range(self.order))
        trivial = Subgroup(self, (), (0,), everything, everything)
        found = {trivial.elements: trivial}
        queue = [trivial]
        for sub in queue:  # breadth first: the loop reaches what it appends
            repeats = bytearray(sub.index)
            for r in sub.coset_reps[1:]:
                if repeats[sub.coset_of[r]]:
                    continue
                closure = _adjoin(sub.elements, sub.coset_of, sub.coset_reps, self._row(r))
                bigger, coset_of, reps, cycle = closure
                if bigger not in found:
                    found[bigger] = Subgroup(self, sub.generators + (r,), bigger, coset_of, reps)
                    queue.append(found[bigger])
                k = len(cycle)
                for j in range(1, k):
                    if gcd(j, k) == 1:
                        repeats[cycle[j]] = 1
        return tuple(sorted(found.values(), key=lambda s: (s.order, s.elements)))


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of an AbelianGroup, identified by its group and its elements,
    the ascending tuple of its vertex indices: subgroups are equal when those
    tuples agree.  The closure that builds it fills the rest, which takes no
    part in equality or hashing: its generators, vertex indices in the order
    they were adjoined; coset_of, the coset number of each vertex, with
    cosets numbered by least element, so the subgroup is coset 0 and holds x
    when coset_of[x] is 0; and coset_reps, those least elements, ascending."""

    group: AbelianGroup
    generators: tuple[int, ...] = field(compare=False)
    elements: tuple[int, ...]
    coset_of: tuple[int, ...] = field(compare=False)
    coset_reps: tuple[int, ...] = field(compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.group.order // len(self.elements)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {list(self.group.cyclic_orders)})"


def make_group(cyclic_orders) -> AbelianGroup:
    """Build the direct product of cyclic groups of the given orders."""
    return AbelianGroup(tuple(cyclic_orders))


def _adjoin(elems: tuple[int, ...], coset_of, reps, row: list[int]):
    """(elements, coset_of, coset_reps, cycle) of <P, g>, for P given by its
    ascending elements, coset index and representatives, and row[x] = x + g.
    Adding g maps coset c of P to the coset of reps[c] + g, and each cycle
    of that permutation is one coset of <P, g>, numbered when first met by
    ascending c, so by least element.  cycle, that of coset 0, lists the
    cosets of 0, g, 2g, ...; the elements are P shifted along the row
    through them, gathered in a list and sorted.  The caller builds the
    row, so no closure fills the group's cache of translation rows."""
    cycle = [0]
    while c := coset_of[row[reps[cycle[-1]]]]:
        cycle.append(c)
    num = [-1] * len(reps)
    new_reps = []
    for c, r in enumerate(reps):
        if num[c] < 0:
            n = len(new_reps)
            new_reps.append(r)
            for _ in cycle:  # every cycle is as long as the first
                num[c] = n
                c = coset_of[row[reps[c]]]
    out = list(elems)
    coset = elems
    for _ in cycle[1:]:
        coset = list(map(row.__getitem__, coset))
        out += coset
    out.sort()
    return tuple(out), tuple(map(num.__getitem__, coset_of)), tuple(new_reps), cycle


def subgroup_from_generators(group: AbelianGroup, generators) -> Subgroup:
    """Closure of generators given in coordinates, each mapped once through
    index_of; the empty list gives the trivial subgroup."""
    gens = tuple(map(group.index_of, generators))
    elems, coset_of, reps = (0,), range(group.order), range(group.order)
    for g in gens:
        elems, coset_of, reps, _ = _adjoin(elems, coset_of, reps, group._row(g))
    return Subgroup(group, gens, elems, tuple(coset_of), tuple(reps))


def all_subgroups(group: AbelianGroup) -> list[Subgroup]:
    """Every subgroup, sorted by (order, elements); a fresh list
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
