"""Coordinate arithmetic on element tuples, written independently of starfact.

The package works on vertex indices only; the tests check its index
arithmetic and its subgroups against these definitions.  Each function takes
the cyclic orders of the group first.
"""

from __future__ import annotations

from math import gcd


def add(orders, a, b) -> tuple[int, ...]:
    return tuple((x + y) % n for x, y, n in zip(a, b, orders))


def neg(orders, a) -> tuple[int, ...]:
    return tuple((-x) % n for x, n in zip(a, orders))


def sub(orders, a, b) -> tuple[int, ...]:
    return tuple((x - y) % n for x, y, n in zip(a, b, orders))


def scale(orders, k: int, a) -> tuple[int, ...]:
    return tuple((k * x) % n for x, n in zip(a, orders))


def element_order(orders, a) -> int:
    """Order of a, the lcm of the per-coordinate orders n_i / gcd(n_i, a_i)."""
    out = 1
    for x, n in zip(a, orders):
        o = n // gcd(n, x)
        out = out * o // gcd(out, o)
    return out


def index(orders, a) -> int:
    """Mixed-radix rank of a reduced tuple, the first factor most significant."""
    idx = 0
    for x, n in zip(a, orders):
        idx = idx * n + x
    return idx


def closure(orders, generators) -> frozenset[tuple[int, ...]]:
    """The subgroup the generators span: every element reached from the
    identity by adding generators, until nothing new appears."""
    gens = [tuple(x % n for x, n in zip(g, orders)) for g in generators]
    found = {(0,) * len(orders)}
    frontier = list(found)
    while frontier:
        new = {add(orders, a, g) for a in frontier for g in gens} - found
        found |= new
        frontier = list(new)
    return frozenset(found)
