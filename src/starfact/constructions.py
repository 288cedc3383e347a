"""Explicit starter constructions and existence classification.

Two builders:

* double_starter lifts a starter over a cyclic group Z_{mn} to one over
  Z_{mn} x Z_2, turning K_{m x n} into K_{m x 2n};
* construct_prime_power assembles the explicit starter for K_{p^v x 2},
  p prime congruent 1 mod 4, v >= 2, over Z_{p^(v-1)} x Z_p x Z_2,
  completes it with one singleton per uncovered difference pair, and
  returns the first candidate filling that verifies.

Plus a parity-counting nonexistence certificate, built as its JSON
payload, and a rule-based existence classifier for K_{m x n} under
abelian groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cayley import CayleyModel, build_model
from .groups import MAX_GROUP_ORDER, Subgroup, check_group_order, factorize, make_group
from .starters import InvalidStarterError, Starter, StarterSet, scan_sets, verify_starter

__all__ = [
    "ConstructionError",
    "ExistenceVerdict",
    "double_starter",
    "construct_prime_power",
    "parity_nonexistence",
    "classify_existence",
]


class ConstructionError(ValueError):
    """No candidate filling of a construction passed verification."""


# ---------------------------------------------------------------------------
# doubling: K_{m x n} over Z_{mn}  ->  K_{m x 2n} over Z_{mn} x Z_2
# ---------------------------------------------------------------------------


def double_starter(starter: Starter) -> Starter:
    """Each input set S contributes two sets: one with both endpoints tagged
    0, one with the greater endpoint tagged 1.  Companions gain a Z_2 factor,
    as does H, so the part count m is preserved while n doubles.  The new
    factor is the last, so vertex index i with tag t becomes 2i + t."""
    if len(starter.model.group.cyclic_orders) != 1:
        raise ValueError("doubling needs a cyclic group given as a single factor")
    report = verify_starter(starter)
    if not report.passed:
        raise InvalidStarterError(report)

    old_group = starter.model.group
    group = make_group(old_group.cyclic_orders + (2,))

    def lift(sub: Subgroup) -> Subgroup:
        # old_group is cyclic, so vertex index g is the coordinate (g,)
        gens = [(g, 0) for g in sub.generators] + [(0, 1)]
        return group.subgroup(gens)

    model = build_model(lift(starter.model.H))

    plain_sets = []
    mixed_sets = []
    for sset in starter.sets:
        companion = lift(sset.subgroup)
        plain = [model.edge(2 * u, 2 * v) for u, v in sset.edges]
        mixed = [model.edge(2 * u, 2 * v + 1) for u, v in sset.edges]
        plain_sets.append(StarterSet(tuple(sorted(plain)), companion))
        mixed_sets.append(StarterSet(tuple(sorted(mixed)), companion))
    return Starter(
        model,
        tuple(plain_sets + mixed_sets),
        provenance={"construction": "doubling"},
    )


# ---------------------------------------------------------------------------
# the explicit K_{p^v x 2} family
# ---------------------------------------------------------------------------


def _assemble_family(
    model: CayleyModel, p: int, t: int, tp: int, bridge_c: int, anchor_y: int, anchor_z: int
) -> list[StarterSet]:
    """Lay out the edge families over Z_{p^(v-1)} x Z_p x Z_2, where
    p = 4t + 1 and tp = t' = (p^(v-1) - 1) / 4.

    bridge_c fills the third coordinate of the final set's long family;
    (anchor_y, anchor_z) are the free columns of the final set's last edge.
    """
    group = model.group

    def ed(a, b):
        return model.pair(group.index_of(a), group.index_of(b))

    h_line = group.subgroup([(1, 0, 0)])
    sets: list[StarterSet] = []

    special = []
    for i in range(1, t + 1):
        special.append(ed((0, i, 0), (0, p - i, 0)))
        special.append(ed((0, i - 1, 1), (0, p - i, 1)))
        special.append(ed((0, t + i, 0), (0, p - t - i, 1)))
    for i in range(1, t):
        special.append(ed((0, t + i + 1, 1), (0, p - t - i, 0)))
    special.append(ed((0, 0, 0), (2, t, 1)))
    special.append(ed((0, 2 * t + 1, 0), (2, t + 1, 1)))
    sets.append(StarterSet(tuple(sorted(special)), h_line))

    for k in range(1, 2 * tp + 1):
        middle = []
        for i in range(1, t + 1):
            middle.append(ed((0, i, 0), (2 * k - 1, p - i, 0)))
            middle.append(ed((0, i - 1, 1), (2 * k - 1, p - i, 1)))
            middle.append(ed((0, p - t - i, 0), (2 * k, t + i, 0)))
            middle.append(ed((0, p - t - i, 1), (2 * k, t + i - 1, 1)))
        middle.append(ed((0, 0, 0), (2 * k - 1, 2 * t, 1)))
        sets.append(StarterSet(tuple(sorted(middle)), h_line))

    h_col = group.subgroup([(0, 1, 0)])
    final = []
    for i in range(1, tp + 1):
        final.append(ed((1 - i, 0, 0), (i, 0, 0)))
        final.append(ed((i, 0, 1), (-i, 0, 1)))
    for i in range(1, 2 * tp + 1):
        final.append(ed((tp + i, 0, bridge_c), (-tp - i, 2 * t + 2, 1)))
    final.append(ed((0, anchor_y, 1), (-tp, anchor_z, 0)))
    sets.append(StarterSet(tuple(sorted(final)), h_col))
    return sets


def construct_prime_power(p: int, v: int) -> Starter:
    """The verified K_{p^v x 2} starter over Z_{p^(v-1)} x Z_p x Z_2, for p
    prime congruent 1 mod 4 and v >= 2.

    The printed family has two underdetermined spots: a blank third
    coordinate in the final set's long family, and (at small p) a final edge
    whose printed columns duplicate a middle set's difference.  Each
    candidate filling, in a fixed order, is completed by one singleton
    [identity, w] with companion A = Z_{p^(v-1)} x Z_p x 0 per pair {w, -w}
    it leaves uncovered (H holds the one involution, so every such w is
    long).  The first completed starter that verify_starter passes wins;
    the choices land in provenance.

    The group has order 2 * p^v; one above MAX_GROUP_ORDER is refused before
    p is tested for primality by trial division.  2 * 2^e exceeds the
    maximum for e its bit length, so the test never raises p to a larger
    power than that.
    """
    if v < 2:
        raise ValueError(f"v must be >= 2, got {v}")
    if p >= 2:
        check_group_order(2 * p ** min(v, MAX_GROUP_ORDER.bit_length()), f"2 * {p}^{v}")
    if p < 2 or factorize(p) != [(p, 1)]:
        raise ValueError(f"p = {p} is not prime")
    if p % 4 != 1:
        raise ValueError(f"p = {p} is not congruent to 1 mod 4")
    q = p ** (v - 1)
    t, tp = (p - 1) // 4, (q - 1) // 4
    group = make_group([q, p, 2])
    model = build_model(group.subgroup([(0, 0, 1)]))
    A = group.subgroup([(1, 0, 0), (0, 1, 0)])
    negs = group.negs

    printed = (2, 0)
    anchor_candidates = [printed] + [
        (y, z) for y in range(p) for z in range(p) if (y, z) != printed
    ]
    first_report = None
    for bridge_c in (0, 1):
        for y, z in anchor_candidates:
            sets = _assemble_family(model, p, t, tp, bridge_c, y, z)
            counts = scan_sets(model, sets)[0]
            singles = [
                StarterSet((model.edge(0, w),), A)  # vertex index 0 is the identity
                for w in model.omega
                if not counts[w] and w < negs[w]
            ]
            resolutions = [{"slot": "final_set_bridge_coordinate", "value": bridge_c}]
            if (y, z) != printed:
                resolutions.append(
                    {"slot": "final_set_anchor_columns", "value": [y, z], "printed": list(printed)}
                )
            starter = Starter(
                model,
                tuple(sets + singles),
                provenance={
                    "construction": "prime_power",
                    "p": p,
                    "v": v,
                    "typo_resolutions": resolutions,
                    "completed_pairs": len(singles),
                },
            )
            report = verify_starter(starter)
            if report.passed:
                return starter
            if first_report is None:
                first_report = report
    raise ConstructionError(
        f"no candidate filling makes the p={p}, v={v} family pass verification;"
        f" first attempt reported:\n{first_report.summary()}"
    )


# ---------------------------------------------------------------------------
# nonexistence by parity counting
# ---------------------------------------------------------------------------


def parity_nonexistence(m: int, n: int) -> dict | None:
    """The certificate payload showing that no abelian group admits a
    K_{m x n} starter, when the parity argument applies; None otherwise.

    The argument is a counting contradiction for m = 3 mod 4, n = 2d with d
    odd.  Writing G = G' x Z_2 for any candidate abelian group, Omega holds
    no involutions and exactly d(m-1) elements with even part zero; every
    starter set covers such elements four at a time, but d(m-1) = 2 mod 4.
    """
    if m % 4 != 3 or n % 4 != 2:
        return None
    d = n // 2
    count = d * (m - 1)
    return {
        "type": "parity_nonexistence",
        "m": m,
        "n": n,
        "d": d,
        "type_zero_count": count,
        "residue_mod_4": count % 4,
        "narrative": {
            "group_order": m * n,
            "omega_size": n * (m - 1),
            "involutions_in_omega": 0,
            "type_zero_count": count,
            "per_set_type_zero_multiple": 4,
            "conclusion": (
                f"each set covers a multiple of 4 of the {count} type-zero"
                f" differences, but {count} = {count % 4} mod 4"
            ),
        },
    }


# ---------------------------------------------------------------------------
# rule-based existence classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExistenceVerdict:
    m: int
    n: int
    rule: str
    status: str  # "exists" | "not_exists" | "unknown"
    description: str

    def payload(self) -> dict:
        """The verdict as JSON; a parity_count verdict also carries the
        certificate payload from parity_nonexistence."""
        out = {
            "m": self.m,
            "n": self.n,
            "status": self.status,
            "rule": self.rule,
            "description": self.description,
        }
        if self.rule == "parity_count":
            out["certificate"] = parity_nonexistence(self.m, self.n)
        return out


# rule name -> (status, description)
_RULES = {
    "odd_vertex_count": (
        "not_exists",
        "a graph with an odd number of vertices has no perfect matching",
    ),
    "parity_count": (
        "not_exists",
        "m = 3 mod 4 with n twice an odd number fails the parity count",
    ),
    "prime_m_pairs": (
        "not_exists",
        "K_{p x 2} with p prime, p = 1 mod 4, admits no abelian starter",
    ),
    "prime_power_m_pairs": (
        "exists",
        "explicit construction for K_{p^v x 2}, p = 1 mod 4, v >= 2",
    ),
    "composite_1mod4_pairs": (
        "exists",
        "cyclic starter for n = 2 when m = 1 mod 4 is not a prime power",
    ),
    "m_multiple_of_4": (
        "exists",
        "abelian starter when 4 divides m and n is twice an odd number",
    ),
    "both_twice_odd": (
        "exists",
        "cyclic starter when m and n are both twice an odd number",
    ),
    "even_m_odd_n": ("exists", "cyclic starter when m is even and n is odd"),
    "even_m_n_multiple_of_4": ("exists", "cyclic starter when m is even and 4 divides n"),
    "m_1mod4_n_twice_odd": (
        "exists",
        "cyclic starter when m = 1 mod 4 and n is twice an odd number > 2",
    ),
    "no_rule": ("unknown", "no implemented rule covers this (m, n)"),
}


def _rule(m: int, n: int) -> str:
    """The name of the first known rule that decides K_{m x n}, or no_rule."""
    if m < 2 or n < 2:
        raise ValueError("need m >= 2 and n >= 2")
    if (m * n) % 2 == 1:
        return "odd_vertex_count"
    if parity_nonexistence(m, n) is not None:
        return "parity_count"
    if n == 2 and m % 4 == 1:
        check_group_order(m * n)  # before factorizing m
        (p, v), *others = factorize(m)
        if others:
            return "composite_1mod4_pairs"
        if p % 4 != 1:
            return "no_rule"
        return "prime_m_pairs" if v == 1 else "prime_power_m_pairs"
    if m % 4 == 0 and n % 4 == 2:
        return "m_multiple_of_4"
    if m % 4 == 2 and n % 4 == 2:
        return "both_twice_odd"
    if m % 2 == 0 and n % 2 == 1:
        return "even_m_odd_n"
    if m % 2 == 0 and n % 4 == 0:
        return "even_m_n_multiple_of_4"
    if m % 4 == 1 and n % 4 == 2 and n > 2:
        return "m_1mod4_n_twice_odd"
    return "no_rule"


def classify_existence(m: int, n: int) -> ExistenceVerdict:
    """Decide existence of a K_{m x n} starter over some abelian group when a
    known rule applies; return unknown otherwise, never guessing."""
    rule = _rule(m, n)
    return ExistenceVerdict(m, n, rule, *_RULES[rule])
