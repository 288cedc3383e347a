"""Explicit starter constructions and existence classification.

Three builders:

* double_starter lifts a starter over a cyclic group Z_{mn} to one over
  Z_{mn} x Z_2, turning K_{m x n} into K_{m x 2n};
* build_prime_power_starter assembles the explicit partial starter for
  K_{p^v x 2}, p prime congruent 1 mod 4, v >= 2, over
  Z_{p^(v-1)} x Z_p x Z_2;
* complete_via_index2 finishes a partial starter whose uncovered
  differences all avoid a chosen index-2 subgroup.

Plus a parity-counting nonexistence certificate and a rule-based
existence classifier for K_{m x n} under abelian groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cayley import CayleyModel, build_model
from .groups import MAX_GROUP_ORDER, Subgroup, check_group_order, factorize, make_group
from .starters import (
    InvalidStarterError,
    Starter,
    StarterSet,
    scan_sets,
    verify_starter,
)

__all__ = [
    "PrimePowerParams",
    "ConstructionError",
    "NonexistenceCertificate",
    "ExistenceVerdict",
    "double_starter",
    "build_prime_power_starter",
    "complete_via_index2",
    "construct_prime_power",
    "parity_nonexistence",
    "classify_existence",
]


class ConstructionError(ValueError):
    """A builder's assembled family failed its own post-check."""

    def __init__(self, message: str, details=None):
        super().__init__(message)
        self.details = details


def _is_prime_power(n: int) -> tuple[int, int] | None:
    fac = factorize(n)
    if len(fac) == 1:
        return fac[0]
    return None


def _is_prime(n: int) -> bool:
    return n >= 2 and _is_prime_power(n) == (n, 1)


@dataclass(frozen=True)
class PrimePowerParams:
    """Parameters p = 4t + 1 prime, v >= 2, t' = (p^(v-1) - 1) / 4."""

    p: int
    v: int
    t: int
    t_prime: int

    @classmethod
    def validate(cls, p: int, v: int) -> "PrimePowerParams":
        """The family's group has order 2 * p^v; one above MAX_GROUP_ORDER
        is refused before p is tested for primality by trial division.
        2 * 2^e exceeds the maximum for e its bit length, so the test never
        raises p to a larger power than that."""
        if v < 2:
            raise ValueError(f"v must be >= 2, got {v}")
        if p >= 2:
            check_group_order(2 * p ** min(v, MAX_GROUP_ORDER.bit_length()), f"2 * {p}^{v}")
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if p % 4 != 1:
            raise ValueError(f"p = {p} is not congruent to 1 mod 4")
        q = p ** (v - 1)
        return cls(p=p, v=v, t=(p - 1) // 4, t_prime=(q - 1) // 4)


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
        gens = [g + (0,) for g in sub.generators] + [(0,) * old_group.rank + (1,)]
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
    model: CayleyModel, params: PrimePowerParams, bridge_c: int, anchor_y: int, anchor_z: int
) -> list[StarterSet]:
    """Lay out the edge families over Z_{p^(v-1)} x Z_p x Z_2.

    bridge_c fills the third coordinate of the final set's long family;
    (anchor_y, anchor_z) are the free columns of the final set's last edge.
    """
    group = model.group
    p, t, tp = params.p, params.t, params.t_prime

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


def _partial_report(model: CayleyModel, sets, A: Subgroup) -> tuple[list[int], list[str]]:
    """Uncovered differences of a partial starter, sorted, and every problem
    that keeps it from completing through A: an illegal edge, a repeated
    difference, a broken condition 2 or 3, or an uncovered difference in A."""
    el = model.group.elements()
    counts, illegal, c2, c3 = scan_sets(model, sets)
    problems = [f"set {i}: illegal edge {el[u]}~{el[v]}" for i, u, v, _ in illegal]
    dups = [el[d] for d, c in enumerate(counts) if c > 1]  # index order is lexicographic
    if dups:
        problems.append(f"repeats differences: {dups[:6]}")
    problems += c2.violations + c3.violations
    uncovered = [d for d in sorted(model.omega) if not counts[d]]
    inside = [el[d] for d in uncovered if d in A.elements]
    if inside:
        problems.append(f"uncovered differences inside the index-2 subgroup: {inside[:6]}")
    return uncovered, problems


def build_prime_power_starter(p: int, v: int) -> tuple[Starter, Subgroup]:
    """Partial starter for K_{p^v x 2} over Z_{p^(v-1)} x Z_p x Z_2, together
    with the index-2 subgroup used to finish it.

    The printed family has two underdetermined spots: a blank third
    coordinate in the final set's long family, and (at small p) a final edge
    whose printed columns duplicate a middle set's difference.  Candidate
    fillings are tried in a fixed order and the first one whose assembled
    family passes the post-check wins; the choices land in provenance.
    """
    params = PrimePowerParams.validate(p, v)
    q = p ** (v - 1)
    group = make_group([q, p, 2])
    model = build_model(group.subgroup([(0, 0, 1)]))
    A = group.subgroup([(1, 0, 0), (0, 1, 0)])

    printed = (2, 0)
    anchor_candidates = [printed] + [
        (y, z) for y in range(p) for z in range(p) if (y, z) != printed
    ]
    first_problems = None
    for bridge_c in (0, 1):
        for anchor_y, anchor_z in anchor_candidates:
            sets = _assemble_family(model, params, bridge_c, anchor_y, anchor_z)
            _, problems = _partial_report(model, sets, A)
            if first_problems is None:
                first_problems = problems
            if not problems:
                resolutions = [
                    {"slot": "final_set_bridge_coordinate", "value": bridge_c}
                ]
                if (anchor_y, anchor_z) != printed:
                    resolutions.append(
                        {
                            "slot": "final_set_anchor_columns",
                            "value": [anchor_y, anchor_z],
                            "printed": list(printed),
                        }
                    )
                starter = Starter(
                    model,
                    tuple(sets),
                    provenance={
                        "construction": "prime_power",
                        "p": p,
                        "v": v,
                        "typo_resolutions": resolutions,
                    },
                )
                return starter, A
    raise ConstructionError(
        f"no candidate filling makes the p={p}, v={v} family pass its post-check;"
        f" first attempt reported: {first_problems}",
        details=first_problems,
    )


def complete_via_index2(partial: Starter, A: Subgroup) -> Starter:
    """Cover what the partial starter leaves uncovered in partial.model, one
    singleton set per leftover difference class.

    Requires every uncovered element to lie outside A (A has index 2).  A
    non-involution pair {w, -w} gets the long edge [identity, w] with
    companion A; an uncovered involution gets a short edge with the full
    group as companion.  An already-complete starter is returned unchanged.
    """
    model = partial.model
    group = model.group
    if A.index != 2:
        raise ValueError(f"completion subgroup must have index 2, found {A.index}")
    uncovered, problems = _partial_report(model, partial.sets, A)
    if problems:
        raise ConstructionError(
            "partial starter cannot be completed: " + "; ".join(problems), details=problems
        )
    if not uncovered:
        return partial

    full = group.full_subgroup()
    new_sets = list(partial.sets)
    for w in uncovered:  # closed under negation; take the lesser of w, -w
        if w <= group.negs[w]:
            edge = model.edge(0, w)  # vertex index 0 is the identity
            companion = full if w in group.involutions else A
            new_sets.append(StarterSet((edge,), companion))
    provenance = dict(partial.provenance or {})
    provenance["completed_pairs"] = (len(uncovered) + 1) // 2
    return Starter(model, tuple(new_sets), provenance)


def construct_prime_power(p: int, v: int) -> Starter:
    """Build, complete, and verify the K_{p^v x 2} starter in one call."""
    partial, A = build_prime_power_starter(p, v)
    starter = complete_via_index2(partial, A)
    report = verify_starter(starter)
    if not report.passed:
        raise ConstructionError(
            "completed starter failed verification:\n" + report.summary(),
            details=report,
        )
    return starter


# ---------------------------------------------------------------------------
# nonexistence by parity counting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonexistenceCertificate:
    """Counting contradiction for m = 3 mod 4, n = 2d with d odd.

    Writing G = G' x Z_2 for any candidate abelian group, Omega holds no
    involutions and exactly d(m-1) elements with even part zero; every
    starter set covers such elements four at a time, but d(m-1) = 2 mod 4.
    """

    m: int
    n: int
    d: int
    type_zero_count: int
    residue_mod_4: int
    narrative: dict

    def payload(self) -> dict:
        return {
            "type": "parity_nonexistence",
            "m": self.m,
            "n": self.n,
            "d": self.d,
            "type_zero_count": self.type_zero_count,
            "residue_mod_4": self.residue_mod_4,
            "narrative": dict(self.narrative),
        }


def parity_nonexistence(m: int, n: int) -> NonexistenceCertificate | None:
    """Certificate that no abelian group admits a K_{m x n} starter, when the
    parity argument applies; None otherwise."""
    if m % 4 != 3 or n % 4 != 2:
        return None
    d = n // 2
    count = d * (m - 1)
    narrative = {
        "group_order": m * n,
        "omega_size": n * (m - 1),
        "involutions_in_omega": 0,
        "type_zero_count": count,
        "per_set_type_zero_multiple": 4,
        "conclusion": (
            f"each set covers a multiple of 4 of the {count} type-zero"
            f" differences, but {count} = {count % 4} mod 4"
        ),
    }
    return NonexistenceCertificate(
        m=m, n=n, d=d, type_zero_count=count, residue_mod_4=count % 4, narrative=narrative
    )


# ---------------------------------------------------------------------------
# rule-based existence classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExistenceVerdict:
    status: str  # "exists" | "not_exists" | "unknown"
    rule: str
    description: str

    def payload(self, m: int, n: int) -> dict:
        return {
            "m": m,
            "n": n,
            "status": self.status,
            "rule": self.rule,
            "description": self.description,
        }


def _two_part(n: int) -> tuple[int, int]:
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v, n


def classify_existence(m: int, n: int) -> ExistenceVerdict:
    """Decide existence of a K_{m x n} starter over some abelian group when a
    known rule applies; return unknown otherwise, never guessing."""
    if m < 2 or n < 2:
        raise ValueError("need m >= 2 and n >= 2")
    if (m * n) % 2 == 1:
        return ExistenceVerdict(
            "not_exists",
            "odd_vertex_count",
            "a graph with an odd number of vertices has no perfect matching",
        )
    vm, dm = _two_part(m)
    vn, dn = _two_part(n)

    if parity_nonexistence(m, n) is not None:
        return ExistenceVerdict(
            "not_exists",
            "parity_count",
            "m = 3 mod 4 with n twice an odd number fails the parity count",
        )
    if n == 2 and m % 4 == 1:
        check_group_order(m * n)  # before factorizing m
        pp = _is_prime_power(m)
        if pp is not None:
            p, v = pp
            if p % 4 == 1 and v == 1:
                return ExistenceVerdict(
                    "not_exists",
                    "prime_m_pairs",
                    "K_{p x 2} with p prime, p = 1 mod 4, admits no abelian starter",
                )
            if p % 4 == 1 and v >= 2:
                return ExistenceVerdict(
                    "exists",
                    "prime_power_m_pairs",
                    "explicit construction for K_{p^v x 2}, p = 1 mod 4, v >= 2",
                )
            return ExistenceVerdict(
                "unknown",
                "no_rule",
                "no implemented rule covers this (m, n)",
            )
        return ExistenceVerdict(
            "exists",
            "composite_1mod4_pairs",
            "cyclic starter for n = 2 when m = 1 mod 4 is not a prime power",
        )
    if vm >= 2 and vn == 1:
        return ExistenceVerdict(
            "exists",
            "m_multiple_of_4",
            "abelian starter when 4 divides m and n is twice an odd number",
        )
    if vm == 1 and vn == 1:
        return ExistenceVerdict(
            "exists",
            "both_twice_odd",
            "cyclic starter when m and n are both twice an odd number",
        )
    if vm >= 1 and vn == 0:
        return ExistenceVerdict(
            "exists",
            "even_m_odd_n",
            "cyclic starter when m is even and n is odd",
        )
    if vm >= 1 and vn > 1:
        return ExistenceVerdict(
            "exists",
            "even_m_n_multiple_of_4",
            "cyclic starter when m is even and 4 divides n",
        )
    if m % 4 == 1 and vn == 1 and dn > 1:
        return ExistenceVerdict(
            "exists",
            "m_1mod4_n_twice_odd",
            "cyclic starter when m = 1 mod 4 and n is twice an odd number > 2",
        )
    return ExistenceVerdict("unknown", "no_rule", "no implemented rule covers this (m, n)")
