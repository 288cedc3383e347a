"""Sharply transitive one-factorizations of complete multipartite graphs.

K_{m x n} is modeled as a Cayley graph of an abelian group G of order mn
over the complement of a subgroup H of order n; a starter is a family of
edge sets whose translates tile the edge set into perfect matchings.  The
package verifies starters, develops them into factorizations, builds the
known explicit families, searches models exhaustively, and certifies
nonexistence across all abelian groups of a given order.
"""

from .cayley import CayleyModel, build_model, export_edge_list
from .constructions import (
    ConstructionError,
    ExistenceVerdict,
    NonexistenceCertificate,
    classify_existence,
    construct_prime_power,
    double_starter,
    parity_nonexistence,
)
from .groups import (
    AbelianGroup,
    Element,
    Subgroup,
    all_subgroups,
    enumerate_abelian_groups,
    make_group,
    subgroup_from_generators,
    subgroups_of_order,
)
from .search import (
    CertificationResult,
    SearchOutcome,
    certify_nonexistence,
    search_starter,
)
from .serialize import (
    canonical_json,
    factorization_from_payload,
    factorization_payload,
    group_payload,
    starter_from_payload,
    starter_payload,
)
from .starters import (
    InvalidStarterError,
    OneFactorization,
    Starter,
    StarterSet,
    VerificationReport,
    check_invariance,
    develop_factorization,
    verify_factorization,
    verify_starter,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "Element",
    "Subgroup",
    "make_group",
    "subgroup_from_generators",
    "all_subgroups",
    "subgroups_of_order",
    "enumerate_abelian_groups",
    "CayleyModel",
    "build_model",
    "export_edge_list",
    "StarterSet",
    "Starter",
    "OneFactorization",
    "VerificationReport",
    "InvalidStarterError",
    "verify_starter",
    "develop_factorization",
    "verify_factorization",
    "check_invariance",
    "canonical_json",
    "group_payload",
    "starter_payload",
    "starter_from_payload",
    "factorization_payload",
    "factorization_from_payload",
    "ConstructionError",
    "NonexistenceCertificate",
    "ExistenceVerdict",
    "construct_prime_power",
    "double_starter",
    "parity_nonexistence",
    "classify_existence",
    "SearchOutcome",
    "CertificationResult",
    "search_starter",
    "certify_nonexistence",
    "__version__",
]
