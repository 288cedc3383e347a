"""Sharply transitive one-factorizations of complete multipartite graphs.

K_{m x n} is modeled as a Cayley graph of an abelian group G of order mn
over the complement of a subgroup H of order n; a starter is a family of
edge sets whose translates tile the edge set into perfect matchings.  The
package verifies starters, develops them into factorizations, builds the
known explicit families, searches models exhaustively, and certifies
nonexistence across all abelian groups of a given order.
"""

from . import cayley, constructions, groups, search, serialize, starters
from .cayley import *
from .constructions import *
from .groups import *
from .search import *
from .serialize import *
from .starters import *

__version__ = "0.1.0"

__all__ = [
    *cayley.__all__,
    *constructions.__all__,
    *groups.__all__,
    *search.__all__,
    *serialize.__all__,
    *starters.__all__,
    "__version__",
]
