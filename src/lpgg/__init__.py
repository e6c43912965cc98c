"""lpgg: a light-cone projective geometric-algebra kernel and verifier.

Correlated null-vector frames of G(1,n) and G(n,1), exact radical
arithmetic, star projections, multivector differential operators,
spectral idempotents, barycentric null simplices, and a verification
CLI that checks the defining identities mechanically.
"""

from .algebra import (
    Algebra,
    AlgebraError,
    BackendMismatchError,
    ContextMismatchError,
    DimensionLimitError,
    Multivector,
    wedge_list,
)
from .scalars import (
    APPROX,
    COMPLEX,
    EXACT,
    InexactDivisionError,
    InexactSqrtError,
    Radical,
)

__version__ = "0.1.0"

# Shared with the CLI parser, which must not import the modules that use them.
FRAME_LIMIT = 12  # largest frame size n+1 that build_null_frame accepts
CANONICAL_BASIS_LIMIT = 8  # largest frame size with the 2^(n+1) null products
ATLAS_LIMIT = 10  # largest level p+q of the pseudoscalar sign atlas
SUITES = ("core", "frame", "star", "calculus", "spectral", "simplex", "atlas")
DEFAULT_SEED = 2024
DEFAULT_N_MAX = 8

__all__ = [
    "Algebra",
    "AlgebraError",
    "BackendMismatchError",
    "ContextMismatchError",
    "DimensionLimitError",
    "Multivector",
    "Radical",
    "InexactDivisionError",
    "InexactSqrtError",
    "EXACT",
    "APPROX",
    "COMPLEX",
    "wedge_list",
    "__version__",
]
