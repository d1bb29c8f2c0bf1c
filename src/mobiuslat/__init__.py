"""Finite lattices from pattern-avoiding permutations and 1/2-compositions.

Mobius numbers are computed two independent ways: by the defining interval
recurrence on the order matrix, and by signed counts of NBB atom sets
under a chosen total order.  The package also carries the Fibonacci-style
polynomials whose values at -1 these numbers follow, and a verification
suite exercising every structural claim at desk scale.
"""

import os

# No code here calls BLAS: every array is integer or boolean, and numpy
# multiplies those without it.  OpenBLAS would still start one worker per
# core when numpy loads, and each spins for CPU before it sleeps, so numpy
# is loaded with one thread unless the caller chose a count.
_caller_set = "OPENBLAS_NUM_THREADS" in os.environ
try:
    if not _caller_set:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy  # noqa: F401
finally:
    if not _caller_set:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .fibpoly import IntPolynomial, fib_poly, h_poly, sparse_sets
from .families import (
    BOTTOM_LABEL,
    CLAIMS,
    TOP_LABEL,
    ClaimResult,
    FamilyLattice,
    build_family,
    composition_words,
    mobius_summary,
    phi,
    predicted_nbb_bases,
    psi,
    sparse_signed_sum,
    theta,
    theta_meet,
    verify_all,
    verify_structure,
    weak_order_lattice,
)
from .nbb import (
    AtomOrder,
    NbbBase,
    is_bounded_below,
    mobius_via_nbb,
    nbb_bases_of,
    shuffled_order,
)
from .permutation import (
    DegreeMismatch,
    DuplicateEntries,
    NotAnInversionSet,
    Permutation,
    contains_pattern,
    enumerate_avoiders,
    from_inversion_set,
    inversion_set,
    standardize,
    weak_join,
    weak_leq,
    weak_meet,
)
from .poset import (
    BoundedLattice,
    CycleDetected,
    FinitePoset,
    NotALattice,
    NotComparable,
    as_lattice,
)

__all__ = [
    "AtomOrder",
    "BOTTOM_LABEL",
    "BoundedLattice",
    "CLAIMS",
    "ClaimResult",
    "CycleDetected",
    "DegreeMismatch",
    "DuplicateEntries",
    "FamilyLattice",
    "FinitePoset",
    "IntPolynomial",
    "NbbBase",
    "NotALattice",
    "NotAnInversionSet",
    "NotComparable",
    "Permutation",
    "TOP_LABEL",
    "as_lattice",
    "build_family",
    "composition_words",
    "contains_pattern",
    "enumerate_avoiders",
    "fib_poly",
    "from_inversion_set",
    "h_poly",
    "inversion_set",
    "is_bounded_below",
    "mobius_summary",
    "mobius_via_nbb",
    "nbb_bases_of",
    "phi",
    "predicted_nbb_bases",
    "psi",
    "shuffled_order",
    "sparse_sets",
    "sparse_signed_sum",
    "standardize",
    "theta",
    "theta_meet",
    "verify_all",
    "verify_structure",
    "weak_join",
    "weak_leq",
    "weak_meet",
    "weak_order_lattice",
]
