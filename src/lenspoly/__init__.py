"""Exact arithmetic for lens surgery polynomials and their lattice curves.

The package computes, from a coprime pair (p, k), the symmetrized
polynomial of the associated surgery, the A/dA matrices on the integer
lattice, the non-zero region and its curves, and runs exhaustive
verification sweeps over parameter ranges.
"""

from .alexander import (
    GeneratedPolynomial,
    IntegrityError,
    SymmetricLaurentPolynomial,
    format_polynomial,
    generate,
    polynomial,
    polynomial_to_json,
    top_coefficient,
    torus_polynomial,
)
from .lattice import (
    LatticeView,
    NonZeroCurve,
    NonZeroRegion,
    Window,
    a_entry,
    build_view,
    check_lemma,
    covered_translates,
    da_entry,
    fundamental_window,
    non_zero_region,
    region_contains,
    trace_curves,
)
from .render import ascii_curves, ascii_view, svg_pieces, view_to_json
from .surgery import (
    DerivedInvariants,
    InvalidParameterError,
    SurgeryParams,
    canonicalize_dual_class,
    derive_invariants,
    reduce_mod,
)
from .sweep import (
    CheckpointError,
    SweepConfig,
    SweepRecord,
    SweepSummary,
    Violation,
    compute_record,
    enumerate_params,
    run_sweep,
    verify,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "CheckpointError",
    "DerivedInvariants",
    "GeneratedPolynomial",
    "IntegrityError",
    "InvalidParameterError",
    "LatticeView",
    "NonZeroCurve",
    "NonZeroRegion",
    "SurgeryParams",
    "SweepConfig",
    "SweepRecord",
    "SweepSummary",
    "SymmetricLaurentPolynomial",
    "Violation",
    "Window",
    "a_entry",
    "ascii_curves",
    "ascii_view",
    "build_view",
    "canonicalize_dual_class",
    "check_lemma",
    "compute_record",
    "covered_translates",
    "da_entry",
    "derive_invariants",
    "enumerate_params",
    "format_polynomial",
    "fundamental_window",
    "generate",
    "non_zero_region",
    "polynomial",
    "polynomial_to_json",
    "reduce_mod",
    "region_contains",
    "run_sweep",
    "svg_pieces",
    "top_coefficient",
    "torus_polynomial",
    "trace_curves",
    "verify",
    "verify_theorem",
    "view_to_json",
]
