"""Exact-arithmetic toolkit for Fibonacci/Lucas polynomial identities.

Polynomial identities P(F_0(x), ..., F_n(x)) = const (and the Lucas
analogue) correspond to kernel elements of certain locally nilpotent
derivations of the generator ring Q[x_0, ..., x_n].  This package
builds those derivations, constructs kernel elements two independent
ways, builds the Appell-to-Lucas and Appell-to-Fibonacci intertwining
maps three independent ways, and machine-verifies everything with
exact rational arithmetic end to end.
"""

from .exactnum import (
    TruncatedSeries,
    bessel_j0_series,
    bessel_j1_series,
    binomial,
    falling_factorial,
)
from .polyring import Poly, PolyMatrix, X
from .families import (
    APPELL,
    FIBONACCI,
    LUCAS,
    family_poly,
    generating_function_coeffs,
    verify_derivative_formula,
)
from .derivops import Derivation, builtin_image, kernel_member
from .dixmier import (
    LocalizedPoly,
    Slice,
    cayley_closed,
    cayley_constructive,
    closed_power_on_generator,
    dixmier_sigma,
    fibonacci_slice,
    lucas_slice,
)
from .intertwine import (
    AF,
    AL,
    LinearSubstitution,
    alpha,
    b_sequence,
    check_intertwining,
    psi,
    solve_recurrence_af,
    solve_recurrence_al,
)
from .identity import (
    IdentityReport,
    conjecture_scan,
    discriminant_demo,
    emit,
    phi_subst,
    poly_to_latex,
    verify_identity,
)

__version__ = "0.1.0"

__all__ = [
    "TruncatedSeries",
    "bessel_j0_series",
    "bessel_j1_series",
    "binomial",
    "falling_factorial",
    "Poly",
    "PolyMatrix",
    "X",
    "FIBONACCI",
    "LUCAS",
    "APPELL",
    "family_poly",
    "generating_function_coeffs",
    "verify_derivative_formula",
    "Derivation",
    "builtin_image",
    "closed_power_on_generator",
    "kernel_member",
    "Slice",
    "LocalizedPoly",
    "fibonacci_slice",
    "lucas_slice",
    "dixmier_sigma",
    "cayley_closed",
    "cayley_constructive",
    "AL",
    "AF",
    "LinearSubstitution",
    "alpha",
    "b_sequence",
    "psi",
    "check_intertwining",
    "solve_recurrence_al",
    "solve_recurrence_af",
    "IdentityReport",
    "phi_subst",
    "verify_identity",
    "conjecture_scan",
    "discriminant_demo",
    "emit",
    "poly_to_latex",
]
