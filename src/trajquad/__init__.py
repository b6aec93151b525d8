"""Wave functions and energies by quadratures along a single trajectory.

The package splits into exact-symbolic and grid-numeric halves that check
each other:

exactalg   rational scalars, sparse Laurent polynomials, partial
           derivatives and the angular average, canonical rendering and
           its parser
oscpert    exact ε-series for the harmonic oscillator with a monomial
           perturbation (the Γ/γ recursion tables)
coulomb    closed-form recursion for the perturbed Coulomb ground state,
           including the uniform-field (Stark) chain, on an integer kernel
           that holds the radial-polar ∇² and ∇·∇
trajectory classical-action grids along one axis
gexpand    the g⁻¹ hierarchy S₁..S₃, E₀..E₃ by quadrature
greens     single-trajectory Green's operators and their identity checks
excited    excited-state classification, exact χ₀, 𝓔₀ and harmonic χ₁
oracle     brute-force tridiagonal eigensolver used only for validation
cli        batch front end (``trajquad`` console script)
"""

__version__ = "0.1.0"

from .exactalg import MultiPoly, parse_poly  # noqa: F401
from .trajectory import (  # noqa: F401
    Potential1D,
    TrajectoryGrid,
    build_grid,
)
from .gexpand import (  # noqa: F401
    SeriesSolution,
    assemble_energy,
    e0,
    hierarchy,
)
from .greens import (  # noqa: F401
    WaveProfile,
    apply_C,
    apply_Dbar,
    harmonic_profile,
    hermite_coefficients,
    identity_report,
)
from .oscpert import (  # noqa: F401
    PerturbSeries,
    solve_even,
    solve_odd,
)
from .coulomb import (  # noqa: F401
    CoulombSolution,
    assemble,
    solve_isotropic,
    solve_stark,
)
from .excited import (  # noqa: F401
    ExcitedSpec,
    chi0_e0,
    chi1_harmonic,
)
from .oracle import EigenResult, solve_1d, solve_radial  # noqa: F401
