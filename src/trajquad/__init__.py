"""Wave functions and energies by quadratures along a single trajectory.

The package splits into exact-symbolic and grid-numeric halves that check
each other:

exactalg   the exact half's one format: sparse Laurent polynomials as
           integer numerators over one denominator, which the kernels
           build and the CLI parses and renders; no arithmetic
oscpert    exact ε-series for the harmonic oscillator with a monomial
           perturbation, by one resolvent sweep on integer numerators
coulomb    closed-form recursion for the perturbed Coulomb ground state on
           an integer kernel that holds the radial-polar ∇² and ∇·∇; the
           uniform-field (Stark) chain runs separated, in parabolic ξ, η
trajectory classical-action grids along one axis
gexpand    the g⁻¹ hierarchy S₁..S₃, E₀..E₃ by quadrature
greens     single-trajectory Green's operators and their identity checks
excited    excited-state classification, exact χ₀, 𝓔₀ and harmonic χ₁
oracle     brute-force tridiagonal eigensolver used only for validation
cli        batch front end (``trajquad`` console script)
"""

__version__ = "0.1.0"
