"""Exception hierarchy shared by all trajquad modules.

Config errors, method breakdowns and tolerance failures map to distinct
CLI exit codes, so they get distinct base classes here.
"""


class TrajquadError(Exception):
    """Base class for all package errors."""


class ConfigError(TrajquadError):
    """Invalid user input: unknown keys, out-of-range parameters, bad grammar."""


class MethodError(TrajquadError):
    """A method precondition failed or the algorithm broke down."""


class ToleranceError(TrajquadError):
    """A requested check did not meet its stated tolerance."""


class VariableMismatch(MethodError):
    """Polynomials over unrelated variable sets were combined."""


class LogSingularity(MethodError):
    """Radial integration hit an r^-1 term (would produce log r)."""


class InvalidPotential(MethodError):
    """Potential violates v >= 0 or the minimum convention."""


class DegenerateMinimum(InvalidPotential):
    """Curvature at the chosen minimum vanishes (or is negative)."""


class HierarchyBreakdown(MethodError):
    """The g⁻¹ hierarchy cannot run: v vanishes on the trajectory, a kink
    that ``build_grid`` refuses, or its slopes overflow floating point."""


class DivergentAtOrigin(MethodError):
    """Single-integral operator applied to a source finite at the origin."""


class TailDivergence(MethodError):
    """Double-integral operator applied to a source without decaying tails."""


class DomainTooSmall(MethodError):
    """Eigenfunction amplitude at the box edge exceeds the decay bound."""
