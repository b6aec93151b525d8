"""The ring and calculus operators on MultiPoly: the tests' reference algebra.

The package builds no polynomial by arithmetic.  Its exact kernels run on
integer numerators, and ``MultiPoly`` is their parse, render and evaluate
boundary.  The tests check those kernels against independent recursions
written on polynomials (the Coulomb ∇² and ∇·∇, the oscillator operator
chain, the excited transport equation), so the operators those
recursions need live here: zero and monomial builders, sums, negation,
subtraction, products, exact equality, coefficient extraction, partial
derivatives, exponent shifts and the angular average.

``Poly`` is a ``MultiPoly`` whose results are again ``Poly``s; ints and
Fractions act as constants.  A package result enters the algebra through
``lift``.  When either side of ``==``, ``+``, ``-`` or ``*`` is a
``Poly``, Python calls the ``Poly`` method first, so ``result == P(...)``
compares exactly without a lift.
"""

from fractions import Fraction

from trajquad.errors import VariableMismatch
from trajquad.exactalg import _LAURENT_OK, VAR_U, MultiPoly, parse_poly


class Poly(MultiPoly):
    __slots__ = ()

    @classmethod
    def const(cls, value, variables):
        names = tuple(variables)
        return cls({(0,) * len(names): value}, names)

    @classmethod
    def zero(cls, variables=()):
        return cls({}, variables)

    @classmethod
    def monomial(cls, coeff, powers, variables=None):
        names = tuple(variables) if variables is not None else tuple(powers)
        return cls({tuple(powers.get(v, 0) for v in names): coeff}, names)

    @classmethod
    def var(cls, name, variables):
        names = tuple(variables)
        if name not in names:
            raise VariableMismatch(f"{name!r} not among variables {names!r}")
        return cls({tuple(int(v == name) for v in names): 1}, names)

    def _coerced(self, other):
        if isinstance(other, MultiPoly):
            return lift(other)
        if isinstance(other, (int, Fraction)):
            return Poly.const(other, self.variables)
        return None

    @staticmethod
    def _aligned(a, b):
        if a.variables == b.variables:
            return a, b
        sa, sb = set(a.variables), set(b.variables)
        if sa <= sb:
            return a.embedded(b.variables), b
        if sb <= sa:
            return a, b.embedded(a.variables)
        raise VariableMismatch(
            f"incompatible variable sets {a.variables!r} and {b.variables!r}")

    def __add__(self, other):
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        a, b = self._aligned(self, rhs)
        out = dict(a.terms)
        for exps, coeff in b.terms.items():
            c = out.get(exps)
            out[exps] = coeff if c is None else c + coeff
        return self._make(out, a.variables)

    __radd__ = __add__

    def __neg__(self):
        return self._make({e: -c for e, c in self.terms.items()}, self.variables)

    def __sub__(self, other):
        rhs = self._coerced(other)
        return NotImplemented if rhs is None else self + -rhs

    def __rsub__(self, other):
        rhs = self._coerced(other)
        return NotImplemented if rhs is None else -self + rhs

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._make({e: c * other for e, c in self.terms.items()},
                              self.variables)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        a, b = self._aligned(self, other)
        out = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                key = tuple(map(int.__add__, ea, eb))
                out[key] = out.get(key, 0) + ca * cb
        return self._make(out, a.variables)

    __rmul__ = __mul__

    def __eq__(self, other):
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        try:
            a, b = self._aligned(self, rhs)
        except VariableMismatch:
            return False
        return a.terms == b.terms

    def coeff_of(self, var, power):
        """Polynomial coefficient of var**power, over the same variables."""
        i = self._index(var)
        return self._make({e[:i] + (0,) + e[i + 1:]: c
                           for e, c in self.terms.items() if e[i] == power},
                          self.variables)

    def constant(self):
        """The constant term (all exponents zero)."""
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    def _index(self, var):
        try:
            return self.variables.index(var)
        except ValueError:
            raise VariableMismatch(
                f"{var!r} not among variables {self.variables!r}") from None

    def differentiate(self, var):
        """Exact termwise partial derivative (Laurent rule included)."""
        if var not in self.variables:
            return Poly.zero(self.variables)
        i = self._index(var)
        return self._make({e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i]
                           for e, c in self.terms.items() if e[i]},
                          self.variables)

    def shifted(self, var, delta):
        """Multiply by var**delta through an exponent shift."""
        i = self._index(var)
        if var not in _LAURENT_OK and any(e[i] + delta < 0 for e in self.terms):
            raise VariableMismatch(
                f"negative exponent on non-Laurent variable {var!r}")
        return self._make({e[:i] + (e[i] + delta,) + e[i + 1:]: c
                           for e, c in self.terms.items()}, self.variables)

    def angular_average(self):
        """(1/2)∫_{-1}^{1} · du over u = cos a, exact; the result is free of u."""
        if VAR_U not in self.variables:
            return self
        i = self._index(VAR_U)
        out = {}
        for e, c in self.terms.items():
            if e[i] % 2 == 0:
                key = e[:i] + (0,) + e[i + 1:]
                out[key] = out.get(key, 0) + c / (e[i] + 1)
        return self._make(out, self.variables)


def lift(poly):
    """The same polynomial as a Poly."""
    return Poly._make(poly.terms, poly.variables)


def parse(text, variables=None):
    return lift(parse_poly(text, variables))
