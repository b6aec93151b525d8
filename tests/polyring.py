"""The ring and calculus operators on polynomials: the tests' reference algebra.

The package builds no polynomial by arithmetic.  Its exact kernels run on
integer numerators over one denominator, and ``MultiPoly`` is that format
with names attached: their parse, render and evaluate boundary.  The tests
check those kernels against independent recursions written on polynomials
(the Coulomb ∇² and ∇·∇, the oscillator operator chain, the excited
transport equation), so the operators those recursions need live here:
zero and monomial builders, sums, negation, subtraction, products, exact
equality, coefficient extraction, partial derivatives, exponent shifts and
the angular average.

``Poly`` stores one Fraction per term and validates what it is given:
its constructor sorts the variables into collation order, checks exponent
lengths and Laurent signs, converts and sums coefficients.  Its results
are again ``Poly``s; ints and Fractions act as constants.  A package
result enters the algebra through ``lift``, and a ``Poly`` reaches the
package through ``lower``, through which it also renders and evaluates.
``MultiPoly`` defines no operators, so when either side of ``==``, ``+``,
``-`` or ``*`` is a ``Poly`` the ``Poly`` method runs, and
``result == P(...)`` compares exactly without a lift.

``parse_poly_fractions`` is the package's parser as it was when it read
numbers as Fractions: the reference its integer-pair parser is checked
against.
"""

import math
import re
from fractions import Fraction

from trajquad.errors import VariableMismatch
from trajquad.exactalg import (_ALIASES, _FACTOR_RE, _LAURENT_OK, _NUMBER_RE,
                               VAR_U, MultiPoly, _split_factors, _split_terms,
                               _var_key, parse_poly)


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"exact coefficient expected, got {type(value).__name__}")


class Poly:
    """Sparse Laurent polynomial with one Fraction coefficient per term.

    ``terms`` maps exponent tuples to nonzero Fractions; ``variables`` is
    the sorted name tuple.  No method mutates ``self``.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, terms=None, variables=()):
        names = tuple(variables)
        if len(set(names)) != len(names):
            raise VariableMismatch(f"duplicate variable in {names!r}")
        order = sorted(range(len(names)), key=lambda i: _var_key(names[i]))
        self.variables = tuple(names[i] for i in order)
        store = {}
        for exps, coeff in (terms or {}).items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            if len(exps) != len(names):
                raise VariableMismatch(
                    f"exponent tuple {exps!r} does not match variables {names!r}")
            exps = tuple(int(exps[i]) for i in order)
            for name, e in zip(self.variables, exps):
                if e < 0 and name not in _LAURENT_OK:
                    raise VariableMismatch(
                        f"negative exponent on non-Laurent variable {name!r}")
            c = store.get(exps)
            store[exps] = coeff if c is None else c + coeff
        self.terms = {e: c for e, c in store.items() if c}

    @classmethod
    def _make(cls, terms, variables):
        """Trusted constructor: sorted variables, Fraction coefficients."""
        poly = object.__new__(cls)
        poly.variables = variables
        poly.terms = {e: c for e, c in terms.items() if c}
        return poly

    def embedded(self, variables):
        return lift(lower(self).embedded(variables))

    def __bool__(self):
        return bool(self.terms)

    def evaluate(self, assignments):
        return lower(self).evaluate(assignments)

    def render(self):
        return lower(self).render()

    def __repr__(self):
        return f"Poly({self.render()!r})"

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
        if isinstance(other, (Poly, MultiPoly)):
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
        rhs = self._coerced(other)
        if rhs is None:
            return NotImplemented
        a, b = self._aligned(self, rhs)
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
    """The same polynomial as a Poly; a Poly is returned as it is."""
    if isinstance(poly, Poly):
        return poly
    return Poly._make({k: Fraction(c, poly.den) for k, c in poly.terms.items()},
                      poly.variables)


def lower(poly):
    """The package's MultiPoly of a Poly: numerators over the lcm of its
    denominators."""
    den = math.lcm(*(c.denominator for c in poly.terms.values()))
    return MultiPoly({k: c.numerator * (den // c.denominator)
                      for k, c in poly.terms.items()}, den, poly.variables)


def parse(text, variables=None):
    return lift(parse_poly(text, variables))


def parse_poly_fractions(text, variables=None):
    """``exactalg.parse_poly`` with Fraction coefficients: each number factor
    is ``Fraction(factor)`` and equal terms are summed as Fractions, brought
    to the lcm of their denominators at the end."""
    text = re.sub(r"\s+", "", text)
    if not text:
        raise ValueError("empty polynomial text")
    seen = set(variables) if variables is not None else set()
    parsed = []
    for term in _split_terms(text):
        sign = Fraction(1)
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        coeff = sign
        powers = {}
        for factor in _split_factors(term):
            if not factor:
                raise ValueError(f"empty factor in term {term!r}")
            if _NUMBER_RE.match(factor):
                coeff *= Fraction(factor)
                continue
            m = _FACTOR_RE.match(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r}")
            name = _ALIASES.get(m.group(1), m.group(1))
            power = int(m.group(2).strip("()")) if m.group(2) else 1
            powers[name] = powers.get(name, 0) + power
            seen.add(name)
        for name, power in powers.items():
            if power < 0 and name not in _LAURENT_OK:
                raise ValueError(f"negative power of non-Laurent variable "
                                 f"{name!r} in term {term!r}")
        parsed.append((coeff, powers))
    if variables is not None:
        extra = seen - set(variables)
        if extra:
            raise ValueError(f"unexpected symbols {sorted(extra)!r}")
    names = tuple(sorted(seen, key=_var_key))
    sums = {}
    for coeff, powers in parsed:
        exps = tuple(powers.get(v, 0) for v in names)
        sums[exps] = sums.get(exps, 0) + coeff
    den = math.lcm(*(c.denominator for c in sums.values()))
    return MultiPoly({e: c.numerator * (den // c.denominator)
                      for e, c in sums.items()}, den, names)
