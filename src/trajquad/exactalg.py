"""Exact rational scalars and sparse multivariate Laurent polynomials.

Every exact result of the package is in this module's format: integer
numerators over one positive denominator, keyed by exponent tuples (or
their packed ints) over a named, canonically ordered variable list.  Negative exponents are
permitted only for the radial variable ``r``; the perturbation strength
``ε`` and the inverse-scale marker ``ĝ`` (which stands for 1/g) never
carry negative powers.

``MultiPoly`` is the boundary of the exact half: user text is parsed into
it, the ``excited`` kernel builds its results as it, and the CLI renders
it (``oscpert`` and ``coulomb`` write their tables from their own integer
pairs).  It carries no arithmetic: besides embedding into more variables
it answers only whether it depends on a variable and renders.  Sums,
products, derivatives, angular averages and the radial-polar Laplacian and
gradient live in those integer kernels, the recursions that need them.

This module owns the kernels' integer format, and ``MultiPoly`` is that
format with its variable names attached: a dict of integer numerators
keyed by exponent tuples over one positive denominator.  ``_nonzero``
drops zero numerators and ``_reduced`` divides numerators and denominator
by their gcd.  Inside a kernel the keys may be packed: ``_packed`` turns an
(a, b, e) triple into one int of fixed-width bit fields, so that
``_add_product``, which accumulates a scaled product, forms each product
key with one integer add.  No rational type
appears even where text meets the format: ``parse_poly`` reads each
number as an integer (numerator, denominator) pair, sums equal terms as
reduced pairs and brings the sums to the lcm of their denominators.  One
term formatter leads out: ``_factors`` writes a term's factor text,
``_term`` prints the term over its gcd-reduced denominator before it,
``_joined`` signs and joins terms and ``_term_value`` evaluates one;
``render`` and the ``oscpert`` and ``coulomb`` tables use them.

A canonical text rendering ("-21/8 * ε^2 * ĝ^5") and a round-trip parser
for the same grammar serve the CLI and the golden tests.  Terms are ordered
graded-lexicographically: by total degree, then by exponents in the fixed
variable order x < r < u < ε < ĝ (other symbols sort after these by name).
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Mapping

from .errors import VariableMismatch

VAR_X = "x"
VAR_R = "r"
VAR_U = "u"
VAR_EPS = "ε"
VAR_GHAT = "ĝ"

# Collation order for the core alphabet; unknown symbols sort after by name.
_CORE_ORDER = {VAR_X: 0, VAR_R: 1, VAR_U: 2, VAR_EPS: 3, VAR_GHAT: 4}

# Input aliases accepted by the parser for the non-ASCII symbols.
_ALIASES = {"eps": VAR_EPS, "epsilon": VAR_EPS, "ghat": VAR_GHAT, "ginv": VAR_GHAT}

# Only r may carry negative (Laurent) exponents.
_LAURENT_OK = frozenset({VAR_R})


def _var_key(name: str) -> tuple[int, str]:
    return (_CORE_ORDER.get(name, len(_CORE_ORDER)), name)


class MultiPoly:
    """Sparse multivariate Laurent polynomial over the rationals.

    ``terms`` maps exponent tuples (one signed integer per variable) to
    nonzero integer numerators over the one positive denominator ``den``;
    ``variables`` is the name tuple.  The constructor trusts its caller
    and only drops zero numerators: the variables must be distinct and in
    collation order, every key an int tuple of their length, every
    numerator an int and ``den`` a positive int.  Instances are
    value-like: no method mutates ``self``.
    """

    __slots__ = ("terms", "den", "variables")

    def __init__(self, terms: Mapping[tuple[int, ...], int], den: int,
                 variables: tuple[str, ...]):
        self.terms = {e: c for e, c in terms.items() if c}
        self.den = den
        self.variables = variables

    # ------------------------------------------------------------ alignment

    def embedded(self, variables: Iterable[str]) -> "MultiPoly":
        """Re-express over a superset of the current variables."""
        names = tuple(sorted(variables, key=_var_key))
        if set(self.variables) - set(names):
            raise VariableMismatch(
                f"cannot embed {self.variables!r} into {names!r}")
        if len(set(names)) != len(names):
            raise VariableMismatch(f"duplicate variable in {names!r}")
        pos = {v: i for i, v in enumerate(names)}
        new_terms: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms.items():
            row = [0] * len(names)
            for v, e in zip(self.variables, exps):
                row[pos[v]] = e
            new_terms[tuple(row)] = coeff
        return MultiPoly(new_terms, self.den, names)

    # -------------------------------------------------------------- queries

    def depends_on(self, var: str) -> bool:
        if var not in self.variables:
            return False
        i = self.variables.index(var)
        return any(e[i] != 0 for e in self.terms)

    # ------------------------------------------------------------- rendering

    def _sorted_terms(self):   # (degree, exponents, numerator), graded
        return sorted([(sum(e), e, c) for e, c in self.terms.items()])

    def render(self) -> str:
        """Canonical text form, e.g. ``-21/8 * ε^2 * ĝ^5``."""
        den, names, terms = self.den, self.variables, []
        for _, exps, coeff in self._sorted_terms():
            text = _term(coeff, den, _factors(zip(names, exps)))
            terms.append((coeff < 0, text))
        return _joined(terms)

    def __repr__(self):
        return f"MultiPoly({self.render()!r})"


def _factors(pairs) -> str:
    """``v`` or ``v^k`` for each (name, power) pair with a nonzero power,
    joined by `` * ``: the factor text that ``_term`` takes."""
    parts = []
    for v, k in pairs:   # a loop: a comprehension's frame costs more here
        if k:
            parts.append(v if k == 1 else f"{v}^{k}")
    return " * ".join(parts)


def _term(num: int, den: int, factors: str) -> str:
    """|num|/den over their gcd, then the factor text of ``_factors``, a
    bare 1 before a factor left out; the sign is ``_joined``'s."""
    g = math.gcd(num, den)
    coeff = f"{abs(num) // g}" if g == den else f"{abs(num) // g}/{den // g}"
    if not factors:
        return coeff
    return factors if coeff == "1" else f"{coeff} * {factors}"


def _joined(terms: list) -> str:
    """(negative, body) pairs as one signed sum; ``0`` when there are none."""
    if not terms:
        return "0"
    text = ("-" if terms[0][0] else "") + terms[0][1]
    for neg, body in terms[1:]:
        text += (" - " if neg else " + ") + body
    return text


def _term_value(num: int, den: int, factors):
    """num/den times each value**power: one term of the float sums the
    ``oscpert`` and ``coulomb`` tables make."""
    term = num / den
    for value, k in factors:
        if k:
            term *= value ** k
    return term


# The exact kernels (``coulomb``, ``oscpert``) carry a polynomial as the
# pair (num, den) of a MultiPoly's terms and denominator, without names.


def _nonzero(num: dict) -> dict:
    return {k: c for k, c in num.items() if c}


def _reduced(num: dict, den: int) -> tuple:
    """Divide numerators and denominator by their gcd."""
    g = math.gcd(den, *num.values())
    if g == 1:
        return num, den
    return {k: c // g for k, c in num.items()}, den // g


def _packed(num: dict, width: int) -> dict:
    """Re-key (a, b, e) exponent triples as ints of ``width``-bit fields.

    (a, b, e) becomes (a << 2·width) + (b << width) + e, so the key of a
    product is the sum of its factors' keys while b and e stay in
    [0, 2^width).  a, on top, may be negative (r⁻¹): floor shifts recover it.
    """
    return {(a << 2 * width) + (b << width) + e: c for (a, b, e), c in num.items()}


def _add_product(out: dict, x: dict, y: dict, scale: int) -> None:
    """out += scale·x·y on numerators keyed by packed exponents.

    A product's key is one int add; the caller sizes the fields so that no
    field of a sum overflows into the next.
    """
    get = out.get
    for kx, cx in x.items():
        cx *= scale
        for ky, cy in y.items():
            key = kx + ky
            out[key] = get(key, 0) + cx * cy


_NUMBER_RE = re.compile(r"^[0-9]+(/[0-9]+|\.[0-9]*)?$|^\.[0-9]+$")
_FACTOR_RE = re.compile(
    r"^([^\W\d_][\w]*)(?:(?:\^|\*\*)(\(-?\d+\)|-?\d+))?$", re.UNICODE)


def _split_terms(text: str) -> list[str]:
    """Split whitespace-free text on top-level + and - signs."""
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > start and text[i - 1] not in "*^(+-":
            terms.append(text[start:i])
            start = i
    terms.append(text[start:])
    return [t for t in terms if t]


def _split_factors(term: str) -> list[str]:
    """Split a term on '*' while keeping '**' power markers intact."""
    factors, i, start = [], 0, 0
    while i < len(term):
        if term[i] == "*":
            if i + 1 < len(term) and term[i + 1] == "*":
                i += 2
                continue
            factors.append(term[start:i])
            start = i + 1
        i += 1
    factors.append(term[start:])
    return factors


def parse_poly(text: str, variables: Iterable[str] | None = None) -> MultiPoly:
    """Parse the canonical polynomial grammar (round-trip of render()).

    Terms are joined by + or -, factors by '*'; a factor is a rational
    (``3``, ``21/8``, ``0.5``) or a power (``x``, ``r^-2``, ``ĝ^5``).
    ASCII aliases eps/ghat are accepted for ε/ĝ.  Malformed text, a term
    with a negative net power of any variable but r, and symbols outside
    ``variables`` when it is given, raise ValueError; a symbol counts
    even when its term's coefficient is zero.  The result is over
    ``variables``, or over the symbols the text names when it is None,
    and equal terms are summed into one dict.
    """
    text = re.sub(r"\s+", "", text)
    if not text:
        raise ValueError("empty polynomial text")
    seen: set[str] = set(variables) if variables is not None else set()
    parsed: list[tuple[int, int, dict[str, int]]] = []
    for term in _split_terms(text):
        num, den = 1, 1
        while term and term[0] in "+-":
            if term[0] == "-":
                num = -num
            term = term[1:]
        powers: dict[str, int] = {}
        for factor in _split_factors(term):
            if not factor:
                raise ValueError(f"empty factor in term {term!r}")
            if _NUMBER_RE.match(factor):
                top, slash, bottom = factor.partition("/")
                if not slash:   # a decimal: its digits over a power of ten
                    whole, _, digits = factor.partition(".")
                    top, bottom = whole + digits, 10 ** len(digits)
                if not int(bottom):
                    raise ValueError(f"zero denominator in factor {factor!r}")
                num, den = num * int(top), den * int(bottom)
                continue
            m = _FACTOR_RE.match(factor)
            if not m:
                raise ValueError(f"cannot parse factor {factor!r}")
            name = _ALIASES.get(m.group(1), m.group(1))
            power = 1
            if m.group(2):
                power = int(m.group(2).strip("()"))
            powers[name] = powers.get(name, 0) + power
            seen.add(name)
        for name, power in powers.items():
            if power < 0 and name not in _LAURENT_OK:
                raise ValueError(f"negative power of non-Laurent variable "
                                 f"{name!r} in term {term!r}")
        parsed.append((num, den, powers))
    if variables is not None:
        extra = seen - set(variables)
        if extra:
            raise ValueError(f"unexpected symbols {sorted(extra)!r}")
    names = tuple(sorted(seen, key=_var_key))
    sums: dict[tuple[int, ...], tuple[int, int]] = {}
    for num, den, powers in parsed:
        exps = tuple(powers.get(v, 0) for v in names)
        top, bottom = sums.get(exps, (0, 1))
        top, bottom = top * den + num * bottom, bottom * den
        g = math.gcd(top, bottom)
        sums[exps] = top // g, bottom // g
    den = math.lcm(*(d for _, d in sums.values()))
    return MultiPoly({e: n * (den // d) for e, (n, d) in sums.items()},
                     den, names)
