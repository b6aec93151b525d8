"""Independent brute-force Schrödinger eigensolver for validation.

Second-order central differences on a uniform grid with Dirichlet walls
give a symmetric tridiagonal matrix.  Its diagonal comes from one call of
the potential on the whole node array, so every potential passed here
takes an array and returns an array (or one scalar, which is broadcast).
The lowest eigenvalues are bracketed by bisection on the Sturm
sign-change count, which is deterministic, library-free and much simpler
than the series machinery it checks.  The serial count is monotone in λ
in IEEE arithmetic (Demmel, Dhillon & Ren, Parallel Computing 21 (1995)
1241), so every count made on a matrix is kept and a bisection step that
an earlier count already decides costs none (the LAPACK ``dstebz``
practice).  The values stay those of a bisection that counts at every
step; only the number of counts falls.  Seeds supply those early
decisions.  A guessed eigenvalue is refined by Newton passes on the
determinant, each a sweep of the same pivot recurrence that also counts,
and then bracketed by counts close around the Newton value.  The n-point
grid takes its guesses from every 8th row (the same operator at spacing
8h, bisected from counts climbing from its Gershgorin floor, and only to
a width of 1e-6, since it supplies guesses and no value) and the 2n-point
grid from the n-point eigenvalues.  Newton only places counts, so it
never sets a value.  The count and Newton loops make no per-row zero
test: a sweep that meets an exact zero pivot raises ZeroDivisionError
and reruns on ``_pivots``, the one recurrence that nudges such a pivot,
so every count and iterate is that of a nudging loop.
Each solve runs at two resolutions (n and 2n); the h² Richardson
extrapolation supplies both the reported eigenvalue and its error
estimate.  The fine grid's eigenvectors, built from the Sturm count's own
pivot recurrence run from both walls (a twisted factorization), serve only
to confirm that the box was wide enough.
The Sturm count stays private: ``tests/test_oracle.py`` composes it with
the Dirichlet grid builder to check eigenvalue counts directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainTooSmall, InvalidPotential

# V on an array of nodes: an array of values, or one scalar for every node
_Potential = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class EigenResult:
    """Lowest eigenvalues with grid metadata and discretization estimates."""

    eigenvalues: tuple
    domain: tuple
    points: int
    convergence: tuple


def _sturm_count(diag, off2: float, lam: float) -> int:
    """Number of eigenvalues below lam of the tridiagonal matrix.

    ``diag`` is the diagonal as a list and ``off2`` the square of the
    constant off-diagonal.  The pivot starts at +inf so that the first
    row's ``off2 / q`` term is exactly 0.  The loop makes no zero test.
    An exact zero pivot is not counted, and the next row's division by it
    raises ZeroDivisionError; that rare sweep reruns on ``_pivots``, which
    nudges the pivot to 1e-300, so the count is that of a loop nudging on
    every row.  A zero last pivot raises nothing and counts nothing.
    """
    count = 0
    q = math.inf
    try:
        for d in diag:
            q = d - lam - off2 / q
            if q < 0.0:
                count += 1
    except ZeroDivisionError:
        return sum(q < 0.0 for q in _pivots(diag, off2, lam))
    return count


def _newton_pass(diag, off2: float, lam: float) -> tuple:
    """``_sturm_count`` at lam and the Newton iterate lam - det/det′.

    The sweep runs ``_sturm_count``'s pivot recurrence, so the count is
    its count bit for bit.  It also sums u_i = q_i′/q_i, and the sum is
    (log|det|)′.  With r_i = off2/q_{i-1}, the λ-derivative of
    q_i = d_i - λ - r_i is r_i·u_{i-1} - 1, so u_i = (r_i·u_{i-1} - 1)/q_i.
    An exact zero pivot raises ZeroDivisionError at its own row, and the
    pass reruns on ``_pivots``, taking each r_i from consecutive nudged
    pivots.  A zero sum gives a nan iterate; a sum out of float range
    gives inf or nan, never an exception.
    """
    count = 0
    q = math.inf
    u = total = 0.0
    try:
        for d in diag:
            r = off2 / q
            q = d - lam - r
            if q < 0.0:
                count += 1
            u = (r * u - 1.0) / q
            total += u
    except ZeroDivisionError:
        pivots = [math.inf, *_pivots(diag, off2, lam)]
        count = sum(q < 0.0 for q in pivots)
        u = total = 0.0
        for prev, q in zip(pivots, pivots[1:]):
            u = (off2 / prev * u - 1.0) / q
            total += u
    return count, (lam - 1.0 / total if total else math.nan)


def _bisect_eigenvalues(diag: np.ndarray, off: float, k: int,
                        guesses: tuple = (), width: float = 1e-12) -> list:
    """Bracket the k lowest eigenvalues to ``width`` (abs + rel).

    Each eigenvalue bisects the Gershgorin interval [lo₀, hi₀], but a
    midpoint is counted only when no count (λ′, c) already made on this
    matrix decides it: c ≥ m at λ′ ≤ mid gives count(mid) ≥ m, and c < m
    at λ′ ≥ mid gives count(mid) < m.  The midpoints, hence the values,
    are those of a bisection that counts at every step.  Seed counts make
    the early steps free.  Without guesses they are made once, at
    lo₀ + 2ʲ (energy units) until k eigenvalues lie below.  With guesses,
    level m is seeded just before it is bisected, unless the counts so
    far already bracket it within 1e-10 (abs + rel): Newton passes
    (``_newton_pass``, each also a kept count) refine its guess until a
    step is at most 1e-10 (abs + rel) or no longer halves, and then counts
    at λ ± w, w widened ×8, bracket the level.  w starts at 1e-11
    (abs + rel) after convergence, else at the smaller of the last two
    steps.  A bad guess costs counts, never a wrong value.  Every seed
    loop ends: the Newton steps halve, and the widening counts reach
    ±inf, where k ≤ rows eigenvalues lie below and none above, once the
    entries are finite.  Entries out of float range raise OverflowError.
    ``width`` sets only where each bisection stops; ``_solve`` passes 1e-6
    for the every-8th-row grid, whose values serve as guesses alone.
    """
    off2 = off * off
    dlist = diag.tolist()
    radius = 2.0 * abs(off)
    lo0 = float(np.min(diag)) - radius
    hi0 = float(np.max(diag)) + radius
    if not (math.isfinite(off2) and math.isfinite(lo0)
            and math.isfinite(hi0)):
        raise OverflowError("oracle matrix entries overflow")
    known = []

    def count(lam: float) -> int:
        c = _sturm_count(dlist, off2, lam)
        known.append((lam, c))
        return c

    def bracket(m: int) -> tuple:
        below = max((lam for lam, c in known if c < m), default=-math.inf)
        above = min((lam for lam, c in known if c >= m), default=math.inf)
        return below, above

    def seed(m: int, lam: float) -> None:
        last = math.inf
        while True:
            c, nxt = _newton_pass(dlist, off2, lam)
            known.append((lam, c))
            step = abs(nxt - lam)
            if not step <= 0.5 * last:
                w = min(last, step)
                break
            lam, last = nxt, step
            if step <= 1e-10 * (1.0 + abs(lam)):
                w = 1e-11 * (1.0 + abs(lam))
                break
        while count(lam - w) >= m:
            w *= 8.0
        while count(lam + w) < m:
            w *= 8.0

    if not guesses:
        step = 1.0
        while count(lo0 + step) < k:
            step *= 2.0
    values = []
    for m in range(1, k + 1):
        below, above = bracket(m)
        if guesses and not above - below <= 1e-10 * (1.0 + abs(guesses[m - 1])):
            seed(m, guesses[m - 1])
            below, above = bracket(m)
        lo, hi = lo0, hi0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid >= above:
                hi = mid
            elif mid <= below:
                lo = mid
            elif count(mid) >= m:
                hi = above = mid
            else:
                lo = below = mid
            if hi - lo <= width * (1.0 + abs(mid)):
                break
        values.append(0.5 * (lo + hi))
    return values


def _pivots(rows, off2: float, lam: float):
    """LDLᵀ pivots q_i = d_i - lam - off2/q_{i-1} of the rows, in order.

    ``_sturm_count``'s recurrence, with an exact zero pivot nudged to
    1e-300 so that the next row divides by it; the count and Newton
    sweeps rerun on it when they meet a zero pivot.
    """
    q = math.inf
    for d in rows:
        q = d - lam - off2 / q
        if q == 0.0:
            q = 1e-300
        yield q


def _eigenvector(diag: np.ndarray, off: float, lam: float) -> np.ndarray:
    """Unit eigenvector at the eigenvalue lam by a twisted factorization.

    The pivots of diag - lam run from both walls; they meet at the twist
    k where they most nearly cancel the diagonal.  With z_k = 1 the rest
    of z follows outward as cumulative products of -off/pivot, so tail
    amplitudes keep their relative accuracy (the getvec step of MRRR,
    LAPACK ``dlar1v``).
    """
    n, rows, off2 = len(diag), diag.tolist(), off * off
    fwd = np.fromiter(_pivots(rows, off2, lam), float, n)
    bwd = np.fromiter(_pivots(reversed(rows), off2, lam), float, n)[::-1]
    k = int(np.argmin(np.abs(fwd + bwd - (diag - lam))))
    z = np.ones(n)
    z[:k] = np.cumprod(-off / fwd[:k][::-1])[::-1]
    z[k + 1:] = np.cumprod(-off / bwd[k + 1:])
    return z / np.linalg.norm(z)


def _dirichlet(potential: _Potential, a: float, b: float, m: int) -> tuple:
    """Diagonal of -½d²/dx² + V on the m interior nodes of (a, b), and h."""
    h = (b - a) / (m + 1)
    x = a + h * np.arange(1, m + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        diag = np.broadcast_to(1.0 / h ** 2 + potential(x), (m,))
    if not np.all(np.isfinite(diag)):
        raise InvalidPotential("potential is not finite on the oracle grid")
    return diag, h


def _solve(potential: _Potential, a: float, b: float, n: int, k: int,
           walls: list) -> EigenResult:
    """The k lowest eigenvalues, h²-Richardson extrapolated from n, 2n nodes.

    Each estimate is |E_2n - E_n|/3.  ``walls`` indexes the fine-grid nodes
    next to the walls where every eigenvector must have decayed to 1e-8 of
    its peak; otherwise the box is too small.
    """
    diag, h = _dirichlet(potential, a, b, n)
    guesses = ()
    if n // 8 >= k:
        # every 8th node: the same operator at spacing 8h seeds the n-point
        # grid; its values are off by O((8h)²), so they stop at 1e-6
        sub = diag[7::8] - 1.0 / h ** 2 + 1.0 / (8.0 * h) ** 2
        guesses = tuple(_bisect_eigenvalues(sub, -0.5 / (8.0 * h) ** 2, k,
                                            width=1e-6))
    coarse = _bisect_eigenvalues(diag, -0.5 / h ** 2, k, guesses)
    diag, h = _dirichlet(potential, a, b, 2 * n)
    off = -0.5 / h ** 2
    fine = _bisect_eigenvalues(diag, off, k, tuple(coarse))
    pairs = list(zip(coarse, fine))
    values = tuple((4.0 * ef - ec) / 3.0 for ec, ef in pairs)
    errors = tuple(abs(ef - ec) / 3.0 + 1e-14 * (1.0 + abs(ef))
                   for ec, ef in pairs)
    for lam in fine:
        u = np.abs(_eigenvector(diag, off, lam))
        peak, edge = float(np.max(u)), float(np.max(u[walls]))
        if edge > 1e-8 * peak:
            raise DomainTooSmall(
                f"edge amplitude {edge:.2e} of peak {peak:.2e}")
    return EigenResult(eigenvalues=values, domain=(a, b), points=n,
                       convergence=errors)


def solve_1d(potential: _Potential, domain: tuple, n: int,
             k: int = 1) -> EigenResult:
    """Lowest k eigenvalues of -½d²/dx² + V(x) with Dirichlet walls.

    Solved at n and 2n interior points; eigenvalues are the h²-Richardson
    extrapolants with |E_2n - E_n|/3 as the per-eigenvalue estimate.
    """
    if n < 200:
        raise ValueError("oracle needs at least 200 points")
    if k > n:
        raise ValueError(f"k = {k} exceeds the {n} grid points")
    a, b = float(domain[0]), float(domain[1])
    if not b > a:
        raise ValueError("empty domain")
    return _solve(potential, a, b, n, k, [0, -1])


def solve_radial(g: float, u_potential: _Potential, eps: float, r_max: float,
                 n: int) -> EigenResult:
    """Ground eigenvalue of -½u'' + [-g²/r + εU(r)]u, u(0) = u(r_max) = 0.

    Uniform grid on (0, r_max); the node at r = 0 is a Dirichlet ghost, so
    no Coulomb regularization is applied.  Only the outer edge is checked
    for decay (the inner boundary condition is exact).
    """
    if n < 200:
        raise ValueError("oracle needs at least 200 points")
    if r_max * g ** 2 < 5.0:
        raise DomainTooSmall("r_max·g² too small for a bound Coulomb state")
    return _solve(lambda r: -g ** 2 / r + eps * u_potential(r), 0.0, r_max,
                  n, 1, [-1])

