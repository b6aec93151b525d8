"""Output checks for every benchmark job.

Exact commands (perturb, stark, coulomb) must reproduce the output bytes
recorded at the seed (``references.json``), and where the literature or a
closed form knows a coefficient, the rendered coefficient must equal it.
Numeric commands are checked the way the paper validates its numerics:
hierarchy energies against the exact quartic coefficients, hierarchy and
Coulomb energies against the brute-force oracle, and the Green's-operator
report against its pinned tolerances.

Every numeric check contributes a tolerance margin, log10(tolerance /
|error|), so an accuracy-for-speed trade shows up as a smaller margin.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from metrics import margin_digits

EPS, GHAT = "ε", "ĝ"

# Independent values.  Stark: hydrogen polarizability and hyperpolariz-
# abilities (Alliluev & Malkin 1974; Silverstone 1978), as E_n of the
# Coulomb grading.  x⁴: Bender–Wu Rayleigh–Schrödinger coefficients.
STARK_LITERATURE = {
    6: {((EPS, 2),): Fraction(-9, 4)},
    12: {((EPS, 4),): Fraction(-3555, 64)},
    18: {((EPS, 6),): Fraction(-2512779, 512)},
    24: {((EPS, 8),): Fraction(-13012777803, 16384)},
}
COULOMB_R2_LITERATURE = {
    4: {((EPS, 1),): Fraction(3)},
    8: {((EPS, 2),): Fraction(-129, 4)},
}
X4_LITERATURE = {
    1: {((GHAT, 2),): Fraction(3, 4)},
    2: {((GHAT, 5),): Fraction(-21, 8)},
}
# E_k of v = x²/2 + c·x⁴ as polynomials in c, and the first omitted
# coefficient: the series is Stieltjes, so truncation after E_3 errs by at
# most |E_4|·g⁻³.
QUARTIC_E = (lambda c: 0.5, lambda c: 0.75 * c, lambda c: -21 / 8 * c ** 2,
             lambda c: 333 / 16 * c ** 3)
QUARTIC_E4 = Fraction(30885, 128)
# Hierarchy tolerances pinned by the package tests (E_0..E_3).
GEXPAND_TOLERANCES = (1e-12, 1e-9, 1e-6, 1e-4)
RADIAL_TOLERANCE = 5e-7
GREENS_TOLERANCES = {
    "dbar_hermite_l1": 1e-7,
    "dbar_hermite_l2": 1e-7,
    "dbar_hermite_l3": 1e-7,
    "dbar_hermite_l4": 1e-7,
    "resolvent[x^2 - <x^2>]": 1e-6,
    "resolvent[x^3]": 1e-6,
    "resolvent[H3]": 1e-6,
    "greens_residual[H2]": 1e-5,
    "greens_residual[x^3]": 1e-5,
    "c_left_inverse[x^4]": 1e-6,
}
FLOAT_RTOL = 1e-12


class CheckFailure(Exception):
    """An output did not match what the job must produce."""


class KnownFailure(Exception):
    """A failure the seed already had, reported consistently by the program."""

    def __init__(self, reason: str, margins: list):
        super().__init__(reason)
        self.margins = margins


@dataclass
class Outcome:
    """``pass``; ``known-fail`` (a seed failure, reported consistently); ``fail``."""

    status: str
    reason: str = ""
    margins: list = field(default_factory=list)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_references(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def parse_rendered(text: str) -> dict:
    """Parse a rendered polynomial into {((var, power), ...): Fraction}."""
    text = text.strip()
    if text == "0":
        return {}
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    pieces = re.split(r" ([+-]) ", text)
    terms = {}
    for i in range(0, len(pieces), 2):
        if i:
            sign = 1 if pieces[i - 1] == "+" else -1
        coeff, powers = Fraction(sign), {}
        for factor in pieces[i].split(" * "):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
            else:
                name, _, power = factor.partition("^")
                powers[name] = powers.get(name, 0) + int(power or 1)
        key = tuple(sorted(powers.items()))
        terms[key] = terms.get(key, 0) + coeff
    return {k: v for k, v in terms.items() if v}


def evaluate(poly: dict, values: dict) -> float:
    total = 0.0
    for powers, coeff in poly.items():
        term = float(coeff)
        for name, power in powers:
            term *= float(values[name]) ** power
        total += term
    return total


def _close(got: float, want: float, rtol: float = FLOAT_RTOL) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * max(abs(want), 1e-300)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _csv_rows(out: str) -> list:
    body = [line for line in out.splitlines() if not line.startswith("# ")]
    return list(csv.reader(body))


def _config_echo(out: str) -> dict:
    if out.lstrip().startswith("{"):
        return json.loads(out)["config"]
    for line in out.splitlines():
        if line.startswith("# config: "):
            return json.loads(line[len("# config: "):])
    raise CheckFailure("no config echo")


def _exact_common(job, rc, out, err, refs) -> list:
    _require(rc == 0, f"exit {rc}: {err.strip()}")
    want = refs.get(job.key)
    _require(want is not None, "no reference hash for this config")
    _require(digest(out) == want, "output bytes differ from the seed reference")
    return _csv_rows(out)


def _check_literature(table: dict, known: dict, label: str) -> None:
    for index, expected in known.items():
        if index in table:
            got = parse_rendered(table[index])
            _require(got == expected, f"{label}{index} = {table[index]} "
                                      f"disagrees with the literature value")


def _even_p1_delta(k: int) -> dict:
    """Δ(k) for ε·x²: E = ½√(g² + 2ε), so Δ(k) = C(½, k)·2^(k-1)·ĝ^(2k-1)."""
    binom = Fraction(1)
    for j in range(k):
        binom *= (Fraction(1, 2) - j) / (j + 1)
    return {((GHAT, 2 * k - 1),): binom * 2 ** (k - 1)}


def _check_perturb(job, rc, out, err, refs, carry):
    rows = _exact_common(job, rc, out, err, refs)
    _require(rows[0] == ["k", "delta_exact", "delta_at_g"], "bad header")
    rows = rows[1:]
    prm = job.params
    _require(len(rows) == prm["order"], "wrong number of orders")
    deltas = {}
    for k, (index, exact, at_g) in enumerate(rows, start=1):
        _require(int(index) == k, "orders out of sequence")
        poly = parse_rendered(exact)
        _require(_close(float(at_g), evaluate(poly, {GHAT: 1.0 / prm["g"]})),
                 f"delta_at_g of order {k} disagrees with delta_exact")
        deltas[k] = exact
    if prm["parity"] == "even" and prm["p"] == 2:
        _check_literature(deltas, X4_LITERATURE, "x^4 Δ")
    if prm["parity"] == "even" and prm["p"] == 1:
        closed = {k: _even_p1_delta(k) for k in deltas}
        _check_literature(deltas, closed, "x^2 Δ")
    if prm["parity"] == "odd" and prm["p"] == 0:
        closed = {k: ({((GHAT, 2),): Fraction(-1, 2)} if k == 2 else {})
                  for k in deltas}
        _check_literature(deltas, closed, "linear Δ")
    return []


def _check_coulomb_family(job, rc, out, err, refs, carry):
    rows = _exact_common(job, rc, out, err, refs)
    _require(rows[0] == ["n", "E_n", "S_n"], "bad header")
    prm = job.params
    energies, assembled = {}, None
    for row in rows[1:]:
        if row[0].isdigit():
            energies[int(row[0])] = row[1]
        elif row[0] == "assembled_energy":
            assembled = float(row[1])
    _require(sorted(energies) == list(range(prm["order"] + 1)), "missing orders")
    _require(assembled is not None, "no assembled energy")
    if job.kind == "stark":
        _check_literature(energies, STARK_LITERATURE, "Stark E")
    elif prm["potential"] == "r^2":
        _check_literature(energies, COULOMB_R2_LITERATURE, "Coulomb r^2 E")
    g, eps = prm["g"], prm["eps"]
    want = sum(g ** (-(2 * n - 4)) * evaluate(parse_rendered(e), {EPS: eps})
               for n, e in energies.items())
    _require(_close(assembled, want, 1e-10), "assembled_energy disagrees with E_n")
    carry["coulomb_energy"] = assembled
    return []


def _check_gexpand(job, rc, out, err, refs, carry):
    _require(rc == 0 and not err, f"exit {rc}: {err.strip()}")
    prm = job.params
    echo = _config_echo(out)
    _require(echo["n"] == prm["n"] and echo["g"] == prm["g"], "config echo differs")
    if prm["format"] == "json":
        res = json.loads(out)["results"]
        e_terms, assembled = res["e_terms"], res["assembled_energy"]
        nodes, s_terms = res["nodes"], res["s_terms"]
    else:
        rows = _csv_rows(out)
        _require(rows[0] == ["k", "E_k"], "bad header")
        e_terms = [float(r[1]) for r in rows[1:5]]
        _require(rows[5][0] == "assembled", "no assembled energy")
        assembled = float(rows[5][1])
        _require(rows[6] == ["x", "S_1", "S_2", "S_3"], "bad node table header")
        table = [[float(v) for v in r] for r in rows[7:]]
        nodes = [r[0] for r in table]
        s_terms = [[r[k] for r in table] for k in (1, 2, 3)]
    n = prm["n"]
    _require(len(nodes) == n and all(len(s) == n for s in s_terms),
             "node table has the wrong size")
    _require(nodes[0] == 0.0 and nodes[-1] == prm["x_max"], "grid ends moved")
    _require(all(math.isfinite(v) for s in s_terms for v in s), "non-finite S_k")
    g, c = prm["g"], prm["c"]
    _require(_close(assembled, sum(g ** (1 - k) * e for k, e in enumerate(e_terms))),
             "assembled energy disagrees with E_k")
    margins = []
    for k, (got, tol) in enumerate(zip(e_terms, GEXPAND_TOLERANCES)):
        want = QUARTIC_E[k](c)
        margin = margin_digits(tol, got - want, want)
        _require(margin > 0, f"E_{k} = {got!r} is off the exact {want!r} by more than {tol}")
        margins.append(margin)
    carry["gexpand_energy"] = assembled
    return margins


def _oracle_row(rc, out, err):
    _require(rc == 0 and not err, f"exit {rc}: {err.strip()}")
    rows = _csv_rows(out)
    _require(rows[0] == ["k", "eigenvalue", "error_estimate"], "bad header")
    _, value, estimate = rows[1]
    value, estimate = float(value), float(estimate)
    _require(math.isfinite(value) and math.isfinite(estimate), "non-finite eigenvalue")
    return value, estimate


def _check_oracle_1d(job, rc, out, err, refs, carry):
    value, estimate = _oracle_row(rc, out, err)
    _require("gexpand_energy" in carry, "no hierarchy energy to compare with")
    c, g = job.params["c"], job.params["g"]
    tol = float(QUARTIC_E4) * c ** 4 / g ** 3 + 3.0 * estimate
    error = carry["gexpand_energy"] - value
    margin = margin_digits(tol, error, value)
    _require(margin > 0, f"hierarchy and oracle differ by {abs(error):.3e} > {tol:.3e}")
    return [margin]


def _check_oracle_radial(job, rc, out, err, refs, carry):
    value, _ = _oracle_row(rc, out, err)
    _require("coulomb_energy" in carry, "no series energy to compare with")
    error = carry["coulomb_energy"] - value
    margin = margin_digits(RADIAL_TOLERANCE, error, value)
    _require(margin > 0, f"series and oracle differ by {abs(error):.3e}")
    return [margin]


def _check_greens(job, rc, out, err, refs, carry):
    _require(rc in (0, 3), f"exit {rc}: {err.strip()}")
    rows = _csv_rows(out)
    _require(rows[0] == ["identity", "grid", "max_residual", "tolerance", "pass"],
             "bad header")
    rows = rows[1:]
    _require(sorted(r[0] for r in rows) == sorted(GREENS_TOLERANCES),
             "identity set changed")
    margins, failing = [], []
    for name, grid, residual, tolerance, passed in rows:
        residual, tolerance = float(residual), float(tolerance)
        _require(tolerance == GREENS_TOLERANCES[name], f"{name} tolerance changed")
        _require(int(grid) == job.params["n"], "grid size echo differs")
        _require(math.isfinite(residual), f"{name} residual is not finite")
        _require(passed == str(residual < tolerance), f"{name} pass flag is wrong")
        margins.append(margin_digits(tolerance, residual))
        if residual >= tolerance:
            failing.append(name)
    _require((rc == 3) == bool(failing), "exit code disagrees with the report")
    if failing:
        _require(err.startswith("tolerance failure"), "no tolerance-failure message")
        _require(not job.params["passing_at_seed"],
                 f"{', '.join(failing)} failed; this config passed at the seed")
        raise KnownFailure(f"tolerance failure in {', '.join(failing)}", margins)
    _require(not err, f"unexpected stderr: {err.strip()}")
    return margins


_CHECKS = {
    "perturb": _check_perturb,
    "stark": _check_coulomb_family,
    "coulomb": _check_coulomb_family,
    "gexpand": _check_gexpand,
    "oracle-1d": _check_oracle_1d,
    "oracle-radial": _check_oracle_radial,
    "greens": _check_greens,
}


def check(job, rc, out, err, refs: dict, carry: dict) -> Outcome:
    """Check one job's exit code and output; ``carry`` links jobs of one unit."""
    try:
        margins = _CHECKS[job.kind](job, rc, out, err, refs, carry)
    except KnownFailure as exc:
        return Outcome("known-fail", str(exc), exc.margins)
    except CheckFailure as exc:
        return Outcome("fail", str(exc))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Outcome("fail", f"unparseable output: {type(exc).__name__}: {exc}")
    return Outcome("pass", "", margins)
