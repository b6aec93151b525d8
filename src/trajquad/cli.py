"""Batch front end: configuration-driven runs with CSV/JSON emission.

One command per invocation; parameters come from a JSON config file,
command-line flags, or both (flags override the file).  Every output
embeds the resolved config echo and the library version, so identical
configs reproduce identical files: byte-identical on the exact-rational
paths (perturb/coulomb/stark), within printed tolerance elsewhere.

The command table ``_COMMANDS`` and the parameter table ``_PARAMS`` are
the single source of truth: the command list and the flags derive from
them, and ``RunConfig`` alone converts and checks values.

Every layer but ``errors`` and ``exactalg``, which each invocation uses,
loads on first use, so a command executes only its own layer: perturb
runs ``oscpert``, coulomb and stark run ``coulomb``, excited runs
``excited``, and no exact command loads numpy.

Flags come from the table ``_FLAGS``, spelled in full, as ``--flag value``
or ``--flag=value``; the value is taken verbatim and the last repeat wins.

Exit codes: 0 ok (also for ``--help``), 1 config error (any invalid flag,
value, format or command, or a run too large for memory), 2 method
breakdown (e.g. a radial log singularity), 3 tolerance failure (an identity
check above bound; the report is still written).
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from itertools import chain

from . import __version__
from .errors import ConfigError, MethodError, TailDivergence, ToleranceError
from .exactalg import VAR_R, parse_poly


def _lazy(name: str):
    """The layer ``trajquad.<name>``, executed on its first attribute access.

    ``sys.modules`` and the package hold it under its usual name, so a
    later ``import trajquad.<name>`` returns this same module.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


(coulomb_mod, excited_mod, oscpert_mod, numerics_mod, trajectory_mod,
 gexpand_mod, greens_mod, oracle_mod) = map(
    _lazy, "coulomb excited oscpert numerics trajectory gexpand greens "
    "oracle".split())

FORMATS = ("csv", "json")


def _finite(value) -> float:
    """float() that also rejects bools, nan and ±inf.

    Checks config values, the floats the exact commands evaluate and
    gexpand's energies; a runner's nan or ±inf exits 1 as a value out of
    floating-point range.
    """
    if isinstance(value, bool):
        raise TypeError("a bool is not a number")
    x = float(value)
    if not math.isfinite(x):
        raise OverflowError(f"{x!r} is not finite")
    return x


def _text(value) -> str:
    """A config value that is already a string; 5 or true is not text."""
    if not isinstance(value, str):
        raise TypeError(f"not a string: {value!r}")
    return value


def _integer(value) -> int:
    """int() of a non-bool int or a decimal-integer string.

    A config file's 2.9 or true is rejected, not truncated to 2 or 1.
    """
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"not an integer: {value!r}")
    return int(value)


def _positive(x) -> bool:
    return x > 0


def _non_negative(x) -> bool:
    return x >= 0


# key -> (type, help); each key has the same type in every command
_PARAMS = {
    "potential": (_text, "polynomial in x (or r)"),
    "x-max": (_finite, "trajectory extent"),
    "n": (_integer, "grid point count"),
    "order": (_integer, "expansion order"),
    "g": (_finite, "potential scale g"),
    "origin": (_finite, "potential minimum"),
    "direction": (_integer, "trajectory direction ±1"),
    "parity": (_text, "even or odd"),
    "p": (_integer, "perturbation half-degree"),
    "eps": (_finite, "perturbation strength ε"),
    "half-width": (_finite, "greens grid half width"),
    "freqs": (_text, "comma-separated frequencies"),
    "occupations": (_text, "semicolon-separated occupation tuples"),
    "mode": (_text, "oracle mode: 1d or radial"),
    "domain": (_finite, "oracle half width (1d) or r_max (radial)"),
    "k": (_integer, "eigenvalue count (oracle)"),
}


class RunConfig:
    """Validated command plus parameter map (unknown keys rejected)."""

    def __init__(self, command: str, parameters: dict):
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        schema = _COMMANDS[command][1]
        unknown = set(parameters) - set(schema)
        if unknown:
            raise ConfigError(f"unknown keys for {command}: {sorted(unknown)}")
        resolved = {}
        for key, (default, check) in schema.items():
            if key not in parameters and callable(default):
                default = default(resolved)  # follows the keys before it
            value = parameters.get(key, default)
            if value is None:
                raise ConfigError(f"{command} requires --{key}")
            try:
                value = _PARAMS[key][0](value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad value for {key!r}: {value!r}") from exc
            if check is not None and not check(value):
                raise ConfigError(f"value out of range for {key!r}: {value!r}")
            resolved[key] = value
        self.command, self.parameters = command, resolved

    def __eq__(self, other):
        return type(other) is RunConfig and vars(self) == vars(other)

    def __repr__(self):
        return f"RunConfig({self.command!r}, {self.parameters!r})"

    def to_dict(self) -> dict:
        return {"command": self.command, **self.parameters}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        data = dict(data)
        try:
            command = data.pop("command")
        except KeyError:
            raise ConfigError("config must name a command") from None
        return cls(command=command, parameters=data)


def _run_gexpand(p: dict):
    grid = trajectory_mod.build_grid(
        trajectory_mod.coefficients(p["potential"]), p["x-max"], p["n"],
        origin=p["origin"], direction=p["direction"])
    sol = gexpand_mod.hierarchy(grid, p["order"])
    energy = _finite(gexpand_mod.assemble_energy(sol, p["g"]))
    payload = {
        "e_terms": [_finite(e) for e in sol.e_terms],
        "assembled_energy": energy,
        "nodes": grid.nodes.tolist(),
        "s_terms": [s.tolist() for s in sol.s_terms],
    }
    lines = ["k,E_k"]
    lines += [f"{k},{e!r}" for k, e in enumerate(payload["e_terms"])]
    lines.append(f"assembled,{energy!r}")
    lines.append(",".join(["x", *(f"S_{k}" for k in range(1, sol.order + 1))]))
    # repr a column at a time: one map per column, not one per row
    columns = [payload["nodes"], *payload["s_terms"]]
    table = map(",".join, zip(*(map(repr, c) for c in columns)))
    return payload, chain(lines, table), None


def _run_perturb(p: dict):
    solver = oscpert_mod.solve_even if p["parity"] == "even" \
        else oscpert_mod.solve_odd
    rows, shift = solver(p["p"], p["order"]).table(1.0 / p["g"], _finite)
    payload = {"parity": p["parity"], "p": p["p"], "shift_polynomial": shift,
               "deltas": [{"k": k, "delta_exact": text, "delta_at_g": value}
                          for k, text, value in rows]}
    lines = ["k,delta_exact,delta_at_g"]
    lines += [f"{k},\"{text}\",{value!r}" for k, text, value in rows]
    return payload, lines, None


def _coulomb_tables(sol, g: float, eps: float):
    e_terms, s_terms, symbolic, energy = sol.table(g, eps, _finite)
    payload = {"e_terms": e_terms, "s_terms": s_terms,
               "assembled_symbolic": symbolic, "assembled_energy": energy}
    lines = ["n,E_n,S_n"]
    lines += [f"{n},\"{e}\",\"{s}\"" for n, (e, s)
              in enumerate(zip(e_terms, s_terms))]
    lines.append(f"assembled_symbolic,\"{symbolic}\"")
    lines.append(f"assembled_energy,{energy!r}")
    return payload, lines, None


def _run_coulomb(p: dict):
    u_poly = parse_poly(p["potential"], (VAR_R,))
    sol = coulomb_mod.solve_isotropic(u_poly, p["order"])
    return _coulomb_tables(sol, p["g"], p["eps"])


def _run_stark(p: dict):
    sol = coulomb_mod.solve_stark(p["order"])
    return _coulomb_tables(sol, p["g"], p["eps"])


def _run_greens_check(p: dict):
    try:
        report = greens_mod.identity_report(p["g"], p["n"], p["half-width"])
    except TailDivergence as exc:
        raise TailDivergence(f"{exc} at half-width {p['half-width']!r}; "
                             f"a wider --half-width may pass") from exc
    payload = {"checks": report}
    lines = ["identity,grid,max_residual,tolerance,pass"]
    lines += [f"{r['identity']},{r['grid']},{r['max_residual']!r},"
              f"{r['tolerance']!r},{r['pass']}" for r in report]
    if all(r["pass"] for r in report):
        return payload, lines, None
    worst = max(report, key=lambda r: r["max_residual"] / r["tolerance"])
    return payload, lines, (f"identity {worst['identity']} at "
                            f"{worst['max_residual']:.3e} exceeds "
                            f"{worst['tolerance']:.0e}")


def _run_excited(p: dict):
    freqs = tuple(s.strip() for s in p["freqs"].split(","))
    occupations = [tuple(int(v) for v in block.split(","))
                   for block in p["occupations"].split(";")]
    levels = []
    for occ in occupations:
        spec = excited_mod.ExcitedSpec(freqs, occ)
        chi0, e0 = excited_mod.chi0_e0(spec)
        levels.append((occ, e0, chi0, excited_mod.chi1_harmonic(spec)))
    # levels that share 𝓔₀ form one multiplet, numbered by rising 𝓔₀
    group_id = {e0: i for i, e0 in enumerate(sorted({lv[1] for lv in levels}))}
    rows = [{"occupation": list(occ), "E0": str(e0), "E1": "0",
             "chi0": chi0.render(), "chi1": chi1.render(),
             "multiplet": group_id[e0]} for occ, e0, chi0, chi1 in levels]
    payload = {"freqs": [str(f) for f in freqs], "levels": rows}
    lines = ["occupation,E0,E1,chi0,chi1,multiplet"]
    lines += [f"\"{','.join(map(str, r['occupation']))}\",{r['E0']},{r['E1']},"
              f"\"{r['chi0']}\",\"{r['chi1']}\",{r['multiplet']}" for r in rows]
    return payload, lines, None


def _run_oracle(p: dict):
    if p["mode"] == "1d":
        if p["g"] != 1.0 or p["eps"] != 0.0:
            raise ValueError("the 1d oracle takes no g or eps; "
                             "write them into the potential")
        coeffs = trajectory_mod.coefficients(p["potential"])
        result = oracle_mod.solve_1d(
            lambda x: numerics_mod._horner(coeffs, x),
            (-p["domain"], p["domain"]), p["n"], p["k"])
    else:
        if p["k"] != 1:
            raise ValueError("the radial oracle returns the ground state only")
        coeffs = trajectory_mod.coefficients(p["potential"], VAR_R)
        result = oracle_mod.solve_radial(
            p["g"], lambda r: numerics_mod._horner(coeffs, r), p["eps"],
            p["domain"], p["n"])
    payload = {"eigenvalues": list(result.eigenvalues),
               "convergence": list(result.convergence),
               "domain": list(result.domain), "points": result.points}
    lines = ["k,eigenvalue,error_estimate"]
    lines += [f"{k},{e!r},{c!r}" for k, (e, c) in
              enumerate(zip(result.eigenvalues, result.convergence))]
    return payload, lines, None


# command -> (runner, key -> (default, validator)); required keys default to
# None, and a callable default is computed from the keys resolved before it.
# A runner returns (payload, iterable of csv lines, failure or None).
_COMMANDS = {
    "gexpand": (_run_gexpand, {
        "potential": (None, None),
        "x-max": (2.5, _positive),
        "n": (2001, lambda v: v >= 16),
        "order": (3, lambda v: 0 <= v <= gexpand_mod.MAX_ORDER),
        "g": (1.0, _positive),
        "origin": (0.0, None),
        "direction": (1, lambda v: v in (-1, 1)),
    }),
    "perturb": (_run_perturb, {
        "parity": (None, lambda v: v in ("even", "odd")),
        "p": (None, _non_negative),
        "order": (2, _non_negative),
        "g": (1.0, _positive),
    }),
    "coulomb": (_run_coulomb, {
        "potential": ("r^2", None),
        "order": (8, lambda v: v >= 1),
        "g": (1.0, _positive),
        "eps": (0.0, None),
    }),
    "stark": (_run_stark, {
        "order": (12, lambda v: v >= 2),
        "g": (1.0, _positive),
        "eps": (0.0, None),
    }),
    "greens-check": (_run_greens_check, {
        "g": (1.0, _positive),
        "n": (4001, lambda v: v >= 101 and v % 2 == 1),
        # the identities scale with z = √g·x, so at g > 1 the grid shrinks
        # with the Gaussian e^{-gx²}; at g ≤ 1 it stays 8 (no rule fits
        # there: g = 0.25 needs a half-width near 11, set by hand)
        "half-width": (lambda p: min(8.0, 8.0 / math.sqrt(p["g"])), _positive),
    }),
    "excited": (_run_excited, {
        "freqs": ("1", None),
        "occupations": (None, None),
    }),
    "oracle": (_run_oracle, {
        "potential": (None, None),
        "mode": ("1d", lambda v: v in ("1d", "radial")),
        "domain": (8.0, _positive),
        "n": (1200, lambda v: v >= 200),
        "k": (1, _positive),
        "g": (1.0, _positive),
        "eps": (0.0, None),
    }),
}
COMMANDS = tuple(_COMMANDS)


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    With an indent, json.dumps runs its pure-Python encoder.  Here a list
    of scalars is encoded by the C encoder in one call and its ", "
    separators become line breaks, which is exact when the text holds no
    string, list or dict (no '"', '[' or '{'); else it goes item by item.
    Dict keys are strings.
    """
    inner = indent + "  "
    if not isinstance(value, (dict, list, tuple)) or not value:
        return json.dumps(value)
    if isinstance(value, dict):
        items = (f"{json.dumps(k)}: {_json(v, inner)}"
                 for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if not isinstance(value[0], (dict, list, tuple, str)):
        body = json.dumps(value)[1:-1]
        if not ('"' in body or "[" in body or "{" in body):
            return "[" + inner + body.replace(", ", "," + inner) + indent + "]"
    items = (_json(v, inner) for v in value)
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _write(out, fmt: str, config: RunConfig, payload: dict, lines) -> None:
    if fmt == "json":
        document = {"version": __version__, "config": config.to_dict(),
                    "results": payload}
        text = _json(document) + "\n"
    else:
        header = [f"# trajquad {__version__}",
                  f"# config: {json.dumps(config.to_dict(), sort_keys=True)}"]
        text = "\n".join(chain(header, lines)) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def run(config: RunConfig, out=None, fmt: str = "csv") -> int:
    """Execute one command and emit its artifact, also when a check fails."""
    if fmt not in FORMATS:
        raise ConfigError(f"unknown format {fmt!r}")
    try:
        payload, lines, failure = _COMMANDS[config.command][0](config.parameters)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except (OverflowError, ZeroDivisionError) as exc:
        # float ** raises OverflowError(errno, reason); print the reason alone
        reason = exc.args[-1] if exc.args else exc
        raise ConfigError(f"values out of floating-point range: {reason}") from exc
    _write(out, fmt, config, payload, lines)
    if failure is not None:
        raise ToleranceError(failure)
    return 0


# flag -> help: the front end's own four, then every parameter
_FLAGS = {"config": "JSON config file (flags override it)",
          "command": "one of " + ", ".join(COMMANDS),
          "out": "output path (stdout when omitted)",
          "format": " or ".join(FORMATS) + " (default csv)",
          **{key: help_text for key, (_, help_text) in _PARAMS.items()}}


def _read_flags(argv) -> dict | None:
    """argv as {flag: value}; None when it asks for help."""
    flags, tokens = {}, iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        name, eq, value = token.partition("=")
        if name[:2] != "--" or name[2:] not in _FLAGS:
            raise ConfigError(f"unknown flag {name!r} (flags are spelled in "
                              f"full; --help lists them)")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise ConfigError(f"{name} needs a value")
        flags[name[2:]] = value
    return flags


def _config_from_args(flags: dict) -> RunConfig:
    data: dict = {}
    if flags.get("config"):
        try:
            with open(flags["config"], "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
    data.update((key, value) for key, value in flags.items() if key in _PARAMS)
    if flags.get("command"):
        data["command"] = flags["command"]
    return RunConfig.from_dict(data)


def main(argv=None) -> int:
    try:
        flags = _read_flags(sys.argv[1:] if argv is None else argv)
        if flags is None:
            width = max(map(len, _FLAGS)) + 2
            print("usage: trajquad [--flag VALUE | --flag=VALUE]...",
                  *(f"  --{f:<{width}}{text}" for f, text in _FLAGS.items()),
                  sep="\n")
            return 0
        return run(_config_from_args(flags), out=flags.get("out"),
                   fmt=flags.get("format", "csv"))
    except BrokenPipeError:
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # the text is written whole after the run, so stdout is still empty
        print(f"config error: out of memory: {str(exc) or 'no reason given'}",
              file=sys.stderr)
        return 1
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return 3
    except MethodError as exc:
        print(f"method breakdown: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
