"""The Coulomb and Stark tables against the MultiPoly path they replaced.

``CoulombSolution.table`` writes every E_n and S_n text, the symbolic
energy and the numeric energy straight from the chain's packed integer
pairs.  Here the same pairs are unpacked into (a, b, e) keys and given
their names as ``MultiPoly``s (``PolyView``), rendered and evaluated as
the CLI once did, and the two are compared byte for byte.

This module imports neither numpy nor hypothesis, so the numpy-free CI
stage runs it: the coulomb and stark table path must never load numpy.
"""

import pytest

from trajquad import cli, coulomb, exactalg
from trajquad.coulomb import solve_isotropic, solve_perturbed, solve_stark
from trajquad.errors import LogSingularity
from trajquad.exactalg import VAR_EPS, VAR_R, VAR_U, MultiPoly, parse_poly

RUE = (VAR_R, VAR_U, VAR_EPS)


def unpacked(num, width):
    """The (a, b, e) triples back from ``exactalg._packed`` keys."""
    top, mask = 2 * width, (1 << width) - 1
    return {(k >> top, (k >> width) & mask, k & mask): c
            for k, c in num.items()}


class PolyView:
    """A ``CoulombSolution``'s S_n and E_n as ``MultiPoly``s over (r, u, ε).

    ``s_terms[n]`` is S_n and ``e_terms[n]`` is E_n, built from the
    solution's packed pairs: the form ``solve_perturbed`` returned before
    the tables were written from the integers.
    """

    def __init__(self, sol):
        self.order = sol.order
        self.s_terms = [MultiPoly(unpacked(num, sol.width), den, RUE)
                        for num, den in sol.s_terms]
        self.e_terms = [MultiPoly(unpacked(num, sol.width), den, RUE)
                        for num, den in sol.e_terms]


def assemble(view, g, eps):
    """Numeric energy E = Σ g^{-(2n-4)} E_n(ε) by ``MultiPoly.evaluate``."""
    if g <= 0:
        raise ValueError("g must be positive")
    return sum(g ** (-(2 * n - 4)) * view.e_terms[n].evaluate({VAR_EPS: eps})
               for n in range(view.order + 1))


def reference_tables(sol, g, eps):
    """``cli._coulomb_tables`` as it rendered and evaluated MultiPolys."""
    view = PolyView(sol)
    energy = cli._finite(assemble(view, g, eps))
    e_terms = [e.render() for e in view.e_terms]
    payload = {
        "e_terms": e_terms,
        "s_terms": [s.render() for s in view.s_terms],
        "assembled_symbolic": coulomb.assemble_energy_symbolic(e_terms),
        "assembled_energy": energy,
    }
    lines = ["n,E_n,S_n"]
    lines += [f"{n},\"{e}\",\"{s}\"" for n, (e, s)
              in enumerate(zip(payload["e_terms"], payload["s_terms"]))]
    lines.append(f"assembled_symbolic,\"{payload['assembled_symbolic']}\"")
    lines.append(f"assembled_energy,{energy!r}")
    return payload, lines, None


def reference_run_coulomb(p):
    u_poly = parse_poly(p["potential"], (VAR_R,))
    return reference_tables(solve_isotropic(u_poly, p["order"]),
                            p["g"], p["eps"])


def reference_run_stark(p):
    return reference_tables(solve_stark(p["order"]), p["g"], p["eps"])


GS = ("1e-12", "0.5", "1", "3", "1e3")
EPSS = ("0", "0.001", "-0.3")


@pytest.mark.parametrize("potential", [None, "r", "r^2", "r^3", "r^4",
                                       "r^2 + r^3"])
def test_cli_matches_the_multipoly_reference(potential, monkeypatch, capsys):
    # stdout (csv and json), exit code and stderr, byte for byte: stark at
    # orders 2-30, coulomb at orders 1-16; at g = 1e-12, g^(4-2n) overflows
    # from n = 15, so those orders must exit 1 with the same message
    command = "stark" if potential is None else "coulomb"
    reference = reference_run_stark if potential is None \
        else reference_run_coulomb
    runner, schema = cli._COMMANDS[command]
    orders = range(2, 31) if potential is None else range(1, 17)
    seen = set()
    for order in orders:
        for g in GS:
            for eps in EPSS:
                for fmt in ("csv", "json"):
                    argv = ["--command", command, "--order", str(order),
                            "--g", g, "--eps", eps, "--format", fmt]
                    if potential is not None:
                        argv += ["--potential", potential]
                    got = cli.main(argv), *capsys.readouterr()
                    monkeypatch.setitem(cli._COMMANDS, command,
                                        (reference, schema))
                    want = cli.main(argv), *capsys.readouterr()
                    monkeypatch.setitem(cli._COMMANDS, command,
                                        (runner, schema))
                    assert got == want, argv
                    seen.add(got[0])
    assert seen == {0, 1}, seen


# angular perturbations, which the CLI does not take: u terms in S_n
ANGULAR = ["r * u", "r^2 * u^2 + r * u", "1/3 * r^3 * u - 2 * r^2",
           "r^3 * u^3 - 5/7 * r * u + r^2 * u^2",
           "-3/4 * r^4 * u^2 + 5/2 * r^2 + 1/5 * r^3 * u"]


@pytest.mark.parametrize("text", ANGULAR)
def test_angular_tables_match_the_multipoly_reference(text):
    u_poly = parse_poly(text, (VAR_R, VAR_U))
    for order in range(1, 9):
        sol = solve_perturbed(u_poly, order)
        for g in (0.5, 1.0, 3.0):
            for eps in (0.0, 0.001, -0.3):
                e_texts, s_texts, symbolic, energy = sol.table(g, eps, float)
                payload = reference_tables(sol, g, eps)[0]
                assert e_texts == payload["e_terms"]
                assert s_texts == payload["s_terms"]
                assert symbolic == payload["assembled_symbolic"]
                assert repr(energy) == repr(payload["assembled_energy"])
    assert any("u" in s for s in s_texts), text


def test_energy_sums_each_e_n_in_evaluate_order():
    # a sum of two terms is the same in either order, so only an E_n with
    # three or more ε-powers, as r + r² + r³ + r⁴ gives from order 12,
    # tells the order apart: here a reversed sum changes the bits
    sol = solve_isotropic(parse_poly("r + r^2 + r^3 + r^4", (VAR_R,)), 20)
    assert max(len(num) for num, _ in sol.e_terms) == 4
    for g in (0.5, 1.0, 1.7):
        for eps in (0.001, -0.3, 0.37, 1.7, -2.3):
            want = reference_tables(sol, g, eps)[0]["assembled_energy"]
            assert repr(sol.table(g, eps, float)[3]) == repr(want), (g, eps)


@pytest.mark.parametrize("text", ["r * u^3", "r^2 * u^4 + r", "r^3 * u^5",
                                  "r^4 * u^6", "2/3 * r * u^3 - r^2 * u^4"])
def test_log_singularity_message_matches_the_multipoly_reference(
        text, monkeypatch):
    # the r^-1 coefficient is rendered from the packed keys; rendered as a
    # MultiPoly over the unpacked keys instead, the message is the same
    u_poly = parse_poly(text, (VAR_R, VAR_U))
    with pytest.raises(LogSingularity) as got:
        solve_perturbed(u_poly, 8)
    monkeypatch.setattr(
        coulomb, "_render", lambda num, den, width, factors:
        MultiPoly(unpacked(num, width), den, RUE).render())
    with pytest.raises(LogSingularity) as want:
        solve_perturbed(u_poly, 8)
    assert str(got.value) == str(want.value)
    assert " * u" in str(got.value) or "u^" in str(got.value)


def test_table_builds_each_factor_text_once(monkeypatch):
    # one _factors call per distinct packed key of the job, however many
    # of the S_n and E_n hold it
    calls = []
    factors = coulomb._factors
    monkeypatch.setattr(coulomb, "_factors",
                        lambda pairs: calls.append(pairs) or factors(pairs))
    sol = solve_isotropic(parse_poly("r^2 + r^3", (VAR_R,)), 16)
    sol.table(1.0, 0.001, float)
    keys = [k for num, _ in sol.s_terms + sol.e_terms for k in num]
    assert len(keys) > len(set(keys))   # 216 terms on 78 keys
    assert len(calls) == len(set(keys)) == len(set(map(tuple, calls)))


@pytest.mark.parametrize("argv", [
    ["--command", "stark", "--order", "30", "--eps", "0.001"],
    ["--command", "stark", "--order", "2"],
    ["--command", "coulomb", "--potential", "r^2 + r^3", "--order", "16",
     "--format", "json"],
    ["--command", "coulomb", "--potential", "r", "--order", "1"],
])
def test_cli_path_builds_no_multipoly(argv, monkeypatch, capsys):
    # the chain's results are never MultiPolys: stark builds none, and
    # coulomb only U's two, its parse over (r,) and its embedding over
    # (r, u, ε), at every order.  Nor does exactalg keep a way back from
    # the packed keys to (a, b, e) triples
    assert not hasattr(exactalg, "_unpacked")
    built = []
    init = MultiPoly.__init__

    def counted(self, terms, den, variables):
        built.append(variables)
        init(self, terms, den, variables)

    monkeypatch.setattr(MultiPoly, "__init__", counted)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert built == ([] if argv[1] == "stark" else [(VAR_R,), RUE])
