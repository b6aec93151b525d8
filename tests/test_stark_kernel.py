"""The Stark chain's separated kernel against the radial chain.

``solve_stark`` runs the parabolic 1-D recursion; ``_integer_chain`` runs
the general (r, u, ε) one, which serves every axially symmetric U.  Each
is the other's independent reference.  The module needs neither numpy
nor hypothesis, so it runs where only the exact commands are installed.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from trajquad import cli, coulomb
from trajquad.coulomb import _integer_chain, solve_stark

REFERENCES = Path(__file__).resolve().parent.parent / "bench" / "references.json"
STARK_30 = "--command stark --order 30 --g 1.0 --eps 0.001"


def radial_stark(order):
    return _integer_chain({(1, 1, 0): 1}, 1, order)


@pytest.mark.parametrize("order", [*range(2, 31), 45, 60, 90])
def test_pairs_equal_the_radial_chain(order):
    sol, radial = solve_stark(order), radial_stark(order)
    assert sol.order == radial.order == order
    assert sol.width == radial.width
    assert sol.s_terms == radial.s_terms
    assert sol.e_terms == radial.e_terms


def test_radial_chain_has_the_kernels_symmetry():
    # z → −z with ε → −ε leaves H unchanged, so S_n(r, −u; −ε) = S_n(r, u; ε):
    # every term r^a·u^b·ε^e has b + e even, and every E_n is even in ε
    sol = radial_stark(60)
    for n, (num, _) in enumerate(sol.s_terms):
        parities = {((k >> sol.width) + k) & 1 for k in num}   # b + e
        assert parities <= {0}, n
    for n, (num, _) in enumerate(sol.e_terms):
        assert all(e % 2 == 0 for e in num), n


class Reached(Exception):
    """Raised by the radial chain when the test forbids it."""


def test_stark_never_runs_the_radial_chain(monkeypatch):
    want = radial_stark(30).table(1.0, 0.001, float)

    def forbidden(*args):
        raise Reached(args)

    monkeypatch.setattr(coulomb, "_integer_chain", forbidden)
    assert solve_stark(30).table(1.0, 0.001, float) == want
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(STARK_30.split()) == 0
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == refs[STARK_30]
    with pytest.raises(Reached):
        cli.main(["--command", "coulomb", "--potential", "r^2"])
