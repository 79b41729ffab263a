"""Mutation score of the certifier: ``verify`` must fail on a weakened program.

Each mutant replaces one module attribute in this process, with no source
edit, and ``verify --trials 200 --seed 42`` runs on it (its forked workers
inherit the patch).  A killed mutant makes ``verify`` exit 3, with
violations in the suite named beside it.  A surviving mutant is a strict
xfail whose reason says why the certifier misses it, so a change that
kills it shows up as an XPASS.  Three survivors are unkillable: their
mutated bound still holds for every configuration, and their reasons give
the proof.
"""

import re

import pytest

from cellbounds import bounds, cli, guarantees, kernels, montecarlo, pointset

ARGV = ["verify", "--trials", "200", "--seed", "42"]


def times(factor):
    """The function times ``factor``."""
    return lambda f: lambda *args: factor * f(*args)


def constants_times(rho=1.0, nu=1.0):
    """(rho_h, nu_h) scaled, which reaches the ball-count and the
    interference bound alike."""
    def make(f):
        def constants(h):
            r, n = f(h)
            return rho * r, nu * n
        return constants
    return make


def without_tie_break(f):
    return lambda points, d2: int(d2.argmin())


def slack_flipped(f):
    # each open ball widened by the slack instead of narrowed
    return lambda radii: [t * t for t in (float(r) * (1.0 + pointset._REL_SLACK)
                                          for r in radii)]


def killed(mutant_id, module, name, make, suite):
    return pytest.param(module, name, make, suite, id=mutant_id)


def survives(mutant_id, module, name, make, reason):
    return pytest.param(module, name, make, None, id=mutant_id,
                        marks=pytest.mark.xfail(strict=True, reason=reason,
                                                raises=AssertionError))


_LOOSE_INTERFERENCE = ("the tightest interference record, on the lattice, "
                       "is 0.465 of its bound: scaled by 0.5 or more the "
                       "bound still covers it")

MUTANTS = [
    killed("interference_bound*0.45", montecarlo, "interference_bound",
           times(0.45), "interference-bound"),
    killed("nu*0.5", bounds, "hardcore_regulation_constants",
           constants_times(nu=0.5), "ball-regulation"),
    killed("nu*0.7", bounds, "hardcore_regulation_constants",
           constants_times(nu=0.7), "ball-regulation"),
    killed("exclusion_radius=max(d,2h)", bounds, "exclusion_radius",
           lambda f: lambda d, h: max(d, 2 * h), "interference-bound"),
    killed("matern_thinned_at_h", montecarlo, "matern_factory",
           lambda f: lambda intensity, radius, window: f(intensity, radius / 2,
                                                          window),
           "interference-bound"),
    killed("power_law_sum_excludes_index+1", kernels, "bounded_power_law_sum",
           lambda f: lambda d2, alpha, exclude=-1: f(d2, alpha, exclude + 1),
           "interference-bound"),
    *(survives(f"interference_bound*{c}", montecarlo, "interference_bound",
               times(c), _LOOSE_INTERFERENCE) for c in (0.5, 0.6, 0.7, 0.8, 0.9)),
    survives("nu*0.9", bounds, "hardcore_regulation_constants",
             constants_times(nu=0.9),
             "the tightest ball count, 60 lattice points at R = 16, "
             "exceeds its bound only with nu_h scaled below 0.77"),
    survives("nu*0.95", bounds, "hardcore_regulation_constants",
             constants_times(nu=0.95),
             "only a site-centred lattice ball near R = 38.6h, which no "
             "suite of verify draws, exceeds its bound with nu_h scaled "
             "by 0.95"),
    *(survives(f"rho*{c}", bounds, "hardcore_regulation_constants",
               constants_times(rho=c),
               "the tightest ball count, 60 lattice points at R = 16, "
               "exceeds its bound only with rho_h scaled below 0.07")
      for c in (0.5, 0.7)),
    survives("rho*0.9", bounds, "hardcore_regulation_constants",
             constants_times(rho=0.9),
             "unkillable: by Oler's inequality a closed ball of radius R "
             "holds at most 1 + pi R / (2h) + nu_h R^2 points of a "
             "2h-hardcore set, and pi / (2h) = (sqrt(3)/2) rho_h is below "
             "0.9 rho_h"),
    survives("sigma_dropped", montecarlo, "ball_count_bound",
             lambda f: lambda h, r: f(h, r) - 1,
             "every ball count is at least 2.7 points below its bound"),
    survives("theta*1.1", montecarlo, "theta", times(1.1),
             "theta is at most 0.897 of the achieved SINR, at reuse 4"),
    survives("nearest_without_tie_break", pointset, "_nearest",
             without_tie_break,
             "unkillable: the bound holds for every nearest association, "
             "and a tie only swaps equally near serving points"),
    survives("squared_limits_slack_flipped", pointset, "_squared_limits",
             slack_flipped,
             "unkillable: by Oler's inequality a ball of radius R holds "
             "at least (1 - sqrt(3)/2) rho_h R points fewer than its bound, "
             "a margin that outweighs a widening of 1e-12 of R for any R "
             "below about 1e11 h; verify's balls have R <= 8h"),
    survives("rate_scheduled_without_1/k", guarantees, "rate_scheduled",
             lambda f: lambda link, k, h_k, log_base="nat": f(link, 1, h_k,
                                                              log_base),
             "verify certifies SINR, not rates: no suite reads "
             "rate_scheduled"),
]


@pytest.mark.parametrize("module, name, make, suite", MUTANTS)
def test_verify_kills_mutant(module, name, make, suite, monkeypatch, capsys,
                             tmp_path):
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    code = cli.main(ARGV + ["--out", str(tmp_path / "verify.csv")])
    out = capsys.readouterr().out
    assert code == cli.EXIT_VIOLATION, out
    assert re.search(rf"^{suite}: .* violations=[1-9]", out, re.M), out
