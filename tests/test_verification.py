"""The check registry behind `nbstates verify`, and the oracle it compares against."""
import math

import pytest

from nbstates import statistics, verification
from nbstates.nbs_states import NBSParams, nbs, required_dimension, superposition
from nbstates.verification import GRID_PHIS, ORACLE_POLICY


# Checks that still pass with every bound scaled by 1e-12: the exact checks,
# and numeric checks whose residual is exactly 0 (fig1's spread of Q over
# phi at M = 30, eta^2 = 0.9 is 0 to the last bit).  The scale is that of
# `verify --corrupt-tolerances`; the smallest nonzero residual against its
# bound is fig2's spread, about 2e-12 of its 1e-2.
_PASS_AT_ANY_SCALE = {
    "vacuum-mandel-q-is-typed-undefined",
    "dispersive-degenerate-branch-raises",
    "hard-cap-truncation-raises",
    "sweep-csv-deterministic",
    "number-state-moments",
    "parity-support-exact-zeros",
    "fig1-q-curve-shape",
}


def test_tightened_bounds_fail_every_check_with_a_nonzero_residual():
    results = verification.run_suite(tol_scale=1e-12)
    assert len({r.name for r in results}) == len(verification.CHECKS) == 29
    assert {r.name for r in results if r.passed} == _PASS_AT_ANY_SCALE
    for r in results:
        if r.bound is None:
            assert r.measured is None
        elif r.name not in _PASS_AT_ANY_SCALE:
            assert r.measured > r.bound


def _mpmath_quadratures(M, eta, mp):
    """{phi: (Var X1, Var X2)} at theta = 0 for phi in (0, pi), from a 45-digit Fock sum.

    The bare amplitudes are a running product of eta sqrt((M+n)/(n+1)); the
    phi = 0 and phi = pi states keep the even and the odd ones.  Both are
    real, so <a> = 0 and each variance is 1/4 + (<N> +- <a^2>)/2.
    """
    with mp.workdps(45):
        e = mp.mpf(eta)
        peak_n = M * eta * eta / (1.0 - eta * eta)
        b, top, cut = mp.mpf(1), mp.mpf(1), mp.mpf(10) ** -30
        bare = [b]
        while len(bare) < peak_n or b > cut * top:
            n = len(bare) - 1
            b = b * e * mp.sqrt(mp.mpf(M + n) / (n + 1))
            top = max(top, b)
            bare.append(b)
        out = {}
        for phi, start in ((0.0, 0), (math.pi, 1)):
            kept = range(start, len(bare) - 2, 2)
            total = mp.fsum(bare[n] ** 2 for n in kept)
            mean = mp.fsum(n * bare[n] ** 2 for n in kept) / total
            ea2 = mp.fsum(bare[n] * mp.sqrt((n + 1) * (n + 2)) * bare[n + 2]
                          for n in kept) / total
            out[phi] = (float(mp.mpf(1) / 4 + (mean + ea2) / 2),
                        float(mp.mpf(1) / 4 + (mean - ea2) / 2))
        return out


@pytest.mark.parametrize("M, eta", [(1000, 0.9), (10000, 0.5)])
def test_oracle_grid_reference_at_theta_zero_corners(M, eta):
    # at theta = 0 the X2 variance cancels <a^2> against the mean; with <a^2>
    # left unnormalized the reference was 1.3e-9 (M = 1000) and 6.0e-9
    # (M = 1e4) off, past the grid's 1e-9 bound
    assert (M, eta, 0.0) in verification.GRID_CORNERS
    mp = pytest.importorskip("mpmath").mp
    want = _mpmath_quadratures(M, eta, mp)
    states = verification._sliced_states(NBSParams(M=M, eta=eta, theta=0.0), tuple(want),
                                         ORACLE_POLICY)
    for v, w_pair in zip(states, want.values(), strict=True):
        for g, w in zip(verification._oracle_moments(v)[3:], w_pair):
            assert abs(g - w) <= 1e-10 * max(1.0, abs(w))


# the (M, eta, theta) points of closed-stats-vs-oracle-grid, in its order
_GRID_POINTS = [(M, eta, verification.GRID_THETA) for M in verification.GRID_MS
                for eta in verification.GRID_ETAS] + list(verification.GRID_CORNERS)


def _same_bits(u, v):
    return u.amplitudes.tobytes() == v.amplitudes.tobytes()


@pytest.mark.parametrize("M, eta, theta", _GRID_POINTS)
def test_sliced_states_have_the_bits_of_states_sized_alone(M, eta, theta):
    params = NBSParams(M=M, eta=eta, theta=theta)
    states = verification._sliced_states(params, GRID_PHIS, ORACLE_POLICY)
    for phi, v in zip(GRID_PHIS, states, strict=True):
        assert _same_bits(v, superposition(
            phi, params, n_max=required_dimension(params, phi, ORACLE_POLICY)))


@pytest.mark.parametrize("M, eta", verification._NORM_POINTS)
def test_sliced_states_at_the_default_policy_are_nbs_and_superposition(M, eta):
    params = NBSParams(M=M, eta=eta, theta=0.4)
    bare, *sups = verification._sliced_states(params, (None,) + GRID_PHIS, None)
    assert _same_bits(bare, nbs(params))
    for phi, v in zip(GRID_PHIS, sups, strict=True):
        assert _same_bits(v, superposition(phi, params))


def test_oracle_grid_check_matches_a_build_per_point_and_phi():
    # the reference: one public call per (point, phi) for the variances and
    # one sized build per (point, phi)
    worst, where = 0.0, ""
    for M, eta, theta in _GRID_POINTS:
        params = NBSParams(M=M, eta=eta, theta=theta)
        for phi in GRID_PHIS:
            v = superposition(phi, params, n_max=required_dimension(params, phi, ORACLE_POLICY))
            closed = (statistics.mean_closed(phi, params),
                      statistics.second_moment_closed(phi, params),
                      statistics.q_closed(phi, params),
                      *statistics.quadrature_variances(phi, params))
            for name, got_ref, got_closed in zip(verification._ORACLE_QUANTITIES,
                                                 verification._oracle_moments(v), closed):
                rel = abs(got_ref - got_closed) / max(1.0, abs(got_closed))
                if rel > worst:
                    worst = rel
                    where = (f"worst at {name}, M={M}, phi={phi:.3f}, eta={eta:.2f}, "
                             f"theta={theta:.2f}")
    result = verification.check_oracle_grid()
    assert (result.measured, result.detail) == (worst, where)


def test_state_norms_check_matches_a_build_per_state():
    worst = 0.0
    for M, eta in verification._NORM_POINTS:
        params = NBSParams(M=M, eta=eta, theta=0.4)
        worst = max(worst, abs(nbs(params).norm() - 1.0))
        for phi in GRID_PHIS:
            worst = max(worst, abs(superposition(phi, params).norm() - 1.0))
    assert verification.check_state_norms().measured == worst


def test_oracle_grid_check_makes_one_column_call_per_grid(monkeypatch):
    # 3 grids of 18 etas and the 3 corners: one series call and one column
    # kernel call each, as fig2 makes, and no one-eta row view
    counts = dict.fromkeys(("_series_sums", "quadratures", "__getitem__"), 0)

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args):
            counts[name] += 1
            return original(*args)
        monkeypatch.setattr(owner, name, counted)

    count(statistics, "_series_sums")
    count(statistics._SeriesSums, "quadratures")
    count(statistics._SeriesSums, "__getitem__")
    verification.check_oracle_grid()
    assert counts == {"_series_sums": 6, "quadratures": 6, "__getitem__": 0}
