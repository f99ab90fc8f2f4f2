"""The check registry behind `nbstates verify`, and the oracle it compares against."""
import math

import pytest

from nbstates import verification
from nbstates.nbs_states import NBSParams


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
    for phi, want in _mpmath_quadratures(M, eta, mp).items():
        got = verification._oracle_moments(phi, NBSParams(M=M, eta=eta, theta=0.0))[3:]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-10 * max(1.0, abs(w))
