"""Kerr and dispersive generation protocols against the direct constructions."""
import cmath
import math

import numpy as np
import pytest

from nbstates.errors import DimensionMismatchError, DomainError, ZeroNormError
from nbstates.fock_core import TruncationPolicy, inner, number_state
from nbstates.generation import dispersive_protocol, fidelity, kerr_evolve, kerr_generate
from nbstates.nbs_states import (NBSParams, nbs, partner_phase, photon_distribution,
                                 required_dimension, superposition)

POLICY = TruncationPolicy(tail_tolerance=1e-14)


def _dispersive_n_max(p, phi, policy=POLICY):
    # the size dispersive_protocol picks under its default policy, under this one:
    # the wider of the two branch superpositions
    return max(required_dimension(p, phi, policy),
               required_dimension(p, partner_phase(phi), policy))


# negative, not finite, complex (even with a zero imaginary part), or not a number
BAD_PHASES = (-0.1, -math.inf, math.inf, math.nan, 1j, 1 + 0j, "x")


def test_kerr_phase_validated():
    v = nbs(NBSParams(M=2, eta=0.3), n_max=10)
    for g1t in BAD_PHASES:
        with pytest.raises(DomainError, match="g1t"):
            kerr_evolve(v, g1t)


def test_dispersive_phase_validated():
    p = NBSParams(M=2, eta=0.3)
    for g2t in BAD_PHASES:
        with pytest.raises(DomainError, match="g2t"):
            dispersive_protocol(p, 1.0, g2t)
    for phi in (-0.1, 2.0 * math.pi + 0.1):
        with pytest.raises(DomainError, match="phi"):
            dispersive_protocol(p, phi, 1.0)


def test_protocol_phases_store_python_floats():
    # a float32 phase is taken as the float64 of the same value, so the
    # largest phases g1t n_max^2 and g2t n_max are formed in float64: in
    # float32 both would overflow past 3.4e38
    p = NBSParams(M=4, eta=0.6)
    big = np.float32(3e38)
    v = nbs(p, n_max=50)
    assert np.array_equal(kerr_evolve(v, big).amplitudes, kerr_evolve(v, float(big)).amplitudes)
    got = dispersive_protocol(p, np.float32(0.5), big, n_max=50)
    want = dispersive_protocol(p, float(np.float32(0.5)), float(big), n_max=50)
    assert np.array_equal(got.projected_g.amplitudes, want.projected_g.amplitudes)
    assert np.array_equal(got.projected_e.amplitudes, want.projected_e.amplitudes)


def test_kerr_evolve_zero_time_is_identity():
    v = nbs(NBSParams(M=4, eta=0.6), n_max=50)
    out = kerr_evolve(v, 0.0)
    assert np.array_equal(out.amplitudes, v.amplitudes)


def test_kerr_evolve_number_state_phase():
    v = number_state(3, 6)
    out = kerr_evolve(v, 0.1)
    assert out.amplitudes[3] == pytest.approx(cmath.exp(-0.9j), rel=1e-15)
    assert np.all(out.amplitudes[:3] == 0) and np.all(out.amplitudes[4:] == 0)


# the phase is a coupling g times a time t: at 1e300 * 1e300 it is inf, and
# at the other pair it is finite but its product with n_max^2 (Kerr) or
# n_max (dispersive) is not
@pytest.mark.parametrize("g1, t", ((1e300, 1e300), (1e300, 1e6)))
def test_kerr_phase_past_the_float_range_is_domain_error(g1, t):
    v = nbs(NBSParams(M=2, eta=0.3))
    with pytest.raises(DomainError, match="g1t"):
        kerr_evolve(v, g1 * t)


@pytest.mark.parametrize("g2, t", ((1e300, 1e300), (1e300, 1e8)))
def test_dispersive_phase_past_the_float_range_is_domain_error(g2, t):
    with pytest.raises(DomainError, match="g2t"):
        dispersive_protocol(NBSParams(M=2, eta=0.3), 1.0, g2 * t)


def test_kerr_quarter_period_hits_half_pi_superposition():
    for M, eta, theta in ((1, 0.3, 0.0), (6, 0.55, 1.2), (20, 0.4, 4.0)):
        p = NBSParams(M=M, eta=eta, theta=theta)
        made = kerr_generate(p, n_max=required_dimension(p, math.pi / 2.0, POLICY))
        target = superposition(math.pi / 2.0, p, n_max=made.n_max)
        assert fidelity(made, target) == pytest.approx(1.0, abs=1e-13)
        # the leftover global phase is exactly -pi/4
        assert cmath.phase(inner(target, made)) == pytest.approx(-math.pi / 4.0, abs=1e-12)


def test_kerr_preserves_photon_distribution():
    p = NBSParams(M=3, eta=0.7)
    bare = nbs(p, n_max=120)
    made = kerr_generate(p, n_max=120)
    np.testing.assert_allclose(photon_distribution(made), photon_distribution(bare),
                               rtol=1e-13, atol=1e-300)


def test_dispersive_projections_are_the_superpositions():
    for phi in (0.0, math.pi / 2.0, 2.0, math.pi):
        p = NBSParams(M=4, eta=0.5, theta=0.3)
        out = dispersive_protocol(p, phi, n_max=_dispersive_n_max(p, phi))
        dim = out.projected_g.n_max
        want_g = superposition(phi, p, n_max=dim)
        phi_opp = phi + math.pi if phi <= math.pi else phi - math.pi
        want_e = superposition(phi_opp, p, n_max=dim)
        assert fidelity(out.projected_g, want_g) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(out.projected_e, want_e) == pytest.approx(1.0, abs=1e-12)


def test_dispersive_branches_keep_exact_parity_zeros():
    # g2t = pi flips the sign of odd n exactly; a complex power (-1+0j)**n
    # would leave ~1e-14 on the forbidden class by n ~ 5000
    out = dispersive_protocol(NBSParams(M=50, eta=0.99), 0.0)
    assert out.projected_g.n_max > 5000
    assert not out.projected_g.amplitudes[1::2].any()
    assert not out.projected_e.amplitudes[0::2].any()


def test_dispersive_frozen_probabilities():
    # phi = 0, x = 0.25, M = 3: parity overlap is 0.6^3, so p_g = 0.608
    p = NBSParams(M=3, eta=0.5)
    out = dispersive_protocol(p, 0.0, n_max=_dispersive_n_max(p, 0.0))
    assert out.prob_g == pytest.approx(0.608, rel=1e-12)
    assert out.prob_e == pytest.approx(0.392, rel=1e-12)


def test_dispersive_probabilities_sum_to_one_off_resonance():
    p = NBSParams(M=7, eta=0.45, theta=0.9)
    out = dispersive_protocol(p, 1.3, 1.7, n_max=_dispersive_n_max(p, 1.3))
    assert out.prob_g + out.prob_e == pytest.approx(1.0, abs=1e-12)
    assert out.projected_g.norm() == pytest.approx(1.0, abs=1e-12)
    assert out.projected_e.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("sizing", [
    dict(n_max=_dispersive_n_max(NBSParams(M=3, eta=0.5), 0.0,
                                 TruncationPolicy(tail_tolerance=1e-6))),
    dict(n_max=5)])
def test_dispersive_coarse_truncation_is_accepted(sizing):
    # the truncated base misses 2e-8 (tail 1e-6) or 4e-3 (n_max = 5) of its
    # norm^2; the protocol renormalizes it, so the branch probabilities
    # still sum to 1
    out = dispersive_protocol(NBSParams(M=3, eta=0.5), 0.0, **sizing)
    assert out.prob_g + out.prob_e == pytest.approx(1.0, abs=1e-12)
    assert out.projected_g.norm() == pytest.approx(1.0, abs=1e-12)


def test_dispersive_dead_branch_rejected():
    # g2t = 0 and phi = 0 leaves nothing in the e-branch after the pulse
    p = NBSParams(M=3, eta=0.5)
    with pytest.raises(ZeroNormError):
        dispersive_protocol(p, 0.0, 0.0)


def test_fidelity_clamps_and_checks_dimensions():
    v = superposition(0.0, NBSParams(M=2, eta=0.3), n_max=40)
    assert fidelity(v, v) == 1.0
    with pytest.raises(DimensionMismatchError):
        fidelity(v, number_state(0, 10))
