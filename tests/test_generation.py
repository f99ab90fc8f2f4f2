"""Kerr and dispersive generation protocols against the direct constructions."""
import cmath
import math

import numpy as np
import pytest

from nbstates.errors import DimensionMismatchError, DomainError, ZeroNormError
from nbstates.fock_core import TruncationPolicy, inner, number_state
from nbstates.generation import (DispersiveParams, KerrParams, dispersive_protocol, fidelity,
                                 kerr_evolve, kerr_generate)
from nbstates.nbs_states import NBSParams, nbs, photon_distribution, superposition

POLICY = TruncationPolicy(tail_tolerance=1e-14)


def test_kerr_params_validated():
    with pytest.raises(DomainError):
        KerrParams(g1=0.0, t=1.0)
    with pytest.raises(DomainError):
        KerrParams(g1=-2.0, t=1.0)
    with pytest.raises(DomainError):
        KerrParams(g1=1.0, t=-0.1)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            KerrParams(g1=bad, t=1.0)
        with pytest.raises(DomainError):
            KerrParams(g1=1.0, t=bad)


def test_dispersive_params_validated():
    for bad in (-0.1, 2.0 * math.pi + 0.1):
        with pytest.raises(DomainError):
            DispersiveParams(phi=bad, g2=1.0, t=1.0)
    with pytest.raises(DomainError):
        DispersiveParams(phi=0.0, g2=0.0, t=1.0)
    with pytest.raises(DomainError):
        DispersiveParams(phi=0.0, g2=1.0, t=-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            DispersiveParams(phi=0.0, g2=bad, t=1.0)
        with pytest.raises(DomainError):
            DispersiveParams(phi=0.0, g2=1.0, t=bad)


def test_protocol_params_store_python_floats():
    # a float32 argument is stored as the float64 of the same value, so the
    # phases g1 t n^2 and g2 t n are taken in float64
    kerr = KerrParams(g1=np.float32(0.3), t=np.float32(2.0))
    disp = DispersiveParams(phi=np.float32(0.5), g2=np.float32(0.3), t=1)
    for params, names in ((kerr, ("g1", "t")), (disp, ("phi", "g2", "t"))):
        for name in names:
            assert type(getattr(params, name)) is float, name
    assert kerr.g1 == float(np.float32(0.3)) and disp.t == 1.0


def test_kerr_evolve_zero_time_is_identity():
    v = nbs(NBSParams(M=4, eta=0.6), n_max=50)
    out = kerr_evolve(v, KerrParams(g1=3.0, t=0.0))
    assert np.array_equal(out.amplitudes, v.amplitudes)


def test_kerr_evolve_number_state_phase():
    v = number_state(3, 6)
    out = kerr_evolve(v, KerrParams(g1=1.0, t=0.1))
    assert out.amplitudes[3] == pytest.approx(cmath.exp(-0.9j), rel=1e-15)
    assert np.all(out.amplitudes[:3] == 0) and np.all(out.amplitudes[4:] == 0)


@pytest.mark.parametrize("g1, t", ((1e300, 1e300), (1e300, 1e6)))
def test_kerr_phase_past_the_float_range_is_domain_error(g1, t):
    v = nbs(NBSParams(M=2, eta=0.3))
    with pytest.raises(DomainError, match="g1 t n_max\\^2"):
        kerr_evolve(v, KerrParams(g1=g1, t=t))


@pytest.mark.parametrize("g2, t", ((1e300, 1e300), (1e300, 1e8)))
def test_dispersive_phase_past_the_float_range_is_domain_error(g2, t):
    with pytest.raises(DomainError, match="g2 t n_max"):
        dispersive_protocol(NBSParams(M=2, eta=0.3), DispersiveParams(phi=1.0, g2=g2, t=t))


def test_kerr_quarter_period_hits_half_pi_superposition():
    for M, eta, theta in ((1, 0.3, 0.0), (6, 0.55, 1.2), (20, 0.4, 4.0)):
        p = NBSParams(M=M, eta=eta, theta=theta)
        made = kerr_generate(p, policy=POLICY)
        target = superposition(math.pi / 2.0, p, n_max=made.n_max)
        assert fidelity(made, target) == pytest.approx(1.0, abs=1e-13)
        # the leftover global phase is exactly -pi/4
        assert cmath.phase(inner(target, made)) == pytest.approx(-math.pi / 4.0, abs=1e-12)


def test_kerr_result_independent_of_g1():
    p = NBSParams(M=5, eta=0.5)
    a = kerr_generate(p, g1=1.0, n_max=80)
    b = kerr_generate(p, g1=2.5, n_max=80)
    np.testing.assert_allclose(a.amplitudes, b.amplitudes, rtol=0, atol=1e-14)


def test_kerr_preserves_photon_distribution():
    p = NBSParams(M=3, eta=0.7)
    bare = nbs(p, n_max=120)
    made = kerr_generate(p, n_max=120)
    np.testing.assert_allclose(photon_distribution(made), photon_distribution(bare),
                               rtol=1e-13, atol=1e-300)


def test_dispersive_projections_are_the_superpositions():
    for phi in (0.0, math.pi / 2.0, 2.0, math.pi):
        p = NBSParams(M=4, eta=0.5, theta=0.3)
        out = dispersive_protocol(p, DispersiveParams(phi=phi, g2=2.0, t=math.pi / 2.0),
                                  policy=POLICY)
        dim = out.projected_g.n_max
        want_g = superposition(phi, p, n_max=dim)
        phi_opp = phi + math.pi if phi <= math.pi else phi - math.pi
        want_e = superposition(phi_opp, p, n_max=dim)
        assert fidelity(out.projected_g, want_g) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(out.projected_e, want_e) == pytest.approx(1.0, abs=1e-12)


def test_dispersive_branches_keep_exact_parity_zeros():
    # g2 t = pi flips the sign of odd n exactly; a complex power (-1+0j)**n
    # would leave ~1e-14 on the forbidden class by n ~ 5000
    out = dispersive_protocol(NBSParams(M=50, eta=0.99),
                              DispersiveParams(phi=0.0, g2=1.0, t=math.pi))
    assert out.projected_g.n_max > 5000
    assert not out.projected_g.amplitudes[1::2].any()
    assert not out.projected_e.amplitudes[0::2].any()


def test_dispersive_frozen_probabilities():
    # phi = 0, x = 0.25, M = 3: parity overlap is 0.6^3, so p_g = 0.608
    p = NBSParams(M=3, eta=0.5)
    out = dispersive_protocol(p, DispersiveParams(phi=0.0, g2=1.0, t=math.pi), policy=POLICY)
    assert out.prob_g == pytest.approx(0.608, rel=1e-12)
    assert out.prob_e == pytest.approx(0.392, rel=1e-12)


def test_dispersive_probabilities_sum_to_one_off_resonance():
    p = NBSParams(M=7, eta=0.45, theta=0.9)
    out = dispersive_protocol(p, DispersiveParams(phi=1.3, g2=1.0, t=1.7), policy=POLICY)
    assert out.prob_g + out.prob_e == pytest.approx(1.0, abs=1e-12)
    assert out.projected_g.norm() == pytest.approx(1.0, abs=1e-12)
    assert out.projected_e.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("sizing", [dict(policy=TruncationPolicy(tail_tolerance=1e-6)),
                                    dict(n_max=5)])
def test_dispersive_coarse_truncation_is_accepted(sizing):
    # the truncated base misses 2e-8 (tail 1e-6) or 4e-3 (n_max = 5) of its
    # norm^2; the protocol renormalizes it, so the branch probabilities
    # still sum to 1
    out = dispersive_protocol(NBSParams(M=3, eta=0.5),
                              DispersiveParams(phi=0.0, g2=1.0, t=math.pi), **sizing)
    assert out.prob_g + out.prob_e == pytest.approx(1.0, abs=1e-12)
    assert out.projected_g.norm() == pytest.approx(1.0, abs=1e-12)


def test_dispersive_dead_branch_rejected():
    # t = 0 and phi = 0 leaves nothing in the e-branch after the pulse
    p = NBSParams(M=3, eta=0.5)
    with pytest.raises(ZeroNormError):
        dispersive_protocol(p, DispersiveParams(phi=0.0, g2=1.0, t=0.0))


def test_fidelity_clamps_and_checks_dimensions():
    v = superposition(0.0, NBSParams(M=2, eta=0.3), n_max=40)
    assert fidelity(v, v) == 1.0
    with pytest.raises(DimensionMismatchError):
        fidelity(v, number_state(0, 10))
