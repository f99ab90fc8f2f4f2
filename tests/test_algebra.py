"""Pair-ladder algebra: structure functions, operator relations, eigen checks."""
import math

import numpy as np
import pytest

from nbstates.algebra import (ParitySequence, creation_identity_residual, eigen_residual,
                              gdo_relations_check, nonlinear_coherent_residual)
from nbstates.errors import DomainError, PoleError
from nbstates.fock_core import FockVector
from nbstates.nbs_states import (NBSParams, even_coherent, even_nbs, odd_coherent, odd_nbs,
                                 superposition)

N_MAX = 160


def test_sequences_realize_the_parity_states():
    p = NBSParams(M=6, eta=0.5, theta=0.8)
    alpha = 1.4 * complex(math.cos(0.3), math.sin(0.3))
    for v in (even_nbs(p, n_max=N_MAX), odd_nbs(p, n_max=N_MAX),
              even_coherent(alpha, n_max=N_MAX), odd_coherent(alpha, n_max=N_MAX)):
        seq = ParitySequence.of(v)
        np.testing.assert_array_equal(seq.realize().amplitudes,
                                      v.amplitudes[:seq.n_max + 1])
        assert np.all(v.amplitudes[seq.n_max + 1:] == 0)


def test_parity_sequence_bookkeeping():
    seq = ParitySequence.of(even_nbs(NBSParams(M=2, eta=0.4), n_max=9))
    assert seq.offset == 0
    assert seq.parity == "even"
    assert seq.photon_numbers[3] == 6
    assert seq.n_max == 8
    odd = ParitySequence.of(odd_nbs(NBSParams(M=2, eta=0.4), n_max=9))
    assert odd.offset == 1
    assert odd.parity == "odd"
    assert odd.photon_numbers[3] == 7
    assert odd.n_max == 9
    with pytest.raises(ValueError):
        odd.coeffs[0] = 1.0
    v = odd.realize().amplitudes
    assert np.all(v[0::2] == 0)


def test_parity_is_inferred_from_exact_zeros():
    # phi = pi/2 keeps both parity classes, so no single-parity sequence exists
    with pytest.raises(DomainError):
        ParitySequence.of(superposition(math.pi / 2.0, NBSParams(M=3, eta=0.5), n_max=30))
    with pytest.raises(DomainError):
        ParitySequence.of(FockVector(np.zeros(6)))
    with pytest.raises(DomainError):
        ParitySequence.of(FockVector(np.array([1.0, 0.0, np.nan])))


def test_structure_function_hand_values():
    # even NBS: f(n) = sqrt((M+n-1)(M+n-2)) / (n-1) * eta^2
    M, eta = 4, 0.6
    even = even_nbs(NBSParams(M=M, eta=eta), n_max=N_MAX)
    seq = ParitySequence.of(even)
    want = math.sqrt((M + 3) * (M + 2)) / 3.0 * eta * eta
    assert seq.f(4) == pytest.approx(want, rel=1e-12)
    # even coherent: f(n) = alpha^2 / (n - 1), so S(n) = alpha^4 n/(n-1)
    cat = ParitySequence.of(even_coherent(1.3, n_max=N_MAX))
    assert cat.f(6) == pytest.approx(1.3 ** 2 / 5.0, rel=1e-12)
    assert cat.s(6) == pytest.approx(1.3 ** 4 * 6.0 / 5.0, rel=1e-12)


def test_even_nbs_s_formula():
    # S(N) = N (M+N-1)(M+N-2) eta_c^4 / (N-1), complex for theta != 0
    p = NBSParams(M=5, eta=0.45, theta=1.1)
    seq = ParitySequence.of(even_nbs(p, n_max=N_MAX))
    for n in (2, 4, 10, 40):
        want = n * (p.M + n - 1) * (p.M + n - 2) * p.eta_c ** 4 / (n - 1)
        got = seq.s(n)
        assert got == pytest.approx(want, rel=1e-11)


def test_structure_function_domain_checks():
    seq = ParitySequence.of(even_nbs(NBSParams(M=2, eta=0.3), n_max=20))
    for bad in (3, 0, -2, 2.5, 22):
        with pytest.raises(DomainError):
            seq.f(bad)
    odd = ParitySequence.of(odd_nbs(NBSParams(M=2, eta=0.3), n_max=20))
    for bad in (2, 1, -3, 21):
        with pytest.raises(DomainError):
            odd.f(bad)


def test_pole_on_vanishing_coefficient():
    # even coefficients C = (0, 1, 1): the pole sits at pair index 0, i.e. f(2)
    seq = ParitySequence.of(FockVector(np.array([0.0, 0.0, 1.0, 0.0, 1.0])))
    assert seq.f(4) == pytest.approx(math.sqrt(4.0 / 3.0), rel=1e-15)
    with pytest.raises(PoleError, match="pair index 0"):
        seq.f(2)


def test_gdo_relations_hold_for_all_sequences():
    p = NBSParams(M=7, eta=0.5, theta=0.0)
    pc = NBSParams(M=7, eta=0.5, theta=2.1)
    alpha = complex(0.9, 0.7)
    cases = [even_nbs(p, n_max=80), odd_nbs(p, n_max=80),
             even_nbs(pc, n_max=80), odd_nbs(pc, n_max=80),
             even_coherent(alpha, n_max=80), odd_coherent(alpha, n_max=80)]
    for v in cases:
        res = gdo_relations_check(ParitySequence.of(v))
        assert res.max_residual < 1e-9


def test_gdo_check_raises_on_a_vanishing_coefficient():
    # even coefficients C = (1, 0, 1, 0, 1, 1): f is a pole one site up from C(1)
    seq = ParitySequence.of(FockVector(np.array([1.0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1])))
    with pytest.raises(PoleError, match="^coefficient at pair index 1 vanishes$"):
        gdo_relations_check(seq)


def test_subnormal_coefficients_are_not_poles():
    # at M = 1, eta = 0.1 the coefficients fall by 1e-2 a pair: C(154..161)
    # are subnormal, C(162) and above are exactly 0
    seq = ParitySequence.of(even_nbs(NBSParams(M=1, eta=0.1), n_max=700))
    below = seq.coeffs[:-1]
    subnormal = (below != 0) & (np.abs(below) < np.finfo(float).tiny)
    assert subnormal.sum() == 8 and not below[162:].any()
    # at M = 1, f(n) = eta^2 sqrt(n/(n-1)); the quotient of two subnormals is
    # finite and as exact as their few bits allow
    n = seq.photon_numbers[1:].astype(np.float64)
    f = seq.f_values[subnormal]
    assert np.isfinite(f).all() and f[-1] == 0.0
    np.testing.assert_allclose(f[:4], (0.01 * np.sqrt(n / (n - 1.0)))[subnormal][:4], rtol=1e-6)
    assert np.isnan(seq.f_values[162:]).all()
    # normal divisors keep the plain quotient, bit for bit
    normal = np.abs(below) >= np.finfo(float).tiny
    plain = np.sqrt(n / (n - 1.0)) * seq.coeffs[1:] / np.where(normal, below, 1.0)
    assert np.array_equal(seq.f_values[normal], plain[normal])
    assert creation_identity_residual(seq) < 1e-15
    with pytest.raises(PoleError, match="^coefficient at pair index 162 vanishes$"):
        gdo_relations_check(seq)


def test_gdo_needs_enough_sites():
    p = NBSParams(M=3, eta=0.4)
    seq = ParitySequence.of(even_nbs(p, n_max=4))
    with pytest.raises(DomainError):
        gdo_relations_check(seq)


def test_creation_identity_clean_to_top_row():
    rng = np.random.default_rng(88)
    for _ in range(8):
        p = NBSParams(M=int(rng.integers(1, 15)),
                      eta=float(rng.uniform(0.1, 0.7)),
                      theta=float(rng.uniform(0.0, 2.0 * math.pi)))
        for build in (even_nbs, odd_nbs):
            seq = ParitySequence.of(build(p, n_max=N_MAX))
            assert creation_identity_residual(seq) < 1e-10


def test_pair_eigenvalue_residuals():
    for M, eta, theta in ((1, 0.3, 0.0), (5, 0.6, 1.0), (30, 0.2, math.pi)):
        p = NBSParams(M=M, eta=eta, theta=theta)
        for build in (even_nbs, odd_nbs):
            seq = ParitySequence.of(build(p))
            assert eigen_residual(seq, p) < 1e-10
            assert nonlinear_coherent_residual(seq, p) < 1e-10
    p = NBSParams(M=1, eta=0.3)
    for build in (even_nbs, odd_nbs):
        for residual in (eigen_residual, nonlinear_coherent_residual):
            with pytest.raises(DomainError):
                residual(ParitySequence.of(build(p, n_max=1)), p)


def test_eigen_residual_detects_wrong_state():
    # same amplitudes but M bumped in the scale: residual must be visible
    p = NBSParams(M=4, eta=0.5)
    v = ParitySequence.of(even_nbs(p, n_max=120)).realize().amplitudes
    n = np.arange(121, dtype=np.float64)
    wrong = np.sqrt((p.M + 1 + n) * (p.M + 1 + n + 1.0)) * p.eta_c ** 2
    lowered = np.zeros_like(v)
    k = np.arange(2, v.size, dtype=np.float64)
    lowered[:-2] = np.sqrt(k * (k - 1.0)) * v[2:]
    gap = np.max(np.abs(lowered[:-2] - wrong[:-2] * v[:-2]))
    assert gap > 1e-4
