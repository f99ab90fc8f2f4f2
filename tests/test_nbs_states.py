"""State constructors: normalization, parity structure, overlaps, sizing."""
import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbstates import nbs_states
from nbstates.errors import DomainError, TruncationError, ZeroNormError
from nbstates.fock_core import TruncationPolicy, inner, oracle_stats
from nbstates.statistics import _overlap_columns, mean_closed, quadrature_variances
from nbstates.verification import ORACLE_POLICY
from nbstates.nbs_states import (
    ETA_MIN,
    NBSParams,
    _log_binomial,
    cat_state,
    coherent,
    even_nbs,
    nbs,
    nbs_inner_closed,
    nbs_parity_overlap,
    normalization_constant,
    odd_coherent,
    odd_nbs,
    partner_phase,
    phase_factor,
    photon_distribution,
    required_dimension,
    required_dimension_cat,
    superposition,
)


def test_params_validation():
    NBSParams(M=1, eta=0.5, theta=0.0)
    with pytest.raises(DomainError):
        NBSParams(M=0, eta=0.5)
    with pytest.raises(DomainError):
        NBSParams(M=3, eta=1.0)
    with pytest.raises(DomainError):
        NBSParams(M=3, eta=0.0)
    with pytest.raises(DomainError):
        NBSParams(M=3, eta=0.5, theta=2.0 * math.pi)
    with pytest.raises(DomainError):
        NBSParams(M=3, eta=0.5, theta=-0.1)


def test_eta_whose_square_underflows_is_rejected():
    for eta in (1e-200, 1e-160, math.nextafter(ETA_MIN, 0.0)):
        with pytest.raises(DomainError):
            NBSParams(M=3, eta=eta)


def test_smallest_eta_stays_finite():
    # these raised ValueError or ZeroDivisionError once eta**2 reached 0
    for M in (1, 50):
        p = NBSParams(M=M, eta=ETA_MIN)
        assert required_dimension(p, math.pi) >= 2
        assert mean_closed(math.pi, p) == 1.0
        assert quadrature_variances(math.pi, p) == (0.75, 0.75)
        assert quadrature_variances(0.0, p) == (0.25, 0.25)
        assert superposition(math.pi, p).norm() == pytest.approx(1.0, abs=1e-12)


_TERM_MS = (1, 50, 2 ** 53)
_TERM_ETAS = (ETA_MIN, 1e-8, 0.5, 0.95, 1.0 - 2.0 ** -53)


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("M", _TERM_MS)
@pytest.mark.parametrize("eta", _TERM_ETAS)
def test_derived_terms_are_the_inline_formulas_bit_for_bit(M, eta):
    # each attribute NBSParams forms against the expression its consumers
    # once wrote for themselves
    p = NBSParams(M=M, eta=eta, theta=0.3)
    x = eta * eta
    u = math.atanh(eta * eta)
    s0, s1 = 2.0 * M * u, 2.0 * (M + 1) * u
    assert _hex([p._u]) == _hex([u])
    assert _hex(p._terms) == _hex([x, math.exp(-s0), math.expm1(-s0),
                                   math.exp(-s1), math.expm1(-s1)])
    assert _hex(p._logs) == _hex([math.log(eta), math.log(x), math.log1p(-(eta * eta))])


@pytest.mark.parametrize("M", _TERM_MS)
def test_overlap_columns_are_the_terms_of_each_point(M):
    columns = _overlap_columns(M, _TERM_ETAS)
    assert columns.shape == (5, len(_TERM_ETAS))
    for i, eta in enumerate(_TERM_ETAS):
        assert _hex(columns[:, i]) == _hex(NBSParams(M=M, eta=eta)._terms), eta


def test_derived_terms_leave_the_dataclass_surface_alone():
    p = NBSParams(M=7, eta=0.6, theta=0.2)
    q = NBSParams(M=7, eta=0.6, theta=0.2)
    assert p == q and hash(p) == hash(q)
    assert repr(p) == "NBSParams(M=7, eta=0.6, theta=0.2)"
    assert {name: getattr(p, name) for name in p._fields} == {"M": 7, "eta": 0.6, "theta": 0.2}
    assert [name for name in NBSParams.__slots__ if not name.startswith("_")] == list(p._fields)
    assert p._fields == ("M", "eta", "theta")
    assert p != NBSParams(M=7, eta=0.6, theta=0.3)
    r = NBSParams(p.M, 0.9, p.theta)
    assert _hex(r._terms) == _hex(NBSParams(M=7, eta=0.9, theta=0.2)._terms)
    assert _hex(r._logs) == _hex(NBSParams(M=7, eta=0.9)._logs)
    assert r._u == math.atanh(0.9 * 0.9)
    with pytest.raises(AttributeError, match="cannot assign to field 'eta'"):
        p.eta = 0.5


def test_phase_factor_axis_exactness():
    assert phase_factor(0.0) == 1.0 + 0.0j
    assert phase_factor(math.pi) == -1.0 + 0.0j
    assert phase_factor(math.pi / 2.0) == 1.0j
    z = phase_factor(0.7)
    assert z.real == pytest.approx(math.cos(0.7))
    assert z.imag == pytest.approx(math.sin(0.7))


def test_m1_amplitudes_are_geometric():
    # M=1 reduces to sqrt(1-x) * eta^n with no binomial factor
    eta = 0.4
    v = nbs(NBSParams(M=1, eta=eta), n_max=10)
    expected = math.sqrt(1.0 - eta * eta) * eta ** np.arange(11)
    np.testing.assert_allclose(v.amplitudes.real, expected, rtol=1e-14)
    assert np.all(v.amplitudes.imag == 0.0)


def test_nbs_norm_and_theta_independence_of_distribution():
    params0 = NBSParams(M=12, eta=0.55, theta=0.0)
    params1 = NBSParams(M=12, eta=0.55, theta=2.2)
    v0, v1 = nbs(params0), nbs(params1)
    assert abs(v0.norm() - 1.0) < 1e-12
    np.testing.assert_allclose(photon_distribution(v0), photon_distribution(v1),
                               rtol=0, atol=1e-13)


def test_superposition_parity_zeros_are_exact():
    params = NBSParams(M=4, eta=0.6, theta=0.9)
    even = superposition(0.0, params)
    odd = superposition(math.pi, params)
    assert np.all(even.amplitudes[1::2] == 0.0)
    assert np.all(odd.amplitudes[0::2] == 0.0)
    assert abs(even.norm() - 1.0) < 1e-12
    assert abs(odd.norm() - 1.0) < 1e-12


def test_even_odd_wrappers_match_superposition():
    params = NBSParams(M=7, eta=0.5, theta=0.3)
    np.testing.assert_allclose(even_nbs(params).amplitudes,
                               superposition(0.0, params).amplitudes, rtol=0, atol=0)
    np.testing.assert_allclose(odd_nbs(params).amplitudes,
                               superposition(math.pi, params).amplitudes, rtol=0, atol=0)


def test_normalization_constant_values():
    # overlap (1-x)/(1+x) = 1/3 at x = 1/2, so N(0) = 1/sqrt(2(1+1/3)) = sqrt(3/8)
    params = NBSParams(M=1, eta=math.sqrt(0.5))
    assert normalization_constant(0.0, params) == pytest.approx(math.sqrt(3.0 / 8.0), rel=1e-15)
    # at phi = pi/2 the cross term drops and N is exactly 2^{-1/2}
    assert normalization_constant(math.pi / 2.0, params) == 0.5 ** 0.5
    with pytest.raises(DomainError):
        normalization_constant(-0.1, params)
    with pytest.raises(DomainError):
        normalization_constant(7.0, params)


def test_parity_overlap_closed_form():
    params = NBSParams(M=3, eta=0.5)
    assert nbs_parity_overlap(params) == pytest.approx(0.6 ** 3, rel=1e-14)
    assert nbs_inner_closed(0.5, -0.5, 3) == pytest.approx(0.216, rel=1e-12)


def test_pi_half_distribution_matches_bare_nbs():
    params = NBSParams(M=5, eta=0.6, theta=1.0)
    dim = required_dimension(params, math.pi / 2.0)
    sup = superposition(math.pi / 2.0, params, n_max=dim)
    bare = nbs(params, n_max=dim)
    np.testing.assert_allclose(photon_distribution(sup), photon_distribution(bare),
                               rtol=0, atol=1e-13)


def test_overlap_closed_vs_summed_random():
    rng = np.random.default_rng(20260814)
    for _ in range(50):
        M = int(rng.integers(1, 35))
        ea, eb = rng.uniform(0.05, 0.9, size=2)
        ta, tb = rng.uniform(0.0, 6.28, size=2)
        pa = NBSParams(M=M, eta=float(ea), theta=float(ta))
        pb = NBSParams(M=M, eta=float(eb), theta=float(tb))
        dim = max(required_dimension(pa), required_dimension(pb)) + 20
        got = inner(nbs(pa, n_max=dim), nbs(pb, n_max=dim))
        want = nbs_inner_closed(pa.eta_c, pb.eta_c, M)
        assert abs(got - want) < 1e-11


@pytest.mark.parametrize("label", (1e-9, 1e-5, 0.3, 0.5 + 0.2j, 0.9j, -0.99))
def test_inner_closed_of_equal_labels_is_one(label):
    # the label terms must cancel exactly: a plain log(1 - conj(a) b) next to
    # the log1p norms gave 0.991 at (1e-9, 1e-9, 2**53), and a complex log1p
    # still gives 1.13 at (0.3, 0.3, 2**53)
    for M in (1, 1000, 10 ** 6, 10 ** 10, 2 ** 53):
        assert abs(nbs_inner_closed(label, label, M) - 1.0) <= 1e-15


def test_inner_closed_against_mpmath():
    mp = pytest.importorskip("mpmath").mp
    rng = np.random.default_rng(5)
    with mp.workdps(50):
        for _ in range(200):
            a, b = (complex(r * math.cos(t), r * math.sin(t))
                    for r, t in zip(rng.uniform(0.0, 0.995, 2), rng.uniform(0.0, 6.28, 2)))
            M = int(rng.choice((1, 5, 40, 1000, 10 ** 4)))
            A, B = mp.mpc(a), mp.mpc(b)
            want = mp.exp(0.5 * M * (mp.log(1 - abs(A) ** 2) + mp.log(1 - abs(B) ** 2))
                          - M * mp.log(1 - mp.conj(A) * B))
            if abs(want) < 1e-290:
                continue
            got = nbs_inner_closed(a, b, M)
            assert float(abs(got - want) / abs(want)) <= 2e-14 * M


def test_inner_closed_domain():
    assert nbs_inner_closed(0.3, 0.3, 4) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(DomainError):
        nbs_inner_closed(1.0, 0.3, 4)
    with pytest.raises(DomainError):
        nbs_inner_closed(0.3, 0.3, 0)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(M=st.integers(1, 2 ** 53), ns=st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=8))
def test_log_binomial_against_mpmath(M, ns):
    # measured over 2000 examples of this strategy: at most 4.6e-16 of |log C|
    # for M >= 50, and 2.2e-15 absolute at M = 1, where log C = 0 and the
    # O(log n) terms of the Stirling form cancel
    mp = pytest.importorskip("mpmath").mp
    got = _log_binomial(M, np.array(ns, dtype=np.float64)).tolist()
    with mp.workdps(60):
        for n, value in zip(ns, got):
            want = mp.loggamma(M + n) - mp.loggamma(n + 1) - mp.loggamma(M)
            assert abs(value - want) <= 3e-15 + 6e-16 * abs(want), (M, n)
            assert n > 0 or value == 0.0


def test_required_dimension_controls_tail():
    for M, eta, phi in ((1, 0.3, None), (5, 0.6, 0.0), (30, 0.9, math.pi),
                        (200, 0.5, math.pi / 4.0)):
        params = NBSParams(M=M, eta=eta)
        pol = TruncationPolicy()
        n_max = required_dimension(params, phi, pol)
        v = nbs(params, n_max=n_max) if phi is None else superposition(phi, params, n_max=n_max)
        # the discarded tail plus the retained two padding rows stay below tolerance
        assert np.sum(np.abs(v.amplitudes[n_max - 1:]) ** 2) < pol.tail_tolerance
        assert abs(v.norm() - 1.0) < 1e-11


def test_required_dimension_hard_cap():
    with pytest.raises(TruncationError):
        required_dimension(NBSParams(M=30, eta=0.9), None, TruncationPolicy(hard_cap=40))


@pytest.mark.parametrize("M, eta, n_max", [(2 ** 53, 1e-8, 16), (2 ** 53, 1e-7, 166),
                                           (10 ** 15, 3e-8, 16)])
def test_required_dimension_at_huge_m(M, eta, n_max):
    # the sizing weight takes log C in _log_binomial's Stirling form; an
    # lgamma difference, off by up to +-40 here, gave 22, 191 and 15
    x = eta * eta
    accurate = nbs_states._grown_n_max(
        lambda n: float(_log_binomial(M, np.array([n], dtype=np.float64))[0])
        + n * math.log(x) + M * math.log1p(-x),
        lambda n: (M + n) * x / (n + 1), 1.0, TruncationPolicy())
    assert required_dimension(NBSParams(M=M, eta=eta)) == accurate == n_max


def _scan_n_max(weight_log, ratio, boost, policy):
    # reference: the linear scan from n = 0 that the bisection in
    # nbs_states._grown_n_max replaced
    policy = policy or TruncationPolicy()
    tol = policy.tail_tolerance / boost
    for n in range(policy.hard_cap + 1):
        rho = ratio(n)
        if rho < 1.0 and math.exp(weight_log(n)) * rho / (1.0 - rho) < tol:
            return min(n + 2, policy.hard_cap)
    raise TruncationError(f"hard_cap={policy.hard_cap} reached")


def _sizes(fn, cases, policies):
    out = []
    for args in cases:
        for pol in policies:
            try:
                out.append(fn(*args, pol))
            except TruncationError:
                out.append("TruncationError")
    return out


def test_bisected_sizing_matches_linear_scan(monkeypatch):
    policies = (None, TruncationPolicy(tail_tolerance=1e-6), TruncationPolicy(hard_cap=300))
    phis = (None, 0.0, math.pi / 2.0, math.pi, 2.0)
    nbs_cases = [(NBSParams(M=M, eta=eta), phi)
                 for M in (1, 2, 7, 30, 300, 1000, 10 ** 4)
                 for eta in (1e-6, 0.05, 0.3, 0.6, 0.9, 0.95, 0.99, 0.995)
                 for phi in phis]
    cat_cases = [(alpha, phi) for alpha in (1e-4, 0.5, 1.0, 3.0, 2.0 - 1.5j, 10.0, 40.0)
                 for phi in phis]
    bisected = (_sizes(required_dimension, nbs_cases, policies),
                _sizes(required_dimension_cat, cat_cases, policies))
    monkeypatch.setattr(nbs_states, "_grown_n_max", _scan_n_max)
    scanned = (_sizes(required_dimension, nbs_cases, policies),
               _sizes(required_dimension_cat, cat_cases, policies))
    assert bisected == scanned
    # the cap is reached past the mode (M = 1, eta = 0.99, cap 300) and before
    # it: at M = 1000, eta = 0.9, w(n+1)/w(n) = (M + n) x / (n + 1) >= 1 up to
    # n ~ 4260
    capped = nbs_cases.index((NBSParams(M=1000, eta=0.9), 0.0)) * len(policies) + 2
    geometric = nbs_cases.index((NBSParams(M=1, eta=0.99), 0.0)) * len(policies) + 2
    assert bisected[0][capped] == bisected[0][geometric] == "TruncationError"


def _bisect_n_max(weight_log, ratio, boost, policy):
    # reference: the bisection over [0, hard_cap] that the bracketed search in
    # nbs_states._grown_n_max replaced
    policy = policy or TruncationPolicy()
    tol = policy.tail_tolerance / boost

    def done(n):
        rho = ratio(n)
        return rho < 1.0 and math.exp(weight_log(n)) * rho / (1.0 - rho) < tol

    n = bisect_left(range(policy.hard_cap + 1), True, key=done)
    if n > policy.hard_cap:
        raise TruncationError(f"hard_cap={policy.hard_cap} reached")
    return min(n + 2, policy.hard_cap)


_SIZING_POLICIES = (None, ORACLE_POLICY, TruncationPolicy(tail_tolerance=1e-6),
                    TruncationPolicy(tail_tolerance=0.5), TruncationPolicy(hard_cap=2),
                    TruncationPolicy(hard_cap=300), TruncationPolicy(hard_cap=2 ** 53))


def _sizing_draws(rng):
    # (sizer, args, policy): NBS labels with M log-uniform up to 1e4 or up to
    # 2**53, eta log-uniform from ETA_MIN, uniform, or 1 - 10^-u down to
    # 1 - 1e-8; cat labels through required_dimension_cat; each at None, an
    # axis phi or a random one, under a fixed policy or a hard_cap within a
    # few indices of the uncapped answer
    phis = (None, None, 0.0, math.pi / 2.0, math.pi, 2.0 * math.pi)
    for i in range(6000):
        phi = phis[i % len(phis)] if i % 7 else rng.uniform(0.0, 2.0 * math.pi)
        if i % 5:
            M = int(10.0 ** rng.uniform(0.0, 4.0)) if i % 4 else int(2.0 ** rng.uniform(0.0, 53.0))
            kind = i % 3
            if kind == 0:
                eta = 10.0 ** rng.uniform(math.log10(ETA_MIN), -1.0)
            elif kind == 1:
                eta = rng.uniform(1e-3, 0.999)
            else:
                eta = 1.0 - 10.0 ** rng.uniform(-8.0, -1.0)
            sizer, args = required_dimension, (NBSParams(M=M, eta=eta), phi)
        else:
            alpha = complex(10.0 ** rng.uniform(-160.0, 2.0)) * nbs_states.phase_factor(
                rng.uniform(0.0, 2.0 * math.pi))
            sizer, args = required_dimension_cat, (alpha, phi)
        policy = _SIZING_POLICIES[i % len(_SIZING_POLICIES)]
        if i % 11 == 0:
            try:
                uncapped = sizer(*args, ORACLE_POLICY)
            except TruncationError:
                uncapped = 20000
            policy = TruncationPolicy(tail_tolerance=1e-14,
                                      hard_cap=max(2, uncapped + int(rng.integers(-4, 3))))
        yield sizer, args, policy
    # the ends of the eta range
    for M in (1, 30, 2 ** 53):
        for eta in (ETA_MIN, 1.0 - 1e-8):
            for policy in _SIZING_POLICIES:
                yield required_dimension, (NBSParams(M=M, eta=eta), 0.0), policy


def test_bracketed_sizing_matches_bisection(monkeypatch):
    draws = list(_sizing_draws(np.random.default_rng(30)))
    assert len(draws) >= 5000

    def sized():
        out = []
        for sizer, args, policy in draws:
            try:
                out.append(sizer(*args, policy))
            except TruncationError:
                out.append("TruncationError")
            except ZeroNormError:
                out.append("ZeroNormError")
        return out

    bracketed = sized()
    monkeypatch.setattr(nbs_states, "_grown_n_max", _bisect_n_max)
    bisected = sized()
    assert bracketed.count("TruncationError") > 100
    assert len(set(bracketed)) > 500
    # Past ~1e10 components (hard_cap 2**53 only) the rounding of the log
    # weight, about (M + n) * 1e-16, outgrows its step from n to n + 1: the
    # float predicate flickers over a window of a few 1e-9 n, and each search
    # stops at some index inside it.  Below that the answers are equal.
    noisy = [(a, b) for a, b in zip(bracketed, bisected) if a != b]
    assert all(b >= 10 ** 10 and abs(a - b) <= 1e-8 * b for a, b in noisy), noisy
    assert len(noisy) < 50


def test_label_phase_has_unit_modulus_and_exact_axes():
    mag = nbs_states._nbs_base(NBSParams(M=50, eta=0.99), 3000).real
    amps = nbs_states._nbs_base(NBSParams(M=50, eta=0.99, theta=0.3), 3000)
    assert np.abs(np.abs(amps) / mag - 1.0).max() < 1e-15
    assert np.angle(amps[1000]) == pytest.approx(math.remainder(300.0, 2.0 * math.pi), abs=1e-12)
    for theta, unit in ((math.pi / 2.0, 1j), (math.pi, -1.0), (1.5 * math.pi, -1j)):
        amps = nbs_states._nbs_base(NBSParams(M=3, eta=0.5, theta=theta), 12)
        expected = np.abs(amps) * np.array([unit ** k for k in range(13)])
        assert np.array_equal(amps, expected)
    alpha = coherent(-1.5).amplitudes
    assert np.array_equal(alpha, np.abs(alpha) * (-1.0) ** np.arange(alpha.size))


def test_large_m_stays_compact_and_normalized():
    # log-space construction keeps M = 10^4 usable; the norm is 3e-16 off 1,
    # well inside this slack
    params = NBSParams(M=10000, eta=0.01)
    dim = required_dimension(params, math.pi)
    assert dim < 60
    v = superposition(math.pi, params, n_max=dim)
    assert abs(v.norm() - 1.0) < 1e-10


def test_coherent_state_statistics():
    v = coherent(1.2)
    st = oracle_stats(v)
    assert st.mean == pytest.approx(1.44, abs=1e-10)
    assert st.mandel_q == pytest.approx(0.0, abs=1e-10)
    vac = coherent(0.0)
    assert vac.amplitudes[0] == 1.0


def test_cat_state_parity_and_norm():
    even = cat_state(1.1, 0.0)
    odd = cat_state(1.1, math.pi)
    assert np.all(even.amplitudes[1::2] == 0.0)
    assert np.all(odd.amplitudes[0::2] == 0.0)
    assert abs(even.norm() - 1.0) < 1e-12
    assert abs(odd.norm() - 1.0) < 1e-12
    with pytest.raises(DomainError):
        cat_state(0.0, math.pi)


def test_cat_required_dimension_grows_with_alpha():
    small = required_dimension_cat(0.5, 0.0)
    large = required_dimension_cat(3.0, 0.0)
    assert small < large


def test_odd_superposition_tiny_eta_mean_is_one():
    # the odd state keeps a single photon as eta -> 0
    params = NBSParams(M=5, eta=0.01)
    st = oracle_stats(superposition(math.pi, params))
    assert st.mean == pytest.approx(1.0, abs=1e-4)


def test_phi_outside_range_rejected():
    # phi outside [0, 2 pi] is a domain error, not a silent wrap
    params = NBSParams(M=2, eta=0.4)
    with pytest.raises(DomainError):
        superposition(2.0 * math.pi + 0.2, params)


def test_partner_phase_wraps_into_range():
    assert partner_phase(0.0) == math.pi
    assert partner_phase(math.pi) == 2.0 * math.pi
    assert partner_phase(2.0 * math.pi) == math.pi
    assert partner_phase(4.0) == 4.0 - math.pi
    with pytest.raises(DomainError):
        partner_phase(-0.1)


@pytest.mark.parametrize("alpha", [1e-200, 1e-170, 1e-160, 1e-155, 7e-155])
@pytest.mark.parametrize("call", [
    lambda a: cat_state(a, math.pi),
    lambda a: cat_state(a, math.pi, n_max=5),
    odd_coherent,
    lambda a: required_dimension_cat(a, math.pi),
], ids=["cat_state", "cat_state-n_max", "odd_coherent", "required_dimension_cat"])
def test_cat_state_vanishing_norm_raises(call, alpha):
    # |alpha|^2 is subnormal or 0, so the odd cat's pair denominator
    # 2(1 + cos(phi) r) = 4|alpha|^2 is not a normal float: building and
    # sizing both raise, with no NaN, no overflow and no false truncation
    with pytest.raises(ZeroNormError):
        call(alpha)


def test_smallest_normal_pair_still_builds():
    # 4 |alpha|^2 just above the normal floats: the odd cat is |1> on 4 components
    v = cat_state(7.6e-155, math.pi)
    assert v.n_max == 3
    assert v.amplitudes.tolist() == [0j, 0.9999999999999963 + 0j, 0j, 0j]
    assert required_dimension_cat(7.6e-155, math.pi) == 3
    # the smallest NBS pair, D = 8.9e-308
    assert superposition(math.pi, NBSParams(1, ETA_MIN)).norm() == pytest.approx(1.0, abs=1e-12)


def test_M_up_to_the_float_limit_is_accepted():
    # 2**53 is the largest M whose successor is still a distinct float
    assert NBSParams(M=2 ** 53, eta=0.3).M == 2 ** 53
    assert nbs_inner_closed(0.0, 0.0, 2 ** 53) == 1.0


@pytest.mark.parametrize("call", [
    lambda: coherent(1e100, n_max=5),
    lambda: cat_state(1e100, 0.0, n_max=5),
    lambda: nbs(NBSParams(M=10 ** 6, eta=0.9), n_max=5),
    lambda: superposition(0.0, NBSParams(M=10 ** 6, eta=0.9), n_max=5),
    lambda: superposition(math.pi, NBSParams(M=2, eta=0.5), n_max=0),
])
def test_truncation_with_no_surviving_amplitude_raises(call):
    # every kept amplitude underflows, or the one kept is parity-forbidden
    with pytest.raises(TruncationError, match="no nonzero amplitude"):
        call()
