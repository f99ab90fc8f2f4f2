"""One-shot verification suite.

Every check pits an implementation against an independent reference: closed
forms against brute-force summation over explicitly built states, operator
identities against matrix realizations, protocols against their analytic
targets.  ``run_suite`` runs the registered checks in order; the CLI turns
the results into a report and an exit code.

To add a check, write one function under ``@check(name, bound)``; it runs
after the checks defined above it.  The body returns what it measures, and
the registry applies the bound and the pass rule:

* an exact check (no bound) returns a bool;
* a numeric check returns its residual, or ``(residual, detail)``;
* a shape check returns ``(spread, detail, conditions)``, and every
  boolean in ``conditions`` must hold as well.

A body with an ``rng`` parameter draws from the one seeded generator the
suite shares.  ``check_<name>(scale)`` still runs a single check.

``tol_scale`` multiplies every numeric bound.  The corrupt-tolerance mode of
the CLI passes a tiny scale so the suite must fail, which guards against a
suite that accidentally asserts nothing.
"""
from __future__ import annotations

import functools
import inspect
import math
from typing import Callable, Iterator, List, NamedTuple, Optional

import numpy as np

from . import algebra, generation, nbs_states, statistics, sweeps
from .errors import TruncationError, ZeroNormError
from .fock_core import (
    FockVector,
    TruncationPolicy,
    apply_annihilate,
    apply_create,
    apply_number,
    inner,
    number_state,
    oracle_stats,
)
from .nbs_states import NBSParams

# Oracle states are built with a tighter tail than the default policy so the
# comparison grid has ~100x headroom under its 1e-9 bound.
ORACLE_POLICY = TruncationPolicy(tail_tolerance=1e-14)

GRID_PHIS = (0.0, math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi)
GRID_ETAS = tuple(0.05 * k for k in range(1, 19))
GRID_MS = (1, 5, 30)
GRID_THETA = 0.7
# (M, eta, theta) added to the oracle grid.  At M = 1000, eta = 0.9 the <a^k>
# terms near n = 0 are ~e^-1660 in absolute scale, so a series that does not
# sum relative to its peak (near n = 4300) underflows there.  At theta = 0
# X2 is squeezed and <a^2> cancels against the mean, so the reference
# moments must all carry the same normalization.
GRID_CORNERS = ((1000, 0.9, GRID_THETA), (1000, 0.9, 0.0), (10000, 0.5, 0.0))

LADDER_TRIPLES = ((1, 0.3, 0.0), (5, 0.6, 1.0), (30, 0.2, math.pi))
LADDER_N_MAX = 200

DEFAULT_SEED = 20260814
TWO_PI_OPEN = 2.0 * math.pi - 1e-9


class CheckResult(NamedTuple):
    # field order is the key order of ``verify --json``
    name: str
    passed: bool
    measured: Optional[float] = None
    bound: Optional[float] = None
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        parts = [f"{status} {self.name}"]
        if self.measured is not None:
            parts.append(f"measured={self.measured:.3e}")
        if self.bound is not None:
            parts.append(f"bound={self.bound:.3e}")
        if self.detail:
            parts.append(self.detail)
        return "  ".join(parts)


# every registered check, in the order ``run_suite`` runs them
CHECKS: List[Callable[..., CheckResult]] = []


def check(name: str, bound: Optional[float] = None, note: str = ""):
    """Register the decorated body as the suite's next check.

    ``bound`` None makes an exact check.  ``note`` is the report detail of a
    body that returns none of its own.
    """
    def register(body):
        draws = "rng" in inspect.signature(body).parameters

        @functools.wraps(body)
        def run(scale: float = 1.0, rng: Optional[np.random.Generator] = None) -> CheckResult:
            if draws:
                out = body(np.random.default_rng(DEFAULT_SEED) if rng is None else rng)
            else:
                out = body()
            if bound is None:
                return CheckResult(name=name, passed=bool(out), detail=note)
            if not isinstance(out, tuple):
                out = (out,)
            # pad (residual,) and (residual, detail) out to (residual, detail, conditions)
            measured, detail, conditions = out + (note, ())[len(out) - 1:]
            b = bound * scale
            return CheckResult(name=name, passed=bool(measured <= b) and all(conditions),
                               detail=detail, measured=float(measured), bound=b)

        CHECKS.append(run)
        return run
    return register


def _random_unit(rng, dim: int) -> FockVector:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return FockVector(v / np.linalg.norm(v))


def _raises(error, fn, *args) -> bool:
    try:
        fn(*args)
    except error:
        return True
    return False


# ---------------------------------------------------------------------------
# operator / fock-space checks
# ---------------------------------------------------------------------------

@check("ladder-adjoint-pairing", 1e-12)
def check_ladder_adjoint(rng):
    worst = 0.0
    for _ in range(25):
        u = _random_unit(rng, 41)
        v = _random_unit(rng, 41)
        lhs = inner(u, apply_annihilate(v))
        rhs = inner(apply_create(u), v)
        worst = max(worst, abs(lhs - rhs))
    return worst


@check("commutator-identity-below-top-row", 1e-12, note="top row excluded by truncation")
def check_commutator_body(rng):
    v = _random_unit(rng, 40)
    w = apply_annihilate(apply_create(v)).amplitudes \
        - apply_create(apply_annihilate(v)).amplitudes
    return float(np.abs(w[:-1] - v.amplitudes[:-1]).max())


@check("number-operator-from-ladders", 1e-12)
def check_number_from_ladders(rng):
    v = _random_unit(rng, 40)
    diff = apply_create(apply_annihilate(v)).amplitudes - apply_number(v).amplitudes
    return float(np.abs(diff).max())


@check("number-state-moments", 1e-13)
def check_number_state_stats():
    st = oracle_stats(number_state(5, 30))
    return max(abs(st.mean - 5.0), abs(st.variance), abs(st.mandel_q + 1.0))


@check("vacuum-mandel-q-is-typed-undefined", note="mandel_q is None, not NaN")
def check_vacuum_q_undefined():
    st = oracle_stats(number_state(0, 10))
    return st.mandel_q is None and st.mean == 0.0


@check("coherent-state-poisson-moments", 1e-10)
def check_coherent_poissonian():
    st = oracle_stats(nbs_states.coherent(
        1.3, n_max=nbs_states.required_dimension_cat(1.3, None, ORACLE_POLICY)))
    return max(abs(st.mandel_q), abs(st.mean - 1.69))


# ---------------------------------------------------------------------------
# state-construction checks
# ---------------------------------------------------------------------------

_NORM_POINTS = ((1, 0.3), (5, 0.6), (30, 0.2), (30, 0.9), (200, 0.5))


def _sliced_states(params: NBSParams, phis,
                   policy: Optional[TruncationPolicy]) -> Iterator[FockVector]:
    """The state of each phi (None: the bare NBS), sized by ``policy``, all from one base.

    Each phi gets the n_max ``required_dimension`` gives it, and its state
    is built on a prefix of one ``_nbs_base`` at the largest of them, which
    has the bits of a base built at that n_max: the base is elementwise in n.
    The states are built one at a time, as the caller takes them, so that
    only one of them is held at once.
    """
    sizes = [nbs_states._nbs_dimension(params, phi, policy) for phi in phis]
    base = nbs_states._nbs_base(params, max(sizes))
    overlap = params._terms[1:3]
    for phi, n_max in zip(phis, sizes):
        yield nbs_states._truncated(base[:n_max + 1]) if phi is None else \
            nbs_states._parity_superposition(base[:n_max + 1], phi, *overlap)


@check("constructed-state-norms", 1e-10)
def check_state_norms():
    worst = 0.0
    for M, eta in _NORM_POINTS:
        for v in _sliced_states(NBSParams(M=M, eta=eta, theta=0.4), (None,) + GRID_PHIS, None):
            worst = max(worst, abs(v.norm() - 1.0))
    return worst


@check("parity-support-exact-zeros", 0.0, note="forbidden-parity amplitudes must be exactly 0")
def check_parity_support():
    params = NBSParams(M=5, eta=0.6, theta=1.1)
    even = nbs_states.superposition(0.0, params).amplitudes
    odd = nbs_states.superposition(math.pi, params).amplitudes
    return max(float(np.abs(even[1::2]).max()), float(np.abs(odd[0::2]).max()))


@check("nbs-overlap-closed-vs-summed", 1e-10)
def check_overlap_closed_form(rng):
    worst = 0.0
    for _ in range(100):
        M = int(rng.integers(1, 41))
        ra, rb = rng.uniform(0.05, 0.93, size=2)
        ta, tb = rng.uniform(0.0, TWO_PI_OPEN, size=2)
        pa = NBSParams(M=M, eta=float(ra), theta=float(ta))
        pb = NBSParams(M=M, eta=float(rb), theta=float(tb))
        dim = max(nbs_states.required_dimension(pa, None, ORACLE_POLICY),
                  nbs_states.required_dimension(pb, None, ORACLE_POLICY))
        summed = inner(nbs_states.nbs(pa, n_max=dim), nbs_states.nbs(pb, n_max=dim))
        closed = nbs_states.nbs_inner_closed(pa.eta_c, pb.eta_c, M)
        worst = max(worst, abs(summed - closed))
    return worst


@check("pi-half-superposition-has-bare-distribution", 1e-12)
def check_pi_half_distribution():
    params = NBSParams(M=5, eta=0.6)
    dim = nbs_states.required_dimension(params, math.pi / 2.0)
    d_sup = nbs_states.photon_distribution(nbs_states.superposition(math.pi / 2.0, params, n_max=dim))
    d_bare = nbs_states.photon_distribution(nbs_states.nbs(params, n_max=dim))
    return float(np.abs(d_sup - d_bare).max())


@check("pn-closed-matches-amplitudes", 1e-12)
def check_pn_closed_matches_amplitudes():
    params = NBSParams(M=5, eta=0.6)
    phi = 3.0 * math.pi / 4.0
    v = nbs_states.superposition(phi, params)
    dist = nbs_states.photon_distribution(v)
    closed = np.array([statistics.pn_closed(n, phi, params) for n in range(len(v))])
    return float(np.abs(dist - closed).max())


@check("pn-table-sums-to-one", 1e-10)
def check_pn_sums_to_one():
    params = NBSParams(M=30, eta=0.6)
    worst = 0.0
    for phi in (0.0, math.pi / 2.0, math.pi):
        n_max = nbs_states.required_dimension(params, phi, ORACLE_POLICY)
        worst = max(worst, abs(sum(statistics.pn_closed_upto(n_max, phi, params).tolist()) - 1.0))
    return worst


@check("generating-function-vs-series", 1e-10)
def check_generating_function():
    params = NBSParams(M=4, eta=0.6)
    phi = math.pi / 4.0
    pn = statistics.pn_closed_upto(
        nbs_states.required_dimension(params, phi, ORACLE_POLICY), phi, params).tolist()
    return max(abs(statistics.generating_function(lam, phi, params)
                   - sum(p * lam ** n for n, p in enumerate(pn)))
               for lam in (-0.9, -0.3, 0.0, 0.5, 0.99, 1.0))


@check("cat-limit-convergence", 1e-3)
def check_cat_limit():
    fids = []
    for M in (100, 1000, 10000):
        params = NBSParams(M=M, eta=math.sqrt(1.0 / M))
        dim = max(nbs_states.required_dimension(params, math.pi),
                  nbs_states.required_dimension_cat(1.0, math.pi))
        sup = nbs_states.superposition(math.pi, params, n_max=dim)
        cat = nbs_states.cat_state(1.0, math.pi, n_max=dim)
        fids.append(generation.fidelity(sup, cat))
    monotone = fids[0] < fids[1] < fids[2]
    detail = "fidelities " + ", ".join(f"{f:.10f}" for f in fids)
    return 1.0 - fids[2], detail, (monotone,)


# ---------------------------------------------------------------------------
# closed-form statistics checks
# ---------------------------------------------------------------------------

_ORACLE_QUANTITIES = ("mean", "second", "q", "var_x1", "var_x2")


def _oracle_moments(v: FockVector):
    """The ``_ORACLE_QUANTITIES`` summed over the built state ``v``; no closed form enters."""
    ref = oracle_stats(v)
    # <a> and <a^2> take the same normalization oracle_stats gives the moments:
    # at theta = 0 the X2 variance cancels <a^2> against the mean
    norm2 = v.norm() ** 2
    av = apply_annihilate(v)
    ea = inner(v, av) / norm2
    ea2 = inner(v, apply_annihilate(av)) / norm2
    return (ref.mean, ref.second_moment, ref.mandel_q,
            0.25 + 0.5 * (ref.mean + ea2.real - 2.0 * ea.real ** 2),
            0.25 + 0.5 * (ref.mean - ea2.real - 2.0 * ea.imag ** 2))


@check("closed-stats-vs-oracle-grid", 1e-9)
def check_oracle_grid():
    # the variances of a (M, theta) grid are one series call and one column
    # kernel call, as fig2 makes them: each entry has the bits of its
    # one-point call
    grids = [(M, GRID_ETAS, GRID_THETA) for M in GRID_MS] + \
        [(M, (eta,), theta) for M, eta, theta in GRID_CORNERS]
    unit = nbs_states._phase_column(GRID_PHIS)
    worst = 0.0
    where = ""
    for M, etas, theta in grids:
        variances = statistics._series_sums(M, etas, theta).quadratures(unit.real, unit.imag)
        # [eta][phi] lists of floats
        var_x1, var_x2 = (v.T.tolist() for v in variances)
        for eta, x1s, x2s in zip(etas, var_x1, var_x2):
            params = NBSParams(M=M, eta=eta, theta=theta)
            states = _sliced_states(params, GRID_PHIS, ORACLE_POLICY)
            for phi, v, x1, x2 in zip(GRID_PHIS, states, x1s, x2s):
                s = statistics.closed_stats(phi, params)
                closed = (s.mean, s.second_moment, s.mandel_q, x1, x2)
                for name, ref, got in zip(_ORACLE_QUANTITIES, _oracle_moments(v), closed):
                    rel = abs(ref - got) / max(1.0, abs(got))
                    if rel > worst:
                        worst = rel
                        where = (f"worst at {name}, M={M}, phi={phi:.3f}, eta={eta:.2f}, "
                                 f"theta={theta:.2f}")
    return worst, where


@check("mandel-q-mean-recursion", 1e-10)
def check_recursion_identity():
    return max(statistics.q_recursion_residual(phi, NBSParams(M=M, eta=eta))
               for M in GRID_MS for phi in GRID_PHIS for eta in GRID_ETAS)


@check("q-limit-agreement-at-small-eta", 0.01)
def check_q_limit_consistency():
    return max(abs(statistics.q_closed(phi, NBSParams(M=M, eta=1e-3)) - statistics.q_limit(phi))
               for phi in GRID_PHIS for M in (1, 30))


@check("small-eta-q-expansion", 1e-9)
def check_small_eta_q_expansion():
    # Q of the parity states just above eta = 1e-4 against its quadratic
    # expansion about eta = 0
    eta = 1.0000001 * 1e-4
    x = eta * eta
    expansions = ((0.0, lambda M: 1.0 + ((M + 2) * (M + 3) / 3.0 - M * (M + 1)) * x * x),
                  (math.pi, lambda M: -1.0 + (2.0 / 3.0) * (M + 1) * (M + 2) * x * x))
    return max(abs(statistics.q_closed(phi, NBSParams(M=M, eta=eta)) - series(M))
               for M in (1, 30, 1000) for phi, series in expansions)


@check("fig1-q-curve-shape", 0.01)
def check_fig1_shape():
    # the columns of `nbstates fig1`, one Q curve per phi
    cfg = sweeps.fig1_config()
    table = sweeps.fig1_records(cfg)
    etas = table.etas
    q = {phi: column.tolist() for phi, column in zip(table.phis, table.values)}
    q_pi = q[math.pi]
    q_34 = q[3.0 * math.pi / 4.0]
    sub_small_eta = all(v < 0.0 for e, v in zip(etas, q_pi) if e <= 0.2)
    even_positive = all(v > 0.0 for v in q[0.0])
    neg_34 = [e for e, v in zip(etas, q_34) if v < 0.0]
    neg_pi = [e for e, v in zip(etas, q_pi) if v < 0.0]
    intermediate = (len(neg_34) > 0 and len(neg_34) < len(neg_pi)
                    and abs(min(q_34)) < abs(min(q_pi)))
    merged = [statistics.q_closed(phi, NBSParams(M=cfg.M, eta=math.sqrt(0.9)))
              for phi in cfg.phis]
    spread = (max(merged) - min(merged)) / abs(sum(merged) / len(merged))
    detail = (f"odd sub-poissonian to eta<=0.2: {sub_small_eta}; even positive: {even_positive}; "
              f"3pi/4 intermediate: {intermediate}; spread at eta^2=0.9: {spread:.2e}")
    return spread, detail, (sub_small_eta, even_positive, intermediate)


@check("fig2-variance-curve-shape", 0.01)
def check_fig2_shape():
    # the columns of `nbstates fig2`, one X2 variance curve per phi; the
    # points off the grid come from quadrature_variances
    cfg = sweeps.fig2_config()
    table = sweeps.fig2_records(cfg)
    etas = table.etas
    var2 = {phi: column.tolist() for phi, column in zip(table.phis, table.values)}

    def off_grid(phi, eta, theta):
        return statistics.quadrature_variances(phi, NBSParams(M=cfg.M, eta=eta, theta=theta))[1]

    odd_no_squeeze = all(v >= 0.25 for e, v in zip(etas, var2[math.pi]) if e <= 0.2)
    squeeze_small = all(
        min(v for e, v in zip(etas, var2[phi]) if e < 0.3) < 0.25
        for phi in (0.0, math.pi / 2.0, 3.0 * math.pi / 4.0))
    # the grid's last point is 0.9500000000000001, not 0.95
    merged = [off_grid(phi, 0.95, 0.0) for phi in cfg.phis]
    spread = (max(merged) - min(merged)) / abs(sum(merged) / len(merged))
    # The advertised loss of squeezing as eta -> 1 needs a small nonzero
    # quadrature angle; at theta exactly 0 the X2 variance stays below the
    # vacuum level all the way up.  theta = 0.05 realizes the full shape.
    theta = 0.05
    crossing = off_grid(0.0, 0.5, theta) < 0.25 < off_grid(0.0, 0.95, theta)
    detail = (f"odd never squeezed (eta<=0.2): {odd_no_squeeze}; even/pi2/3pi4 squeezed below "
              f"eta=0.3: {squeeze_small}; spread at 0.95: {spread:.2e}; "
              f"squeezing lost toward eta=1 at theta=0.05: {crossing}")
    return spread, detail, (odd_no_squeeze, squeeze_small, crossing)


# ---------------------------------------------------------------------------
# algebra checks
# ---------------------------------------------------------------------------

@check("pair-ladder-identity-suite", 1e-9,
       note=f"n_max={LADDER_N_MAX}, three parameter triples")
def check_ladder_suite():
    n_max = LADDER_N_MAX
    worst = 0.0
    for M, eta, theta in LADDER_TRIPLES:
        params = NBSParams(M=M, eta=eta, theta=theta)
        for build in (nbs_states.even_nbs, nbs_states.odd_nbs):
            worst = max(worst, algebra.eigen_residual(build(params, n_max=n_max), params))
    return worst


@check("cat-states-a2-eigenvalue", 1e-10, note="a^2 eigenvalue alpha^2, top two rows excluded")
def check_coherent_pair_eigenvalue():
    alpha = 1.3 * nbs_states.phase_factor(0.4)
    worst = 0.0
    for phi in (0.0, math.pi):
        v = nbs_states.cat_state(
            alpha, phi, n_max=nbs_states.required_dimension_cat(alpha, phi, ORACLE_POLICY))
        lowered = apply_annihilate(apply_annihilate(v)).amplitudes
        expect = alpha * alpha * v.amplitudes
        worst = max(worst, float(np.abs(lowered[:-2] - expect[:-2]).max()))
    return worst


@check("structure-function-closed-form", 1e-12)
def check_structure_function_formula():
    # S(n) read off each parity NBS against its closed form,
    # (M+n-1)(M+n-2) eta_c^4 times n/(n-1) for even n and (n-1)/n for odd n
    worst = 0.0
    for M, eta, theta in LADDER_TRIPLES:
        params = NBSParams(M=M, eta=eta, theta=theta)
        eta_c4 = params.eta_c ** 4
        for build, p0 in ((nbs_states.even_nbs, 0), (nbs_states.odd_nbs, 1)):
            seq = algebra.ParitySequence.of(build(params, n_max=40 + p0))
            for n in seq.photon_numbers[1:].tolist():
                num, den = (n, n - 1) if p0 == 0 else (n - 1, n)
                reference = num * (M + n - 1) * (M + n - 2) * eta_c4 / den
                worst = max(worst, abs(seq.s(n) - reference) / abs(reference))
    return worst


# ---------------------------------------------------------------------------
# generation checks
# ---------------------------------------------------------------------------

@check("kerr-quarter-period-fidelity", 1e-10)
def check_kerr_generation():
    worst = 0.0
    for M, eta, theta in ((5, 0.4, 1.2), (30, 0.2, math.pi)):
        params = NBSParams(M=M, eta=eta, theta=theta)
        out = generation.kerr_generate(params)
        target = nbs_states.superposition(math.pi / 2.0, params, n_max=out.n_max)
        worst = max(worst, 1.0 - generation.fidelity(out, target))
    return worst


@check("kerr-evolution-preserves-pn", 1e-14)
def check_kerr_preserves_distribution():
    params = NBSParams(M=5, eta=0.4, theta=1.2)
    out = generation.kerr_generate(params)
    bare = nbs_states.nbs(params, n_max=out.n_max)
    diff = np.abs(nbs_states.photon_distribution(out) - nbs_states.photon_distribution(bare))
    return float(diff.max())


@check("dispersive-pi-time-projections", 1e-10,
       note="g-branch -> phi state, e-branch -> phi+pi state")
def check_dispersive_generation():
    params = NBSParams(M=3, eta=0.5, theta=0.3)
    r = nbs_states.nbs_parity_overlap(params)
    worst = 0.0
    for phi in (0.0, math.pi / 4.0, math.pi / 2.0, math.pi):
        out = generation.dispersive_protocol(params, phi)
        target_g = nbs_states.superposition(phi, params, n_max=out.projected_g.n_max)
        target_e = nbs_states.superposition(nbs_states.partner_phase(phi), params,
                                            n_max=out.projected_e.n_max)
        worst = max(worst, 1.0 - generation.fidelity(out.projected_g, target_g))
        worst = max(worst, 1.0 - generation.fidelity(out.projected_e, target_e))
        worst = max(worst, abs(out.prob_g - 0.5 * (1.0 + math.cos(phi) * r)))
        worst = max(worst, abs(out.prob_g + out.prob_e - 1.0))
    return worst


@check("dispersive-degenerate-branch-raises",
       note="phi=0, t=0 leaves the e-branch empty and must raise")
def check_dispersive_zero_norm_guard():
    return _raises(ZeroNormError, generation.dispersive_protocol, NBSParams(M=3, eta=0.5),
                   0.0, 0.0)


@check("hard-cap-truncation-raises", note="dimension demand beyond hard_cap must raise")
def check_truncation_guard():
    return _raises(TruncationError, nbs_states.required_dimension, NBSParams(M=30, eta=0.9),
                   None, TruncationPolicy(hard_cap=50))


@check("sweep-csv-deterministic", note="same config renders byte-identical CSV")
def check_csv_determinism():
    cfg = sweeps.fig1_config()
    return (sweeps.render_sweep_csv(sweeps.fig1_records(cfg))
            == sweeps.render_sweep_csv(sweeps.fig1_records(cfg)))


def run_suite(tol_scale: float = 1.0, seed: int = DEFAULT_SEED) -> List[CheckResult]:
    """Every registered check in order, the random ones drawing from one generator."""
    rng = np.random.default_rng(seed)
    return [run(tol_scale, rng) for run in CHECKS]


def render_report(results: List[CheckResult]) -> str:
    lines = [r.line() for r in results]
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"


def results_to_json(results: List[CheckResult]) -> List[dict]:
    return [r._asdict() for r in results]
