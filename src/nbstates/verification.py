"""One-shot verification suite.

Every check pits an implementation against an independent reference: closed
forms against brute-force summation over explicitly built states, operator
identities against matrix realizations, protocols against their analytic
targets.  ``run_suite`` returns structured results; the CLI turns them into
a report and an exit code.

``tol_scale`` multiplies every numeric bound.  The corrupt-tolerance mode of
the CLI passes a tiny scale so the suite must fail, which guards against a
suite that accidentally asserts nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

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
# (M, etas) added to the oracle grid: at M = 1000, eta = 0.9 the <a^k> terms
# near n = 0 are ~e^-1660 in absolute scale, so a series that does not sum
# relative to its peak (near n = 4300) underflows there
GRID_CORNERS = ((1000, (0.9,)),)

LADDER_TRIPLES = ((1, 0.3, 0.0), (5, 0.6, 1.0), (30, 0.2, math.pi))
LADDER_N_MAX = 200

DEFAULT_SEED = 20260814
TWO_PI_OPEN = 2.0 * math.pi - 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    measured: Optional[float] = None
    bound: Optional[float] = None

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


def _residual_check(name: str, measured: float, bound: float, scale: float,
                    detail: str = "") -> CheckResult:
    b = bound * scale
    return CheckResult(name=name, passed=bool(measured <= b), detail=detail,
                       measured=float(measured), bound=b)


def _random_unit(rng, dim: int) -> FockVector:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return FockVector(v / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# operator / fock-space checks
# ---------------------------------------------------------------------------

def check_ladder_adjoint(rng, scale: float) -> CheckResult:
    worst = 0.0
    for _ in range(25):
        u = _random_unit(rng, 41)
        v = _random_unit(rng, 41)
        lhs = inner(u, apply_annihilate(v))
        rhs = inner(apply_create(u), v)
        worst = max(worst, abs(lhs - rhs))
    return _residual_check("ladder-adjoint-pairing", worst, 1e-12, scale)


def check_commutator_body(rng, scale: float) -> CheckResult:
    v = _random_unit(rng, 40)
    w = apply_annihilate(apply_create(v)).amplitudes \
        - apply_create(apply_annihilate(v)).amplitudes
    body = np.abs(w[:-1] - v.amplitudes[:-1])
    return _residual_check("commutator-identity-below-top-row", float(body.max()),
                           1e-12, scale, detail="top row excluded by truncation")


def check_number_from_ladders(rng, scale: float) -> CheckResult:
    v = _random_unit(rng, 40)
    diff = apply_create(apply_annihilate(v)).amplitudes - apply_number(v).amplitudes
    return _residual_check("number-operator-from-ladders", float(np.abs(diff).max()),
                           1e-12, scale)


def check_number_state_stats(scale: float) -> CheckResult:
    st = oracle_stats(number_state(5, 30))
    worst = max(abs(st.mean - 5.0), abs(st.variance), abs(st.mandel_q + 1.0))
    return _residual_check("number-state-moments", worst, 1e-13, scale)


def check_vacuum_q_undefined() -> CheckResult:
    st = oracle_stats(number_state(0, 10))
    ok = st.mandel_q is None and st.mean == 0.0
    return CheckResult(name="vacuum-mandel-q-is-typed-undefined", passed=ok,
                       detail="mandel_q is None, not NaN")


def check_coherent_poissonian(scale: float) -> CheckResult:
    st = oracle_stats(nbs_states.coherent(1.3, ORACLE_POLICY))
    worst = max(abs(st.mandel_q), abs(st.mean - 1.69))
    return _residual_check("coherent-state-poisson-moments", worst, 1e-10, scale)


# ---------------------------------------------------------------------------
# state-construction checks
# ---------------------------------------------------------------------------

_NORM_POINTS = ((1, 0.3), (5, 0.6), (30, 0.2), (30, 0.9), (200, 0.5))


def check_state_norms(scale: float) -> CheckResult:
    worst = 0.0
    for M, eta in _NORM_POINTS:
        params = NBSParams(M=M, eta=eta, theta=0.4)
        worst = max(worst, abs(nbs_states.nbs(params).norm() - 1.0))
        for phi in GRID_PHIS:
            worst = max(worst, abs(nbs_states.superposition(phi, params).norm() - 1.0))
    return _residual_check("constructed-state-norms", worst, 1e-10, scale)


def check_parity_support() -> CheckResult:
    params = NBSParams(M=5, eta=0.6, theta=1.1)
    even = nbs_states.superposition(0.0, params).amplitudes
    odd = nbs_states.superposition(math.pi, params).amplitudes
    leak = max(float(np.abs(even[1::2]).max()), float(np.abs(odd[0::2]).max()))
    return CheckResult(name="parity-support-exact-zeros", passed=leak == 0.0,
                       measured=leak, bound=0.0,
                       detail="forbidden-parity amplitudes must be exactly 0")


def check_overlap_closed_form(rng, scale: float) -> CheckResult:
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
    return _residual_check("nbs-overlap-closed-vs-summed", worst, 1e-10, scale)


def check_pi_half_distribution(scale: float) -> CheckResult:
    params = NBSParams(M=5, eta=0.6)
    dim = nbs_states.required_dimension(params, math.pi / 2.0)
    d_sup = nbs_states.photon_distribution(nbs_states.superposition(math.pi / 2.0, params, n_max=dim))
    d_bare = nbs_states.photon_distribution(nbs_states.nbs(params, n_max=dim))
    return _residual_check("pi-half-superposition-has-bare-distribution",
                           float(np.abs(d_sup - d_bare).max()), 1e-12, scale)


def check_pn_closed_matches_amplitudes(scale: float) -> CheckResult:
    params = NBSParams(M=5, eta=0.6)
    phi = 3.0 * math.pi / 4.0
    v = nbs_states.superposition(phi, params)
    dist = nbs_states.photon_distribution(v)
    closed = np.array([statistics.pn_closed(n, phi, params) for n in range(len(v))])
    return _residual_check("pn-closed-matches-amplitudes",
                           float(np.abs(dist - closed).max()), 1e-12, scale)


def check_pn_sums_to_one(scale: float) -> CheckResult:
    params = NBSParams(M=30, eta=0.6)
    worst = 0.0
    for phi in (0.0, math.pi / 2.0, math.pi):
        rows = sweeps.pn_table(phi, params, ORACLE_POLICY)
        worst = max(worst, abs(sum(p for _, p in rows) - 1.0))
    return _residual_check("pn-table-sums-to-one", worst, 1e-10, scale)


def check_generating_function(scale: float) -> CheckResult:
    params = NBSParams(M=4, eta=0.6)
    phi = math.pi / 4.0
    rows = sweeps.pn_table(phi, params, ORACLE_POLICY)
    worst = 0.0
    for lam in (-0.9, -0.3, 0.0, 0.5, 0.99, 1.0):
        series = sum(p * lam ** n for n, p in rows)
        worst = max(worst, abs(statistics.generating_function(lam, phi, params) - series))
    return _residual_check("generating-function-vs-series", worst, 1e-10, scale)


def check_cat_limit(scale: float) -> CheckResult:
    fids = []
    for M in (100, 1000, 10000):
        params = NBSParams(M=M, eta=math.sqrt(1.0 / M))
        dim = max(nbs_states.required_dimension(params, math.pi),
                  nbs_states.required_dimension_cat(1.0, math.pi))
        sup = nbs_states.superposition(math.pi, params, n_max=dim)
        cat = nbs_states.cat_state(1.0, math.pi, n_max=dim)
        fids.append(generation.fidelity(sup, cat))
    monotone = fids[0] < fids[1] < fids[2]
    final_gap = 1.0 - fids[2]
    passed = monotone and final_gap <= 1e-3 * scale
    detail = "fidelities " + ", ".join(f"{f:.10f}" for f in fids)
    return CheckResult(name="cat-limit-convergence", passed=passed,
                       measured=final_gap, bound=1e-3 * scale, detail=detail)


# ---------------------------------------------------------------------------
# closed-form statistics checks
# ---------------------------------------------------------------------------

def check_oracle_grid(scale: float) -> CheckResult:
    worst = 0.0
    where = ""
    for M, etas in [(M, GRID_ETAS) for M in GRID_MS] + list(GRID_CORNERS):
        for phi in GRID_PHIS:
            for eta in etas:
                params = NBSParams(M=M, eta=eta, theta=GRID_THETA)
                v = nbs_states.superposition(phi, params, ORACLE_POLICY)
                ref = oracle_stats(v)
                ea = inner(v, apply_annihilate(v))
                ea2 = inner(v, apply_annihilate(apply_annihilate(v)))
                ref_v1 = 0.25 + 0.5 * (ref.mean + ea2.real - 2.0 * ea.real ** 2)
                ref_v2 = 0.25 + 0.5 * (ref.mean - ea2.real - 2.0 * ea.imag ** 2)
                got_v1, got_v2 = statistics.quadrature_variances(phi, params)
                pairs = (
                    ("mean", ref.mean, statistics.mean_closed(phi, params)),
                    ("second", ref.second_moment, statistics.second_moment_closed(phi, params)),
                    ("q", ref.mandel_q, statistics.q_closed(phi, params)),
                    ("var_x1", ref_v1, got_v1),
                    ("var_x2", ref_v2, got_v2),
                )
                for name, got_ref, got_closed in pairs:
                    rel = abs(got_ref - got_closed) / max(1.0, abs(got_closed))
                    if rel > worst:
                        worst = rel
                        where = f"worst at {name}, M={M}, phi={phi:.3f}, eta={eta:.2f}"
    return _residual_check("closed-stats-vs-oracle-grid", worst, 1e-9, scale, detail=where)


def check_recursion_identity(scale: float) -> CheckResult:
    worst = 0.0
    for M in GRID_MS:
        for phi in GRID_PHIS:
            for eta in GRID_ETAS:
                params = NBSParams(M=M, eta=eta)
                worst = max(worst, statistics.q_recursion_residual(phi, params))
    return _residual_check("mandel-q-mean-recursion", worst, 1e-10, scale)


def check_small_eta_limits(scale: float) -> CheckResult:
    worst = 0.0
    for M in (1, 30):
        params = NBSParams(M=M, eta=1e-3)
        worst = max(worst, abs(statistics.q_closed(0.0, params) - 1.0))
        worst = max(worst, abs(statistics.q_closed(math.pi, params) + 1.0))
    return _residual_check("small-eta-mandel-limits", worst, 0.01, scale)


def check_q_limit_consistency(scale: float) -> CheckResult:
    worst = 0.0
    for phi in GRID_PHIS:
        for M in (1, 30):
            params = NBSParams(M=M, eta=1e-3)
            worst = max(worst, abs(statistics.q_closed(phi, params) - statistics.q_limit(phi)))
    return _residual_check("q-limit-agreement-at-small-eta", worst, 0.01, scale)


def check_series_switch_seam(scale: float) -> CheckResult:
    # just above the switch the exact arrangement is used; it must meet the
    # quadratic expansion used just below it
    eta = 1.0000001 * statistics.ETA_SERIES_SWITCH
    worst = 0.0
    for M in (1, 30, 1000):
        x = eta * eta
        for phi, c in ((0.0, 1.0), (math.pi, -1.0)):
            closed = statistics.q_closed(phi, NBSParams(M=M, eta=eta))
            series = statistics._q_series_small_eta(c, x, M)
            worst = max(worst, abs(closed - series))
    return _residual_check("series-switch-seam", worst, 1e-9, scale)


def check_fig1_shape(scale: float) -> CheckResult:
    # the rows `nbstates fig1` prints, regrouped into one Q curve per phi
    cfg = sweeps.fig1_config()
    etas = sweeps.grid_etas(cfg)
    records = sweeps.fig1_records(cfg)
    q = {phi: [r.value for r in records if r.phi == phi] for phi in cfg.phis}
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
    passed = sub_small_eta and even_positive and intermediate and spread <= 0.01 * scale
    detail = (f"odd sub-poissonian to eta<=0.2: {sub_small_eta}; even positive: {even_positive}; "
              f"3pi/4 intermediate: {intermediate}; spread at eta^2=0.9: {spread:.2e}")
    return CheckResult(name="fig1-q-curve-shape", passed=passed,
                       measured=spread, bound=0.01 * scale, detail=detail)


def check_fig2_shape(scale: float) -> CheckResult:
    cfg = sweeps.fig2_config()
    etas = sweeps.grid_etas(cfg)

    def var2(phi, eta, theta):
        return statistics.quadrature_variances(phi, NBSParams(M=cfg.M, eta=eta, theta=theta))[1]

    odd_no_squeeze = all(var2(math.pi, e, 0.0) >= 0.25 for e in etas if e <= 0.2)
    squeeze_small = all(
        min(var2(phi, e, 0.0) for e in etas if e < 0.3) < 0.25
        for phi in (0.0, math.pi / 2.0, 3.0 * math.pi / 4.0))
    merged = [var2(phi, 0.95, 0.0) for phi in cfg.phis]
    spread = (max(merged) - min(merged)) / abs(sum(merged) / len(merged))
    # The advertised loss of squeezing as eta -> 1 needs a small nonzero
    # quadrature angle; at theta exactly 0 the X2 variance stays below the
    # vacuum level all the way up.  theta = 0.05 realizes the full shape.
    theta = 0.05
    crossing = var2(0.0, 0.5, theta) < 0.25 < var2(0.0, 0.95, theta)
    passed = (odd_no_squeeze and squeeze_small and spread <= 0.01 * scale and crossing)
    detail = (f"odd never squeezed (eta<=0.2): {odd_no_squeeze}; even/pi2/3pi4 squeezed below "
              f"eta=0.3: {squeeze_small}; spread at 0.95: {spread:.2e}; "
              f"squeezing lost toward eta=1 at theta=0.05: {crossing}")
    return CheckResult(name="fig2-variance-curve-shape", passed=passed,
                       measured=spread, bound=0.01 * scale, detail=detail)


# ---------------------------------------------------------------------------
# algebra checks
# ---------------------------------------------------------------------------

def _ladder_worst(params: NBSParams) -> float:
    n_max = LADDER_N_MAX
    worst = 0.0
    for build in (nbs_states.even_nbs, nbs_states.odd_nbs):
        seq = algebra.ParitySequence.of(build(params, n_max=n_max))
        sf = algebra.derive_structure_function(seq)
        worst = max(worst, algebra.creation_identity_residual(sf, seq))
        worst = max(worst, algebra.gdo_relations_check(sf, seq).max_residual)
        worst = max(worst, algebra.lowering_ratio_residual(seq))
    worst = max(worst, algebra.eigen_residual_even(params, n_max=n_max))
    worst = max(worst, algebra.eigen_residual_odd(params, n_max=n_max))
    worst = max(worst, algebra.nonlinear_coherent_residual(params, n_max=n_max))
    return worst


def check_ladder_suite(scale: float) -> CheckResult:
    worst = 0.0
    for M, eta, theta in LADDER_TRIPLES:
        worst = max(worst, _ladder_worst(NBSParams(M=M, eta=eta, theta=theta)))
    return _residual_check("pair-ladder-identity-suite", worst, 1e-9, scale,
                           detail=f"n_max={LADDER_N_MAX}, three parameter triples")


def check_coherent_pair_eigenvalue(scale: float) -> CheckResult:
    alpha = 1.3 * nbs_states.phase_factor(0.4)
    worst = 0.0
    for build in (nbs_states.even_coherent, nbs_states.odd_coherent):
        v = build(alpha, ORACLE_POLICY)
        lowered = apply_annihilate(apply_annihilate(v)).amplitudes
        expect = alpha * alpha * v.amplitudes
        worst = max(worst, float(np.abs(lowered[:-2] - expect[:-2]).max()))
    return _residual_check("cat-states-a2-eigenvalue", worst, 1e-10, scale,
                           detail="a^2 eigenvalue alpha^2, top two rows excluded")


def check_structure_function_formula(scale: float) -> CheckResult:
    worst = 0.0
    for M, eta, theta in LADDER_TRIPLES:
        params = NBSParams(M=M, eta=eta, theta=theta)
        even = nbs_states.even_nbs(params, n_max=40)
        sf = algebra.derive_structure_function(algebra.ParitySequence.of(even))
        eta_c4 = params.eta_c ** 4
        for n in range(2, 41, 2):
            reference = n * (M + n - 1) * (M + n - 2) * eta_c4 / (n - 1)
            rel = abs(sf.s(n) - reference) / abs(reference)
            worst = max(worst, rel)
    return _residual_check("even-structure-function-closed-form", worst, 1e-12, scale)


# ---------------------------------------------------------------------------
# generation checks
# ---------------------------------------------------------------------------

def check_kerr_generation(scale: float) -> CheckResult:
    worst = 0.0
    for M, eta, theta, g1 in ((5, 0.4, 1.2, 1.0), (30, 0.2, math.pi, 2.5)):
        params = NBSParams(M=M, eta=eta, theta=theta)
        out = generation.kerr_generate(params, g1=g1)
        target = nbs_states.superposition(math.pi / 2.0, params, n_max=out.n_max)
        worst = max(worst, 1.0 - generation.fidelity(out, target))
    return _residual_check("kerr-quarter-period-fidelity", worst, 1e-10, scale)


def check_kerr_preserves_distribution(scale: float) -> CheckResult:
    params = NBSParams(M=5, eta=0.4, theta=1.2)
    out = generation.kerr_generate(params)
    bare = nbs_states.nbs(params, n_max=out.n_max)
    diff = np.abs(nbs_states.photon_distribution(out) - nbs_states.photon_distribution(bare))
    return _residual_check("kerr-evolution-preserves-pn", float(diff.max()), 1e-14, scale)


def check_dispersive_generation(scale: float) -> CheckResult:
    params = NBSParams(M=3, eta=0.5, theta=0.3)
    r = nbs_states.nbs_parity_overlap(params)
    worst = 0.0
    for phi in (0.0, math.pi / 4.0, math.pi / 2.0, math.pi):
        disp = generation.DispersiveParams(phi=phi, g2=1.0, t=math.pi)
        out = generation.dispersive_protocol(params, disp)
        target_g = nbs_states.superposition(phi, params, n_max=out.projected_g.n_max)
        target_e = nbs_states.superposition(nbs_states.partner_phase(phi), params,
                                            n_max=out.projected_e.n_max)
        worst = max(worst, 1.0 - generation.fidelity(out.projected_g, target_g))
        worst = max(worst, 1.0 - generation.fidelity(out.projected_e, target_e))
        worst = max(worst, abs(out.prob_g - 0.5 * (1.0 + math.cos(phi) * r)))
        worst = max(worst, abs(out.prob_g + out.prob_e - 1.0))
    return _residual_check("dispersive-pi-time-projections", worst, 1e-10, scale,
                           detail="g-branch -> phi state, e-branch -> phi+pi state")


def check_dispersive_zero_norm_guard() -> CheckResult:
    params = NBSParams(M=3, eta=0.5)
    try:
        generation.dispersive_protocol(params, generation.DispersiveParams(phi=0.0, g2=1.0, t=0.0))
        raised = False
    except ZeroNormError:
        raised = True
    return CheckResult(name="dispersive-degenerate-branch-raises", passed=raised,
                       detail="phi=0, t=0 leaves the e-branch empty and must raise")


def check_truncation_guard() -> CheckResult:
    params = NBSParams(M=30, eta=0.9)
    try:
        nbs_states.required_dimension(params, None, TruncationPolicy(hard_cap=50))
        raised = False
    except TruncationError:
        raised = True
    return CheckResult(name="hard-cap-truncation-raises", passed=raised,
                       detail="dimension demand beyond hard_cap must raise")


def check_csv_determinism() -> CheckResult:
    cfg = sweeps.fig1_config()
    a = sweeps.render_sweep_csv(sweeps.fig1_records(cfg))
    b = sweeps.render_sweep_csv(sweeps.fig1_records(cfg))
    return CheckResult(name="sweep-csv-deterministic", passed=a == b,
                       detail="same config renders byte-identical CSV")


def run_suite(tol_scale: float = 1.0, seed: int = DEFAULT_SEED) -> List[CheckResult]:
    rng = np.random.default_rng(seed)
    s = tol_scale
    return [
        check_ladder_adjoint(rng, s),
        check_commutator_body(rng, s),
        check_number_from_ladders(rng, s),
        check_number_state_stats(s),
        check_vacuum_q_undefined(),
        check_coherent_poissonian(s),
        check_state_norms(s),
        check_parity_support(),
        check_overlap_closed_form(rng, s),
        check_pi_half_distribution(s),
        check_pn_closed_matches_amplitudes(s),
        check_pn_sums_to_one(s),
        check_generating_function(s),
        check_cat_limit(s),
        check_oracle_grid(s),
        check_recursion_identity(s),
        check_small_eta_limits(s),
        check_q_limit_consistency(s),
        check_series_switch_seam(s),
        check_fig1_shape(s),
        check_fig2_shape(s),
        check_ladder_suite(s),
        check_coherent_pair_eigenvalue(s),
        check_structure_function_formula(s),
        check_kerr_generation(s),
        check_kerr_preserves_distribution(s),
        check_dispersive_generation(s),
        check_dispersive_zero_norm_guard(),
        check_truncation_guard(),
        check_csv_determinism(),
    ]


def render_report(results: List[CheckResult]) -> str:
    lines = [r.line() for r in results]
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"


def results_to_json(results: List[CheckResult]) -> List[dict]:
    return [
        {
            "name": r.name,
            "passed": r.passed,
            "measured": r.measured,
            "bound": r.bound,
            "detail": r.detail,
        }
        for r in results
    ]
