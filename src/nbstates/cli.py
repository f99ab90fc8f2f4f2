"""Command-line interface.

Subcommands: fig1 (Mandel Q sweep), fig2 (X2 variance sweep), pn (photon
distribution dump), generate (Kerr / dispersive protocol report), verify
(full check suite).  Flags override config-file keys; unknown config keys
are rejected.

Exit codes: 0 success, 1 domain or config error, 2 numerical-contract
failure, 3 I/O error.  Every error path prints one diagnostic line to
stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from typing import List, Optional

from .errors import ConfigError, DomainError, NumericsError
from .generation import DispersiveParams, dispersive_protocol, fidelity, kerr_generate
from .nbs_states import NBSParams, partner_phase, superposition
from . import sweeps


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage, which collides with the
    # numerical-failure code; route usage problems through ConfigError -> 1
    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def _parse_phi_list(text: str) -> List[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad phi list {text!r}: {exc}") from None


_VALUE_PARSERS = {
    "M": int,
    "eta": float,
    "theta": float,
    "phi": _parse_phi_list,
    "eta_start": float,
    "eta_stop": float,
    "grid_step": float,
    "out": str,
    "protocol": str,
    "g1": float,
    "g2": float,
    "g2t": float,
    "tolerance": float,
    "seed": int,
}


def load_config(path: str, allowed: frozenset) -> dict:
    """Parse `key = value` lines; '#' starts a comment; unknown keys are errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    out = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in allowed:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r} "
                              f"(allowed: {', '.join(sorted(allowed))})")
        try:
            out[key] = _VALUE_PARSERS[key](value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return out


def _merge(args: argparse.Namespace, allowed: frozenset) -> dict:
    """Config file first, explicit flags on top."""
    merged = {}
    if getattr(args, "config", None):
        merged.update(load_config(args.config, allowed))
    for key in allowed:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            merged[key] = flag_val
    return merged


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_text(obj, sort_keys: bool = False) -> str:
    """Strict JSON: a NaN or infinity in a report is a numerical failure, not output."""
    try:
        return json.dumps(obj, indent=2, sort_keys=sort_keys, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericsError(f"report holds a non-finite number: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_FIG_KEYS = frozenset({"M", "theta", "phi", "eta_start", "eta_stop", "grid_step", "out"})


def cmd_fig(args) -> int:
    # looked up per call, so a caller that wraps the sweeps functions sees these calls
    config, records = {"fig1": (sweeps.fig1_config, sweeps.fig1_records),
                       "fig2": (sweeps.fig2_config, sweeps.fig2_records)}[args.command]
    opts = _merge(args, _FIG_KEYS)
    out = opts.pop("out", None)
    if "phi" in opts:
        opts["phis"] = tuple(opts.pop("phi"))
    _write_text(out, sweeps.render_sweep_csv(records(config(**opts))))
    return 0


_PN_KEYS = frozenset({"M", "eta", "phi", "out"})


def cmd_pn(args) -> int:
    opts = _merge(args, _PN_KEYS)
    for required in ("M", "eta"):
        if required not in opts:
            raise ConfigError(f"pn requires {required} (flag --{required} or config key)")
    phis = opts.get("phi", [0.0])
    if len(phis) != 1:
        raise ConfigError("pn takes exactly one phi value")
    params = NBSParams(M=opts["M"], eta=opts["eta"])
    _write_text(opts.get("out"),
                sweeps.render_pn_csv(sweeps.pn_table(phis[0], params)))
    return 0


_GENERATE_KEYS = frozenset({"protocol", "M", "eta", "theta", "phi", "g1", "g2", "g2t", "out"})


def _complex_pairs(amps, count: int = 20) -> List[List[float]]:
    return [[float(a.real), float(a.imag)] for a in amps[:count]]


def cmd_generate(args) -> int:
    opts = _merge(args, _GENERATE_KEYS)
    protocol = opts.get("protocol")
    if protocol not in ("kerr", "dispersive"):
        raise ConfigError("generate requires protocol = kerr or dispersive")
    for required in ("M", "eta"):
        if required not in opts:
            raise ConfigError(f"generate requires {required}")
    params = NBSParams(M=opts["M"], eta=opts["eta"], theta=opts.get("theta", 0.0))

    if protocol == "kerr":
        for stray in ("phi", "g2", "g2t"):
            if stray in opts:
                raise ConfigError(f"{stray} is not used by the kerr protocol")
        g1 = opts.get("g1", 1.0)
        out_state = kerr_generate(params, g1=g1)
        target = superposition(math.pi / 2.0, params, n_max=out_state.n_max)
        report = {
            "protocol": "kerr",
            "M": params.M,
            "eta": params.eta,
            "theta": params.theta,
            "g1": g1,
            "t": math.pi / (2.0 * g1),
            "target_phi": math.pi / 2.0,
            "fidelity": fidelity(out_state, target),
            "amplitudes": _complex_pairs(out_state.amplitudes),
        }
    else:
        if "g1" in opts:
            raise ConfigError("g1 is not used by the dispersive protocol")
        phis = opts.get("phi", [0.0])
        if len(phis) != 1:
            raise ConfigError("dispersive generation takes exactly one phi value")
        phi = phis[0]
        g2 = opts.get("g2", 1.0)
        g2t = opts.get("g2t", math.pi)
        # validate g2 before g2t is divided by it
        disp = replace(DispersiveParams(phi=phi, g2=g2, t=0.0), t=g2t / g2)
        outcome = dispersive_protocol(params, disp)
        target_g = superposition(phi, params, n_max=outcome.projected_g.n_max)
        target_e = superposition(partner_phase(phi), params, n_max=outcome.projected_e.n_max)
        report = {
            "protocol": "dispersive",
            "M": params.M,
            "eta": params.eta,
            "theta": params.theta,
            "phi": phi,
            "g2": g2,
            "g2t": g2t,
            "success_prob_g": outcome.prob_g,
            "success_prob_e": outcome.prob_e,
            "fidelity_g": fidelity(outcome.projected_g, target_g),
            "fidelity_e": fidelity(outcome.projected_e, target_e),
            "amplitudes": _complex_pairs(outcome.projected_g.amplitudes),
        }
    _write_text(opts.get("out"), _json_text(report, sort_keys=True))
    return 0


_VERIFY_KEYS = frozenset({"tolerance", "seed", "out"})


def cmd_verify(args) -> int:
    # imported here so the other subcommands skip loading the suite and algebra
    from . import verification
    opts = _merge(args, _VERIFY_KEYS)
    scale = opts.get("tolerance", 1.0)
    if getattr(args, "corrupt_tolerances", False):
        # negative control: bounds tightened far beyond attainability, the
        # suite must report failures and exit nonzero
        scale = 1e-8
    if not (0.0 < scale < math.inf):
        raise ConfigError(f"tolerance scale must be finite and > 0, got {scale}")
    seed = opts.get("seed", verification.DEFAULT_SEED)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    results = verification.run_suite(tol_scale=scale, seed=seed)
    if getattr(args, "json", False):
        text = _json_text(verification.results_to_json(results))
    else:
        text = verification.render_report(results)
    _write_text(opts.get("out"), text)
    return 0 if all(r.passed for r in results) else 2


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def _add_common(p: _Parser, *names: str) -> None:
    if "M" in names:
        p.add_argument("--M", type=int, default=None, help="NBS index M")
    if "eta" in names:
        p.add_argument("--eta", type=float, default=None, help="NBS magnitude eta in (0,1)")
    if "theta" in names:
        p.add_argument("--theta", type=float, default=None, help="NBS phase theta")
    if "phi" in names:
        p.add_argument("--phi", type=float, action="append", default=None,
                       help="superposition phase; repeatable for sweeps")
    if "grid_step" in names:
        p.add_argument("--grid-step", dest="grid_step", type=float, default=None,
                       help="eta grid step")
    p.add_argument("--out", type=str, default=None, help="output path (default: stdout)")
    p.add_argument("--config", type=str, default=None, help="key = value config file")


def build_parser() -> _Parser:
    parser = _Parser(prog="nbstates",
                     description="Photon statistics and generation protocols "
                                 "for NBS parity superpositions")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("fig1", "Mandel Q vs eta sweep (default M=30)"),
                            ("fig2", "X2 variance vs eta sweep (default M=50)")):
        p = sub.add_parser(name, help=help_text)
        _add_common(p, "M", "theta", "phi", "grid_step")
        p.set_defaults(handler=cmd_fig)

    p3 = sub.add_parser("pn", help="photon number distribution table")
    _add_common(p3, "M", "eta", "phi")
    p3.set_defaults(handler=cmd_pn)

    p4 = sub.add_parser("generate", help="run a generation protocol, report JSON")
    p4.add_argument("--protocol", type=str, choices=("kerr", "dispersive"), default=None)
    _add_common(p4, "M", "eta", "theta", "phi")
    p4.add_argument("--g1", type=float, default=None, help="Kerr strength")
    p4.add_argument("--g2", type=float, default=None, help="dispersive coupling")
    p4.add_argument("--g2t", type=float, default=None, help="dispersive phase g2*t")
    p4.set_defaults(handler=cmd_generate)

    p5 = sub.add_parser("verify", help="run the full check suite")
    p5.add_argument("--tolerance", type=float, default=None,
                    help="scale factor applied to every numeric bound")
    p5.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
    p5.add_argument("--json", action="store_true", help="emit the report as JSON")
    p5.add_argument("--corrupt-tolerances", action="store_true",
                    help="negative control: tighten bounds until the suite must fail")
    p5.add_argument("--out", type=str, default=None, help="report path (default: stdout)")
    p5.add_argument("--config", type=str, default=None, help="key = value config file")
    p5.set_defaults(handler=cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
