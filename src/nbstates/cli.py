"""Command-line interface.

Subcommands: fig1 (Mandel Q sweep), fig2 (X2 variance sweep), pn (photon
distribution dump), generate (Kerr / dispersive protocol report), verify
(full check suite).  Flags override config-file keys; unknown config keys
are rejected.  ``_OPTIONS`` declares every option once and ``_COMMANDS``
names the options each subcommand takes; eta_start and eta_stop have no
flag, so only a config file sets them.

Exit codes: 0 success, 1 domain or config error, 2 numerical-contract
failure, 3 I/O error (a closed stdout among them).  Every error path prints
one diagnostic line to stderr; a stderr that cannot take it makes the exit
code 3.

``main`` returns the exit code and never exits, so in-process callers keep
their interpreter.  ``entry``, behind the console script and ``python -m
nbstates.cli``, flushes stdout and stderr after ``main`` and ends the process
with ``os._exit``: the interpreter's teardown (its last garbage collections
and module cleanup) is skipped, and no ``atexit`` handler runs.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Collection, List, Optional

from .errors import ConfigError, DomainError, NumericsError
from .generation import dispersive_protocol, fidelity, kerr_generate
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


# Every option once: config key -> (config-file value parser, argparse keywords
# of its --flag, or None for a key only a config file sets).  A flag's type is
# its value parser unless the keywords name another.
_OPTIONS = {
    "M": (int, dict(help="NBS index M")),
    "eta": (float, dict(help="NBS magnitude eta in (0,1)")),
    "theta": (float, dict(help="NBS phase theta")),
    "phi": (_parse_phi_list, dict(type=float, action="append",
                                  help="superposition phase; repeatable for sweeps")),
    "eta_start": (float, None),
    "eta_stop": (float, None),
    "grid_step": (float, dict(help="eta grid step")),
    "out": (str, dict(help="output path (default: stdout)")),
    "protocol": (str, dict(choices=("kerr", "dispersive"))),
    "g2t": (float, dict(help="dispersive phase g2*t")),
    "tolerance": (float, dict(help="scale factor applied to every numeric bound")),
    "seed": (int, dict(help="seed for randomized checks")),
}


def load_config(path: str, allowed: Collection[str]) -> dict:
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
            out[key] = _OPTIONS[key][0](value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return out


def _merge(args: argparse.Namespace) -> dict:
    """Config file first, explicit flags on top, both limited to the command's keys."""
    merged = load_config(args.config, args.keys) if args.config else {}
    merged.update((key, value) for key, value in vars(args).items()
                  if key in args.keys and value is not None)
    return merged


def _nbs_params(opts: dict, command: str) -> NBSParams:
    for required in ("M", "eta"):
        if required not in opts:
            raise ConfigError(f"{command} requires {required} (flag --{required} or config key)")
    return NBSParams(M=opts["M"], eta=opts["eta"], theta=opts.get("theta", 0.0))


def _one_phi(opts: dict, what: str) -> float:
    phis = opts.get("phi", [0.0])
    if len(phis) != 1:
        raise ConfigError(f"{what} takes exactly one phi value")
    return phis[0]


def _write_text(path: Optional[str], text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _json_text(obj, sort_keys: bool = False) -> str:
    """Strict JSON: a NaN or infinity in a report is a numerical failure, not output."""
    import json  # only generate and verify write JSON; the figures skip loading it
    try:
        return json.dumps(obj, indent=2, sort_keys=sort_keys, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericsError(f"report holds a non-finite number: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fig(args) -> int:
    # looked up per call, so a caller that wraps the sweeps functions sees these calls
    config, records = {"fig1": (sweeps.fig1_config, sweeps.fig1_records),
                       "fig2": (sweeps.fig2_config, sweeps.fig2_records)}[args.command]
    opts = _merge(args)
    out = opts.pop("out", None)
    if "phi" in opts:
        opts["phis"] = tuple(opts.pop("phi"))
    _write_text(out, sweeps.render_sweep_csv(records(config(**opts))))
    return 0


def cmd_pn(args) -> int:
    opts = _merge(args)
    params = _nbs_params(opts, "pn")
    _write_text(opts.get("out"),
                sweeps.render_pn_csv(sweeps.pn_table(_one_phi(opts, "pn"), params)))
    return 0


def _complex_pairs(amps, count: int = 20) -> List[List[float]]:
    return [[float(a.real), float(a.imag)] for a in amps[:count]]


def cmd_generate(args) -> int:
    opts = _merge(args)
    protocol = opts.get("protocol")
    if protocol not in ("kerr", "dispersive"):
        raise ConfigError("generate requires protocol = kerr or dispersive")
    params = _nbs_params(opts, "generate")
    report = {"protocol": protocol, "M": params.M, "eta": params.eta, "theta": params.theta}

    if protocol == "kerr":
        for stray in ("phi", "g2t"):
            if stray in opts:
                raise ConfigError(f"{stray} is not used by the kerr protocol")
        out_state = kerr_generate(params)
        target = superposition(math.pi / 2.0, params, n_max=out_state.n_max)
        report.update(target_phi=math.pi / 2.0, fidelity=fidelity(out_state, target))
    else:
        phi = _one_phi(opts, "dispersive generation")
        g2t = opts.get("g2t", math.pi)
        outcome = dispersive_protocol(params, phi, g2t)
        out_state = outcome.projected_g
        target_g = superposition(phi, params, n_max=out_state.n_max)
        target_e = superposition(partner_phase(phi), params, n_max=outcome.projected_e.n_max)
        report.update(phi=phi, g2t=g2t, success_prob_g=outcome.prob_g,
                      success_prob_e=outcome.prob_e,
                      fidelity_g=fidelity(out_state, target_g),
                      fidelity_e=fidelity(outcome.projected_e, target_e))
    report["amplitudes"] = _complex_pairs(out_state.amplitudes)
    _write_text(opts.get("out"), _json_text(report, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    # imported here so the other subcommands skip loading the suite and algebra
    from . import verification
    opts = _merge(args)
    scale = opts.get("tolerance", 1.0)
    if args.corrupt_tolerances:
        # negative control: bounds tightened far beyond attainability, the
        # suite must report failures and exit nonzero
        scale = 1e-12
    if not (0.0 < scale < math.inf):
        raise ConfigError(f"tolerance scale must be finite and > 0, got {scale}")
    seed = opts.get("seed", verification.DEFAULT_SEED)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    results = verification.run_suite(tol_scale=scale, seed=seed)
    if args.json:
        text = _json_text(verification.results_to_json(results))
    else:
        text = verification.render_report(results)
    _write_text(opts.get("out"), text)
    failed = sum(1 for r in results if not r.passed)
    if failed:
        print(f"numerical failure: {failed} of {len(results)} checks failed", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

_COMMANDS = (
    ("fig1", "Mandel Q vs eta sweep (default M=30)", cmd_fig,
     ("M", "phi", "eta_start", "eta_stop", "grid_step", "out")),
    ("fig2", "X2 variance vs eta sweep (default M=50)", cmd_fig,
     ("M", "theta", "phi", "eta_start", "eta_stop", "grid_step", "out")),
    ("pn", "photon number distribution table", cmd_pn, ("M", "eta", "phi", "out")),
    ("generate", "run a generation protocol, report JSON", cmd_generate,
     ("protocol", "M", "eta", "theta", "phi", "g2t", "out")),
    ("verify", "run the full check suite", cmd_verify, ("tolerance", "seed", "out")),
)


def build_parser() -> _Parser:
    parser = _Parser(prog="nbstates",
                     description="Photon statistics and generation protocols "
                                 "for NBS parity superpositions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, keys in _COMMANDS:
        # no prefix matching: --g2 would otherwise be read as --g2t
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for key in keys:
            parse, flag = _OPTIONS[key]
            if flag is not None:
                p.add_argument("--" + key.replace("_", "-"), dest=key, **{"type": parse, **flag})
        p.add_argument("--config", type=str, help="key = value config file")
        p.set_defaults(handler=handler, keys=keys)
        if name == "verify":
            p.add_argument("--json", action="store_true", help="emit the report as JSON")
            p.add_argument("--corrupt-tolerances", action="store_true",
                           help="negative control: tighten bounds until the suite must fail")
    return parser


def _diagnose(code: int, line: str) -> int:
    # code, once line is on stderr; 3 if stderr cannot take it
    try:
        print(line, file=sys.stderr)
    except OSError:
        return 3
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ConfigError as exc:
        return _diagnose(1, f"config error: {exc}")
    except DomainError as exc:
        return _diagnose(1, f"domain error: {exc}")
    except NumericsError as exc:
        return _diagnose(2, f"numerical failure: {exc}")
    except OSError as exc:
        return _diagnose(3, f"i/o error: {exc}")


def entry() -> None:
    """Run ``main`` and end the process at its last flush, without the teardown."""
    code = main()
    try:
        try:
            sys.stdout.flush()
        except OSError as exc:
            if code != 3:  # a write that failed inside main() is reported already
                code = 3
                print(f"i/o error: {exc}", file=sys.stderr)
        sys.stderr.flush()
    except OSError:  # stderr is closed too: nowhere left to report
        code = 3
    os._exit(code)


if __name__ == "__main__":
    entry()
