"""Sweep grids, CSV rendering, and the command line driver (run in process)."""
import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from nbstates import sweeps
from nbstates.cli import _json_text, build_parser, load_config, main
from nbstates.errors import ConfigError, DomainError, NumericsError
from nbstates.fock_core import TruncationPolicy
from nbstates.nbs_states import NBSParams, required_dimension, superposition
from nbstates.statistics import pn_closed, q_closed, quadrature_variances
from nbstates.sweeps import (FIG1_PHIS, SweepConfig, SweepTable, fig1_config, fig1_records,
                             fig2_config, fig2_records, grid_etas, pn_table, render_pn_csv,
                             render_sweep_csv)

# ---------------------------------------------------------------------------
# sweep primitives
# ---------------------------------------------------------------------------


def test_default_grid_covers_both_endpoints():
    etas = grid_etas(fig1_config())
    assert len(etas) == 94
    assert etas[0] == 0.02
    assert etas[-1] == pytest.approx(0.95, abs=1e-12)


def test_grid_stops_below_eta_one(tmp_path):
    # the slack past eta_stop must not carry the grid onto eta = 1.0, where
    # NBSParams would reject it; the default grid keeps its last point
    cfg = fig1_config(eta_start=0.9, eta_stop=0.9999999999999999, grid_step=0.05)
    assert grid_etas(cfg) == [0.9, 0.9500000000000001]
    assert grid_etas(fig1_config())[-1] == 0.9500000000000001
    path = tmp_path / "run.cfg"
    path.write_text("eta_start = 0.9\neta_stop = 0.9999999999999999\ngrid_step = 0.05\n")
    out = tmp_path / "sweep.csv"
    assert main(["fig1", "--config", str(path), "--out", str(out)]) == 0
    assert [row.split(",")[0] for row in out.read_text().splitlines()[1:3]] == \
        ["0.90000000000000002", "0.95000000000000007"]


def test_csv_floats_round_trip():
    rng = np.random.default_rng(3)
    etas = rng.uniform(-5, 5, size=20).tolist() + [0.0]
    phis = tuple(rng.uniform(-5, 5, size=3).tolist())
    values = [rng.uniform(-5, 5, size=len(etas)) for _ in phis]
    rows = render_sweep_csv(SweepTable(etas, phis, values, 7, "q")).splitlines()[1:]
    fields = [row.split(",") for row in rows]
    assert [float(f[0]) for f in fields] == etas * len(phis)
    assert [float(f[1]) for f in fields] == [phi for phi in phis for _ in etas]
    assert [float(f[4]) for f in fields] == np.concatenate(values).tolist()
    assert fields[len(etas) - 1][0] == "0"


def _render_by_row(table):
    # the row-by-row renderer that render_sweep_csv replaced: one f-string per row
    etas = [f"{eta:.17g}" for eta in table.etas]
    lines = ["eta,phi,M,quantity,value"]
    for phi, column in zip(table.phis, table.values):
        middle = f",{phi:.17g},{table.M},{table.quantity},"
        lines.extend(f"{eta}{middle}{value:.17g}" for eta, value in zip(etas, column.tolist()))
    return "\n".join(lines) + "\n"


_SIGNED_ROW = [-1.5, 0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3.0, -1e300]
_RENDER_TABLES = {
    "signed-zeros-and-subnormals": SweepTable(
        [0.02, 0.5, 0.95, 1e-5, 0.1, 0.3], (0.0, -0.0, math.pi),
        np.array([_SIGNED_ROW, _SIGNED_ROW[::-1], [-v for v in _SIGNED_ROW]]), 30, "mandel_q"),
    "percent-in-quantity": SweepTable(
        [0.02, 0.03], (0.5, 1.5), np.array([[0.25, -0.0], [1e-310, 2.0]]), 7, "100% %s %d %%"),
    "one-eta": SweepTable([0.3], FIG1_PHIS, np.array([[-0.0], [0.0], [-2.5], [5e-324]]), 1, "q"),
    "one-phi": SweepTable([0.02, 0.5, 0.9], (2.0,), np.array([_SIGNED_ROW[:3]]), 2 ** 40, "var_x2"),
}


@pytest.mark.parametrize("name", _RENDER_TABLES)
def test_render_matches_the_row_by_row_renderer(name):
    # one printf-style operation per block writes what one f-string per row
    # wrote, signs of zeros, subnormals and a literal % in the quantity included
    table = _RENDER_TABLES[name]
    assert render_sweep_csv(table) == _render_by_row(table)


def test_fig1_records_layout():
    cfg = fig1_config(eta_start=0.1, eta_stop=0.2, grid_step=0.05)
    table = fig1_records(cfg)
    assert sum(len(column) for column in table.values) == len(FIG1_PHIS) * 3
    assert table.phis[0] == 0.0 and len(table.values[0]) == 3
    etas = table.etas
    assert etas == sorted(etas) and len(set(etas)) == 3
    assert table.quantity == "mandel_q"
    assert table.M == 30


def test_fig2_records_quantity_and_m():
    cfg = fig2_config(eta_start=0.3, eta_stop=0.3, phis=(0.0,))
    table = fig2_records(cfg)
    assert [len(column) for column in table.values] == [1]
    assert table.quantity == "var_x2"
    assert table.M == 50


# (M, theta, grid_step); the default step 0.01 fills whole blocks of the series pass
_FIG2_GRIDS = [pytest.param(M, theta, step,
                            id=f"{theta}-{M}" + ("" if step == 0.03 else f"-step{step}"))
               for step in (0.03, 0.01) for theta in (0.0, 0.7) for M in (1, 50, 300, 1000)]


@pytest.mark.parametrize("M, theta, grid_step", _FIG2_GRIDS)
def test_fig2_csv_matches_per_row_quadrature_variances(M, theta, grid_step):
    # the series pass over the grid must not move a byte against one call per row
    phis = (math.pi / 3.0, 0.0, math.pi, 2.0 * math.pi)
    cfg = fig2_config(M=M, theta=theta, phis=phis, grid_step=grid_step)
    lines = ["eta,phi,M,quantity,value"]
    for phi in phis:
        for eta in grid_etas(cfg):
            v = quadrature_variances(phi, NBSParams(M=M, eta=eta, theta=theta))[1]
            lines.append(f"{eta:.17g},{phi:.17g},{M},var_x2,{v:.17g}")
    assert render_sweep_csv(fig2_records(cfg)) == "\n".join(lines) + "\n"


@pytest.mark.parametrize("M", (1, 30, 1000, 2 ** 40))
@pytest.mark.parametrize("theta", (0.0, 0.7))
def test_fig1_csv_matches_per_row_q_closed(M, theta):
    # the phase factor taken once per phi must not move a byte against one
    # q_closed call per row
    phis = (math.pi / 3.0, 0.0, math.pi / 2.0, 3.0 * math.pi / 4.0, math.pi, 2.0 * math.pi)
    cfg = fig1_config(M=M, theta=theta, phis=phis, grid_step=0.03)
    lines = ["eta,phi,M,quantity,value"]
    for phi in phis:
        for eta in grid_etas(cfg):
            v = q_closed(phi, NBSParams(M=M, eta=eta, theta=theta))
            lines.append(f"{eta:.17g},{phi:.17g},{M},mandel_q,{v:.17g}")
    assert render_sweep_csv(fig1_records(cfg)) == "\n".join(lines) + "\n"


def test_render_is_deterministic():
    cfg = fig1_config(eta_start=0.5, eta_stop=0.6, grid_step=0.02)
    a = render_sweep_csv(fig1_records(cfg))
    b = render_sweep_csv(fig1_records(cfg))
    assert a == b
    assert a.splitlines()[0] == "eta,phi,M,quantity,value"


def test_render_keeps_the_sign_of_a_zero_phi():
    # 0.0 and -0.0 compare equal but print as "0" and "-0"; each column
    # prints its own phi
    cfg = fig1_config(eta_start=0.5, eta_stop=0.5, phis=(0.0, -0.0))
    table = fig1_records(cfg)
    assert [math.copysign(1.0, phi) for phi in table.phis] == [1.0, -1.0]
    rows = render_sweep_csv(table).splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["0", "-0"]


def test_sweep_config_validation():
    with pytest.raises(DomainError):
        SweepConfig(M=30, grid_step=0.0)
    with pytest.raises(DomainError):
        SweepConfig(M=30, eta_start=0.5, eta_stop=0.4)
    with pytest.raises(DomainError):
        SweepConfig(M=30, eta_stop=1.0)
    with pytest.raises(DomainError):
        SweepConfig(M=30, phis=())


@pytest.mark.parametrize("M", (3.0, 5.0, np.int64(3)), ids=("float-3", "float-5", "int64-3"))
def test_an_integral_non_int_m_is_stored_as_an_int(M):
    # a float or numpy M passes as the int it equals: every path then sees
    # an int, and the CSV's M column reads as for that int
    params, same = NBSParams(M=M, eta=0.5), NBSParams(M=int(M), eta=0.5)
    assert type(params.M) is int and params == same
    assert pn_closed(2, 0.7, params) == pn_closed(2, 0.7, same)
    assert required_dimension(params, 0.7) == required_dimension(same, 0.7)
    assert np.array_equal(superposition(0.7, params).amplitudes,
                          superposition(0.7, same).amplitudes)
    assert quadrature_variances(0.7, params) == quadrature_variances(0.7, same)
    for config, records in ((fig1_config, fig1_records), (fig2_config, fig2_records)):
        cfg, same_cfg = (config(M=m, eta_start=0.3, eta_stop=0.5, grid_step=0.1)
                         for m in (M, int(M)))
        assert type(cfg.M) is int
        assert render_sweep_csv(records(cfg)) == render_sweep_csv(records(same_cfg))


def test_a_float32_eta_is_squared_in_float64():
    # a float32 eta is the float64 of its value: eta**2 is not rounded to 24
    # bits, so q_closed is 1e-8 off without the conversion and pn_closed 1e-7
    eta = np.float32(0.3)
    params, same = NBSParams(M=5, eta=eta, theta=np.float32(0.7)), \
        NBSParams(M=5, eta=float(eta), theta=float(np.float32(0.7)))
    assert type(params.eta) is float and type(params.theta) is float and params == same
    for got, want in ((q_closed(0.7, params), q_closed(0.7, same)),
                      (pn_closed(3, 0.7, params), pn_closed(3, 0.7, same))):
        assert type(got) is float and got.hex() == want.hex()
    assert q_closed(0.7, params) == 0.6942517490262464
    assert quadrature_variances(0.7, params) == quadrature_variances(0.7, same)


def test_sweep_config_and_policy_store_python_numbers():
    cfg = fig2_config(M=5, theta=np.float32(0.3), eta_start=np.float32(0.02),
                      eta_stop=np.float32(0.5), grid_step=np.float32(0.02),
                      phis=(np.float32(0.0), np.float64(1.5)))
    same = fig2_config(M=5, theta=float(np.float32(0.3)), eta_start=float(np.float32(0.02)),
                       eta_stop=float(np.float32(0.5)), grid_step=float(np.float32(0.02)),
                       phis=(0.0, 1.5))
    for name in ("theta", "eta_start", "eta_stop", "grid_step"):
        assert type(getattr(cfg, name)) is float
    assert all(type(phi) is float for phi in cfg.phis) and cfg == same
    assert render_sweep_csv(fig2_records(cfg)) == render_sweep_csv(fig2_records(same))
    policy = TruncationPolicy(tail_tolerance=np.float32(0.5), hard_cap=np.int64(50))
    assert type(policy.hard_cap) is int and type(policy.tail_tolerance) is float


@pytest.mark.parametrize("bad", ("0.3", 0.3 + 0j, None), ids=("str", "complex", "none"))
def test_non_real_angles_and_etas_are_domain_errors(bad):
    # a DomainError naming the field, not a raw TypeError from a comparison
    for field in ("eta", "theta"):
        with pytest.raises(DomainError, match=f"^{field} must be a real number"):
            NBSParams(M=5, **{"eta": 0.3, field: bad})
    for field in ("theta", "eta_start", "grid_step"):
        with pytest.raises(DomainError, match=f"^{field} must be a real number"):
            SweepConfig(M=5, **{field: bad})
    with pytest.raises(DomainError, match="^phi must be a real number"):
        SweepConfig(M=5, phis=(0.0, bad))


@pytest.mark.parametrize("phi", (-0.1, 2.0 * math.pi + 1e-9, math.nan, math.inf))
def test_sweep_config_rejects_phi_outside_0_2pi(phi):
    # rejected before any row is evaluated, whatever the order of evaluation;
    # NaN and inf are named as not finite, like every other non-finite input
    message = "phi must lie" if math.isfinite(phi) else "phi must be finite"
    with pytest.raises(DomainError, match=message):
        SweepConfig(M=30, phis=(0.0, phi))


# these configs would make grid_etas loop forever or exhaust memory, so only
# their construction is exercised
@pytest.mark.parametrize("bad", [
    dict(eta_start=math.nan), dict(eta_stop=math.nan), dict(grid_step=math.nan),
    dict(eta_start=-math.inf), dict(eta_stop=math.inf), dict(grid_step=math.inf),
    dict(grid_step=1e-300), dict(eta_start=0.01, eta_stop=0.99, grid_step=9.8e-6),
])
def test_sweep_config_rejects_non_finite_and_huge_grids(bad):
    with pytest.raises(DomainError):
        SweepConfig(M=30, **bad)


def test_sweep_config_accepts_grid_at_point_cap():
    # (0.99 - 0.01) / 9.8e-6 = 99999.99..., i.e. 10**5 points
    SweepConfig(M=30, eta_start=0.01, eta_stop=0.99, grid_step=9.80001e-6)


def test_pn_table_and_rendering():
    params = NBSParams(M=3, eta=0.4)
    table = pn_table(0.0, params)
    assert table.size == required_dimension(params, 0.0) + 1
    lines = render_pn_csv(table).splitlines()
    assert lines[0] == "n,pn"
    assert lines[2] == "1,0"  # odd slots vanish identically at phi = 0
    rows = [line.split(",") for line in lines[1:]]
    assert [int(n) for n, _ in rows] == list(range(table.size))
    assert [float(p) for _, p in rows] == table.tolist()
    total = sum(table.tolist())
    assert total == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_load_config_parses_and_filters(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nM = 7\n\neta_start = 0.1  # trailing note\nphi = 0.0,3.14\n")
    out = load_config(str(cfg), frozenset({"M", "eta_start", "phi"}))
    assert out == {"M": 7, "eta_start": 0.1, "phi": [0.0, 3.14]}


def test_load_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 3\n")
    with pytest.raises(ConfigError):
        load_config(str(cfg), frozenset({"M"}))


def test_load_config_rejects_malformed_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("M 7\n")
    with pytest.raises(ConfigError):
        load_config(str(cfg), frozenset({"M"}))


# ---------------------------------------------------------------------------
# CLI entry: exit codes and outputs
# ---------------------------------------------------------------------------


def test_fig1_writes_byte_identical_csv(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["fig1", "--out", str(a)]) == 0
    assert main(["fig1", "--out", str(b)]) == 0
    blob = a.read_bytes()
    assert blob == b.read_bytes()
    lines = blob.decode().splitlines()
    assert len(lines) == 1 + 4 * 94
    assert lines[0] == "eta,phi,M,quantity,value"
    eta, phi, m, quantity, value = lines[1].split(",")
    assert (eta, phi, m, quantity) == ("0.02", "0", "30", "mandel_q")
    assert float(value) == pytest.approx(1.0, abs=1e-3)  # Q -> +1 as eta -> 0


def test_fig2_stdout(capsys):
    cfg_free = ["fig2", "--phi", "0.0", "--grid-step", "0.3"]
    assert main(cfg_free) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "eta,phi,M,quantity,value"
    assert all(row.split(",")[3] == "var_x2" for row in lines[1:])


def test_pn_requires_m_and_eta(capsys):
    assert main(["pn", "--M", "3"]) == 1
    assert "eta" in capsys.readouterr().err


def test_pn_takes_one_phi(capsys):
    rc = main(["pn", "--M", "3", "--eta", "0.4", "--phi", "0", "--phi", "3.14"])
    assert rc == 1
    assert "exactly one phi" in capsys.readouterr().err


def test_pn_output_has_parity_zeros(tmp_path):
    out = tmp_path / "pn.csv"
    assert main(["pn", "--M", "3", "--eta", "0.4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,pn"
    assert lines[2].endswith(",0") and lines[4].endswith(",0")


def test_generate_kerr_json(tmp_path):
    out = tmp_path / "kerr.json"
    rc = main(["generate", "--protocol", "kerr", "--M", "4", "--eta", "0.5",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["protocol"] == "kerr"
    assert report["fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_generate_kerr_rejects_dispersive_flags(capsys):
    rc = main(["generate", "--protocol", "kerr", "--M", "4", "--eta", "0.5",
               "--g2t", "1.0"])
    assert rc == 1
    assert "not used by the kerr protocol" in capsys.readouterr().err


def test_generate_dispersive_json(tmp_path):
    out = tmp_path / "disp.json"
    rc = main(["generate", "--protocol", "dispersive", "--M", "3", "--eta", "0.5",
               "--phi", "0.0", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["fidelity_g"] == pytest.approx(1.0, abs=1e-12)
    assert report["fidelity_e"] == pytest.approx(1.0, abs=1e-12)
    assert report["success_prob_g"] == pytest.approx(0.608, rel=1e-12)
    assert report["success_prob_g"] + report["success_prob_e"] == pytest.approx(1.0, abs=1e-12)


def test_generate_dispersive_rejects_g1(capsys):
    rc = main(["generate", "--protocol", "dispersive", "--M", "3", "--eta", "0.5",
               "--g1", "2.0"])
    assert rc == 1
    assert "g1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["generate", "--protocol", "kerr", "--M", "4", "--eta", "0.5", "--g1", "2"],
    ["generate", "--protocol", "dispersive", "--M", "3", "--eta", "0.5", "--g2", "1"],
    ["fig1", "--theta", "0.3"],
], ids=("g1", "g2", "fig1-theta"))
def test_removed_flags_exit_1_with_one_line(argv, capsys):
    # the protocols take only their phase g2t, and fig1's Mandel Q does not depend on theta
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: unrecognized arguments: ") and err.count("\n") == 1


def test_generate_requires_protocol():
    assert main(["generate", "--M", "3", "--eta", "0.5"]) == 1


def test_flag_overrides_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("M = 5\neta_start = 0.4\neta_stop = 0.4\nphi = 0.0\n")
    out = tmp_path / "sweep.csv"
    assert main(["fig1", "--config", str(cfg), "--M", "7", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[2] == "7"


def test_fig2_config_phi_list_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("M = 5\neta_start = 0.3\neta_stop = 0.5\nphi = 0.0,3.141592653589793\n")
    out = tmp_path / "sweep.csv"
    assert main(["fig2", "--config", str(cfg), "--grid-step", "0.1", "--out", str(out)]) == 0
    expected = fig2_records(fig2_config(M=5, eta_start=0.3, eta_stop=0.5,
                                        phis=(0.0, math.pi), grid_step=0.1))
    assert out.read_text() == render_sweep_csv(expected)


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("protocol = kerr\n")  # valid for generate, not for fig1
    assert main(["fig1", "--config", str(cfg)]) == 1
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("line, key", (("phi = 0,abc", "phi"), ("M = three", "M")))
def test_bad_config_value_fails_with_one_line(tmp_path, capsys, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    assert main(["fig1", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}:1: bad value for {key!r}: ")
    assert err.count("\n") == 1


# a valid config per command, each of whose numeric keys in turn is replaced
# by a hostile value
_VALID_CONFIGS = {
    "pn": dict(M="5", eta="0.5", phi="0"),
    "fig2": dict(M="5", theta="0", phi="0", eta_start="0.1", eta_stop="0.2", grid_step="0.05"),
    "generate": dict(protocol="dispersive", M="2", eta="0.3", theta="0", phi="0.5", g2t="3"),
}


@pytest.mark.parametrize("value", ("nan", "inf", "1e400", "7" * 5000, "1j"),
                         ids=("nan", "inf", "1e400", "5000-digits", "1j"))
@pytest.mark.parametrize("command", sorted(_VALID_CONFIGS))
def test_hostile_config_values_fail_with_one_line(tmp_path, capsys, command, value):
    cfg = tmp_path / "run.cfg"
    for key in _VALID_CONFIGS[command]:
        if key == "protocol":
            continue
        text = {**_VALID_CONFIGS[command], key: value}
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in text.items()))
        assert main([command, "--config", str(cfg)]) == 1, key
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("\n"), (key, err)
        assert "Traceback" not in err, key


# test_boundary.HOSTILE by the text a config line holds for each value (a
# numpy scalar by its str, so np.True_ is "True" too), and an empty value
_HOSTILE_TEXTS = {
    "True": "True", "float16": "0.3", "float32-3e38": "3e+38", "longdouble-1e400": "1e+400",
    "int8-min": "-128", "uint64-max": str(2 ** 64 - 1), "0.0": "0.0", "-0.0": "-0.0",
    "5e-324": "5e-324", "1e308": "1e308", "nan": "nan", "inf": "inf", "-inf": "-inf",
    "2**53": str(2 ** 53), "10**5000": "1" + "0" * 5000, "-10**5000": "-1" + "0" * 5000,
    "str": "1", "bytes": "b'1'", "None": "None", "complex": "1+1j", "complex64": "(3.7+0j)",
    "list": "[0.5]", "0-d-array": "0.5", "Fraction": "1/3", "Decimal": "0.1", "empty": "",
}

# a valid config per command holding every key the command takes
_FULL_CONFIGS = {command: {**config, "out": "o"} for command, config in {
    **_VALID_CONFIGS,
    "fig1": dict(M="5", phi="0", eta_start="0.1", eta_stop="0.2", grid_step="0.05"),
    "verify": dict(tolerance="1", seed="0")}.items()}


@pytest.mark.parametrize("command", sorted(_FULL_CONFIGS))
def test_every_hostile_config_value_exits_cleanly(tmp_path, monkeypatch, capsys, command):
    # each hostile text in each key: the run succeeds, or fails with exit 1
    # or 2 and one stderr line.  out is a path, so any nonempty text names a
    # file (here under tmp_path), and one that cannot be written is exit 3;
    # the empty text names none and is a config error
    from test_boundary import HOSTILE
    assert set(_HOSTILE_TEXTS) | {"np.True_"} == set(HOSTILE) | {"empty"}
    assert set(_FULL_CONFIGS[command]) == CLI_CONTRACT[command][1]
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    for key in _FULL_CONFIGS[command]:
        for name, value in _HOSTILE_TEXTS.items():
            text = {**_FULL_CONFIGS[command], key: value}
            cfg.write_text("".join(f"{k} = {v}\n" for k, v in text.items()))
            code = main([command, "--config", str(cfg)])
            err = capsys.readouterr().err
            codes = ((1,) if name == "empty" else (0, 3)) if key == "out" else (0, 1, 2)
            assert code in codes, (key, name, code, err)
            if code:
                assert err.count("\n") == 1 and err.endswith("\n"), (key, name, err)
                assert "Traceback" not in err, (key, name)
            else:
                assert err == "", (key, name)


def test_domain_error_exit_code(capsys):
    assert main(["pn", "--M", "0", "--eta", "0.4"]) == 1
    assert "domain error" in capsys.readouterr().err


def test_non_finite_grid_step_exit_code(capsys):
    assert main(["fig2", "--grid-step", "nan"]) == 1
    assert "grid_step must be finite" in capsys.readouterr().err
    assert main(["fig1", "--grid-step", "1e-300"]) == 1
    assert "eta points" in capsys.readouterr().err


def test_non_finite_generation_rates_exit_code(capsys):
    for bad in ("inf", "nan"):
        assert main(["generate", "--protocol", "dispersive", "--M", "2", "--eta", "0.3",
                     "--g2t", bad]) == 1
        assert capsys.readouterr().err == f"domain error: g2t must be finite, got {bad}\n"
    assert main(["generate", "--protocol", "dispersive", "--M", "4", "--eta", "0.5",
                 "--g2t", "-1"]) == 1
    assert capsys.readouterr().err == "domain error: g2t must be >= 0, got -1.0\n"


def test_verify_rejects_non_finite_tolerance(capsys):
    for bad in ("nan", "inf"):
        assert main(["verify", "--tolerance", bad]) == 1
        assert "tolerance scale must be finite" in capsys.readouterr().err


def test_negative_seed_and_non_utf8_config_are_config_errors(tmp_path, capsys):
    assert main(["verify", "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err == "config error: seed must be >= 0, got -1\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"seed = 3\n# \xff\xfe\n")
    assert main(["verify", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: not UTF-8 text") and err.count("\n") == 1


def test_json_reports_reject_non_finite_numbers():
    with pytest.raises(NumericsError):
        _json_text({"fidelity": math.nan})
    assert json.loads(_json_text({"fidelity": 1.0})) == {"fidelity": 1.0}


def test_underflowing_eta_exits_cleanly():
    # fresh interpreter, so a traceback on stderr would be seen
    proc = subprocess.run([sys.executable, "-m", "nbstates.cli", "pn", "--M", "3",
                           "--eta", "1e-200"], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("domain error: eta**2 underflows")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["fig1", "--M", "1" + "0" * 400],
                                  ["pn", "--M", "100000000000000000000", "--eta", "1e-10"]])
def test_cli_rejects_M_beyond_2_53(argv):
    proc = subprocess.run([sys.executable, "-m", "nbstates.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("domain error: M must be at most 2**53")


def test_cli_import_leaves_scipy_out():
    # numpy is the only dependency; a fresh interpreter shows what the import pulls in
    code = "import sys, nbstates.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_verification_out():
    # only `verify` needs the check suite and the pair-ladder algebra it checks
    code = ("import sys, nbstates.cli; "
            "print([m for m in ('nbstates.verification', 'nbstates.algebra') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_json_out():
    # only generate and verify write JSON; the figures and pn never load it
    code = "import sys, nbstates.cli; print('json' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 1
    assert "config error" in capsys.readouterr().err


def test_io_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    assert main(["fig1", "--out", str(missing)]) == 3
    assert "i/o error" in capsys.readouterr().err


def _no_fig2(monkeypatch):
    def fail(cfg):
        raise AssertionError("fig2_records ran")
    monkeypatch.setattr(sweeps, "fig2_records", fail)


def test_empty_out_flag_is_a_config_error_before_any_work(monkeypatch, capsys):
    _no_fig2(monkeypatch)
    assert main(["fig2", "--out", ""]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


def test_empty_out_config_key_is_a_config_error_before_any_work(tmp_path, monkeypatch, capsys):
    _no_fig2(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("M = 5\nout =\n")
    assert main(["fig2", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_numerical_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eta_start = 0.9995\neta_stop = 0.9995\nphi = 0.0\n")
    assert main(["fig2", "--config", str(cfg)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_fig2_names_the_first_eta_past_the_term_budget():
    # the whole grid runs in one series pass; the error still names the first
    # eta in grid order whose series needs more than the 20000-term cap
    proc = subprocess.run([sys.executable, "-m", "nbstates.cli", "fig2", "--M", "10000"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("numerical failure: <a^1> series needed more than 20000 terms "
                           "at eta=0.81, M=10000\n")


def test_verify_passes_and_reports(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_json_mode(capsys):
    assert main(["verify", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert isinstance(report, list) and len(report) >= 20
    assert all(entry["passed"] for entry in report)


def test_verify_negative_control(tmp_path, capsys):
    out = tmp_path / "report.txt"
    rc = main(["verify", "--corrupt-tolerances", "--out", str(out)])
    assert rc == 2
    assert "FAIL" in out.read_text()
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("numerical failure: ") and line.endswith(" checks failed")


# ---------------------------------------------------------------------------
# CLI contract: the flags and config keys of every subcommand
# ---------------------------------------------------------------------------

_M = (("--M",), "M", int, "_StoreAction")
_ETA = (("--eta",), "eta", float, "_StoreAction")
_THETA = (("--theta",), "theta", float, "_StoreAction")
_PHI = (("--phi",), "phi", float, "_AppendAction")
_OUT = (("--out",), "out", str, "_StoreAction")
_CONFIG = (("--config",), "config", str, "_StoreAction")
_FIG_FLAGS = {_M, _PHI, (("--grid-step",), "grid_step", float, "_StoreAction"), _OUT, _CONFIG}
_FIG_CONFIG_KEYS = {"M", "phi", "eta_start", "eta_stop", "grid_step", "out"}

# fig1 takes no theta: Mandel Q does not depend on it
CLI_CONTRACT = {
    "fig1": (_FIG_FLAGS, _FIG_CONFIG_KEYS),
    "fig2": (_FIG_FLAGS | {_THETA}, _FIG_CONFIG_KEYS | {"theta"}),
    "pn": ({_M, _ETA, _PHI, _OUT, _CONFIG}, {"M", "eta", "phi", "out"}),
    "generate": (
        {(("--protocol",), "protocol", str, "_StoreAction"), _M, _ETA, _THETA, _PHI,
         (("--g2t",), "g2t", float, "_StoreAction"), _OUT, _CONFIG},
        {"protocol", "M", "eta", "theta", "phi", "g2t", "out"}),
    "verify": (
        {(("--tolerance",), "tolerance", float, "_StoreAction"),
         (("--seed",), "seed", int, "_StoreAction"),
         (("--json",), "json", None, "_StoreTrueAction"),
         (("--corrupt-tolerances",), "corrupt_tolerances", None, "_StoreTrueAction"),
         _OUT, _CONFIG},
        {"tolerance", "seed", "out"}),
}


def _subparsers():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_cli_declares_exactly_the_contract_flags():
    subparsers = _subparsers()
    assert set(subparsers) == set(CLI_CONTRACT)
    for name, (flags, _) in CLI_CONTRACT.items():
        got = {(tuple(a.option_strings), a.dest, a.type, type(a).__name__)
               for a in subparsers[name]._actions if a.dest != "help"}
        assert got == flags, name
        for action in subparsers[name]._actions:
            if action.dest != "help":
                assert action.default in (None, False), (name, action.dest)
    (protocol,) = [a for a in subparsers["generate"]._actions if a.dest == "protocol"]
    assert tuple(protocol.choices) == ("kerr", "dispersive")


@pytest.mark.parametrize("command", sorted(CLI_CONTRACT))
def test_config_accepts_exactly_the_contract_keys(command, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("not_an_option = 1\n")
    assert main([command, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    allowed = err[err.index("(allowed: ") + len("(allowed: "):err.rindex(")")]
    assert set(allowed.split(", ")) == CLI_CONTRACT[command][1]


# ---------------------------------------------------------------------------
# the process path: entry() in a fresh interpreter, stdout buffered or not
# ---------------------------------------------------------------------------

def _child_env(unbuffered: bool) -> dict:
    # left buffered, stdout is written only at entry()'s flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def _run_child(argv, unbuffered: bool = False) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "nbstates.cli", *argv], capture_output=True,
                          env=_child_env(unbuffered), timeout=120)


_PROCESS_OUTPUTS = [
    ["fig1"],
    ["fig2"],
    # 114,795 bytes: more than a pipe holds, so the child blocks mid-write
    ["pn", "--M", "300", "--eta", "0.95", "--phi", "1"],
    ["generate", "--protocol", "kerr", "--M", "4", "--eta", "0.5"],
    ["generate", "--protocol", "dispersive", "--M", "3", "--eta", "0.5", "--phi", "1.3"],
    ["verify", "--json"],
]


@pytest.mark.parametrize("argv", _PROCESS_OUTPUTS, ids=["fig1", "fig2", "pn-M300", "generate-kerr",
                                                 "generate-dispersive", "verify-json"])
def test_process_output_matches_main(argv, tmp_path, capsys):
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    for unbuffered in (False, True):
        proc = _run_child(argv, unbuffered)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == expected, f"unbuffered={unbuffered}"
    out = tmp_path / "out.txt"
    proc = _run_child([*argv, "--out", str(out)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert out.read_bytes() == expected


@pytest.mark.parametrize("argv, code, prefix", [
    (["pn", "--M", "3", "--eta", "1e-200"], 1, "domain error: "),
    (["verify", "--corrupt-tolerances"], 2, "numerical failure: "),
    (["fig1", "--out"], 3, "i/o error: "),
], ids=["exit-1", "exit-2", "exit-3"])
def test_process_error_exit_prints_one_line(argv, code, prefix, tmp_path):
    if argv[-1] == "--out":
        argv = [*argv, str(tmp_path / "no" / "such" / "dir" / "x.csv")]
    proc = _run_child(argv)
    assert proc.returncode == code
    (line,) = proc.stderr.decode().splitlines()
    assert line.startswith(prefix)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["pn", "--M", "3", "--eta", "0.4", "--phi", "0"], ["fig1"]],
                         ids=["short", "long"])
def test_closed_stdout_is_one_io_error(argv, unbuffered):
    # a short output sits in the buffer until entry()'s flush meets the
    # closed pipe; a long one fails inside main()'s write.  Either way: exit 3
    # and one line, never the interpreter's "Exception ignored" message
    proc = subprocess.Popen([sys.executable, "-m", "nbstates.cli", *argv],
                            env=_child_env(unbuffered), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()  # the reader is gone before the child has imported numpy
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 3
    (line,) = err.decode().splitlines()
    assert line.startswith("i/o error: ")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["pn", "--M", "3", "--eta", "1e-200"],
                                  ["verify", "--corrupt-tolerances"],
                                  ["pn", "--M", "3", "--eta", "0.4", "--phi", "0"]],
                         ids=["exit-1", "exit-2", "exit-0"])
def test_closed_stdout_and_stderr_exit_3(argv, unbuffered):
    # with both readers gone, the diagnostic line cannot be written either:
    # exit 3, whatever the code the run would have had, and no traceback
    # (an uncaught BrokenPipeError exited 120 buffered and 1 unbuffered)
    proc = subprocess.Popen([sys.executable, "-m", "nbstates.cli", *argv],
                            env=_child_env(unbuffered), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 3


def test_main_returns_3_when_stderr_fails(monkeypatch):
    class ClosedStream:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stderr", ClosedStream())
    assert main(["pn", "--M", "3", "--eta", "1e-200"]) == 3
