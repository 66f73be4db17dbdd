import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mixedsde import model_zoo
from mixedsde.cli import main, parse_config_file, resolve_config
from mixedsde.errors import ConfigError
from mixedsde.moments import MomentTarget, _level_ratio, exp_moment_exponent_bound, grid_stability_tables


def write_config(tmp_path, name, body):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


# --------------------------------------------------------------- config files

# One config line each, on line 2 of a file: its parsed value, type included.
GRAMMAR_VALUES = {
    "tol: 1e-3": 0.001,
    "horizon: .5": 0.5,
    "c: -2.5E+1": -25.0,
    "n: 8  # steps": 8,
    "seed: +007": 7,
    "out: results#1": "results#1",
    "model: bounded trig": "bounded trig",
    "gamma: [1, 1.5e0]  # sweep": [1, 1.5],
    "p: [ 2 ]": [2],
}

# One config line each, on line 2 of a ``moments`` config: the error it gives.
GRAMMAR_ERRORS = {
    "seed: yes": "expected an integer, got 'yes'",
    "seed: 0x10": "expected an integer, got '0x10'",
    "paths: 1_000": "expected an integer, got '1_000'",
    "c: .nan": "expected a number, got '.nan'",
    'out: "x"': "unsupported value",
    "statistic: 'sup'": "unsupported value",
    "model: {a: 1}": "unsupported value",
    "hurst: [[1]]": "unsupported value",
    "levels: [8, 16": "unsupported value",
    "levels: [8, , 16]": "empty value",
    "n:": "empty value",
    "n:   # none": "empty value",
    "p: []": "list must not be empty",
}


def test_parse_flat_config(tmp_path):
    path = write_config(
        tmp_path,
        "a.cfg",
        "# study setup\nhurst: [0.6, 0.75]\nn: 16\npaths: 100\nseed: 4\n\nmethod: cholesky\n",
    )
    entries = parse_config_file(path)
    assert entries["hurst"][0] == [0.6, 0.75]
    assert entries["n"] == (16, 3)
    config = resolve_config("fbm", entries, path, {"seed": None, "out": None, "workers": None})
    assert config["paths"] == 100
    assert config["horizon"] == 1.0  # default applied

    for line, expected in GRAMMAR_VALUES.items():
        path = write_config(tmp_path, "v.cfg", f"# case\n{line}\n")
        (value, lineno), = parse_config_file(path).values()
        assert (value, type(value), lineno) == (expected, type(expected), 2), line
        if isinstance(expected, list):
            assert [type(v) for v in value] == [type(v) for v in expected], line
    for line, message in GRAMMAR_ERRORS.items():
        path = write_config(tmp_path, "x.cfg", f"# case\n{line}\n")
        with pytest.raises(ConfigError) as err:
            resolve_config("moments", parse_config_file(path), path, {})
        assert f"x.cfg:2: key '{line.partition(':')[0]}'" in str(err.value), line
        assert message in str(err.value), line


def test_unknown_key_error_is_line_addressed(tmp_path):
    path = write_config(tmp_path, "b.cfg", "hurst: 0.75\nn: 16\nbogus: 1\npaths: 10\nseed: 1\n")
    with pytest.raises(ConfigError) as err:
        resolve_config("fbm", parse_config_file(path), path, {})
    assert f"{path}:3" in str(err.value)
    assert "bogus" in str(err.value)


def test_type_errors_are_line_addressed(tmp_path):
    path = write_config(tmp_path, "c.cfg", "hurst: 0.75\nn: sixteen\npaths: 10\nseed: 1\n")
    with pytest.raises(ConfigError) as err:
        resolve_config("fbm", parse_config_file(path), path, {})
    assert f"{path}:2" in str(err.value)


def test_duplicate_and_malformed_lines(tmp_path):
    path = write_config(tmp_path, "d.cfg", "n: 4\nn: 8\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_file(path)
    path2 = write_config(tmp_path, "e.cfg", "just some text\n")
    with pytest.raises(ConfigError, match="key: value"):
        parse_config_file(path2)


def test_missing_required_key(tmp_path):
    path = write_config(tmp_path, "f.cfg", "hurst: 0.75\nn: 16\npaths: 10\n")
    with pytest.raises(ConfigError, match="seed"):
        resolve_config("fbm", parse_config_file(path), path, {})


def test_command_mismatch_rejected(tmp_path):
    path = write_config(tmp_path, "g.cfg", "command: fbm\nhurst: 0.75\nn: 16\npaths: 10\nseed: 1\n")
    with pytest.raises(ConfigError, match="invoked as"):
        resolve_config("fernique", parse_config_file(path), path, {})


def test_cli_overrides_take_precedence(tmp_path):
    path = write_config(tmp_path, "h.cfg", "hurst: 0.75\nn: 8\npaths: 10\nseed: 1\n")
    config = resolve_config(
        "fbm", parse_config_file(path), path, {"seed": 99, "out": "elsewhere", "workers": 2}
    )
    assert config["seed"] == 99
    assert config["out"] == "elsewhere"
    assert config["workers"] == 2


# ------------------------------------------------------------------- commands


def test_fbm_command_end_to_end(tmp_path):
    cfg = write_config(
        tmp_path, "fbm.cfg", "hurst: [0.75]\nn: 8\npaths: 2000\nseed: 42\nmethod: both\n"
    )
    out = tmp_path / "run"
    assert main(["fbm", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "fbm.csv")
    assert len(rows) == 2 * 36  # both methods x upper triangle of 8x8
    assert all(float(r["dev_over_se"]) < 6 for r in rows)
    manifest = json.loads((out / "fbm_manifest.json").read_text())
    assert manifest["command"] == "fbm"
    assert {r["manifest_hash"] for r in rows} == {manifest["manifest_hash"]}


def test_integrate_command(tmp_path):
    cfg = write_config(tmp_path, "i.cfg", "hurst: 0.75\nn: 512\npaths: 20\nseed: 7\ntol: 0.001\n")
    out = tmp_path / "run"
    assert main(["integrate", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "integrate.csv")
    assert len(rows) == 20
    assert all(r["young_love_ok"] == "true" for r in rows)
    assert all(float(r["rel_error"]) < 1e-3 for r in rows)


def test_solve_command(tmp_path):
    cfg = write_config(
        tmp_path, "s.cfg", "levels: [64, 128, 256]\npaths: 200\nseed: 42\n"
    )
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "solve.csv")
    errors = [float(r["mean_abs_terminal_error"]) for r in rows]
    assert errors == sorted(errors, reverse=True)


def test_moments_command_with_model_params(tmp_path):
    cfg = write_config(
        tmp_path,
        "m.cfg",
        "model: geometric_mixed\nmodel.mu: 0.05\nmodel.sigma_w: 0.1\n"
        "statistic: sup\np: [1, 2]\nlevels: [64, 128]\npaths: 300\nseed: 11\n",
    )
    out = tmp_path / "run"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "moments.csv")
    assert len(rows) == 4  # 2 statistics x 2 levels
    assert {r["statistic"] for r in rows} == {"E sup^p, p=1", "E sup^p, p=2"}


def test_moments_command_constant_model_is_exact(tmp_path):
    cfg = write_config(
        tmp_path,
        "const.cfg",
        "model: linear_mixed\nmodel.drift_matrix: 0\nmodel.drift_offset: 0\n"
        "model.wiener_matrix: 0\nmodel.wiener_offset: 0\nmodel.rough_matrix: 0\n"
        "model.rough_offset: 0\nmodel.initial_value: 2.0\n"
        "statistic: sup\np: [3]\nlevels: [64]\npaths: 50\nseed: 1\n",
    )
    out = tmp_path / "run"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 0
    (row,) = read_rows(out / "moments.csv")
    assert float(row["estimate"]) == pytest.approx(8.0, rel=1e-12)
    assert float(row["standard_error"]) <= 1e-12
    assert row["blowup_count"] == "0"


def test_moments_ratio_column_is_the_tables_ratio_rule(tmp_path):
    # Every coefficient and the initial value are 0, so every estimate is 0:
    # the estimate did not move, which is nan, not an escaping inf.
    zero = {f"{k}_{part}": 0 for k in ("drift", "wiener", "rough") for part in ("matrix", "offset")}
    model = model_zoo("linear_mixed", initial_value=0.0, **zero)
    target = MomentTarget("sup", p=2.0)
    (table,) = grid_stability_tables(model, [target], [8, 16], 20, seed=1)
    assert [e.estimate for e in table.estimates] == [0.0, 0.0]
    assert len(table.ratios) == 1 and math.isnan(table.ratios[0])
    body = "".join(f"model.{k}: 0\n" for k in zero)
    cfg = write_config(
        tmp_path, "zero.cfg",
        "model: linear_mixed\nmodel.initial_value: 0\n" + body
        + "statistic: sup\np: [2]\nlevels: [8, 16]\npaths: 20\nseed: 1\n",
    )
    out = tmp_path / "run"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 0
    ratios = [row["ratio_vs_prev"] for row in read_rows(out / "moments.csv")]
    assert ratios == ["nan", repr(table.ratios[0])]


def test_solve_ratio_column_is_the_tables_ratio_rule(tmp_path):
    cfg = write_config(tmp_path, "solve.cfg", "levels: [8, 16, 32]\npaths: 50\nseed: 2\n")
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "solve.csv")
    errors = [float(row["mean_abs_terminal_error"]) for row in rows]
    expected = ["nan", *(repr(_level_ratio(a, b)) for a, b in zip(errors, errors[1:]))]
    assert [row["error_ratio_vs_prev"] for row in rows] == expected


def test_check_conditions_command(tmp_path):
    cfg = write_config(
        tmp_path, "cc.cfg", "model: bounded_trig\nset: B\nsamples: 2000\nseed: 3\n"
    )
    out = tmp_path / "run"
    assert main(["check-conditions", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "check_conditions.csv")
    assert {r["verdict"] for r in rows} == {"no-violation-found"}
    assert {r["condition"] for r in rows} == {"B1", "B2", "B3", "B4-c", "B4-cx"}
    # witnesses round-trip as JSON
    for r in rows:
        json.loads(r["witness"])


def test_fernique_command(tmp_path):
    cfg = write_config(
        tmp_path, "fe.cfg", "hurst: 0.75\nmu: 0.65\nn: 128\npaths: 2000\nseed: 5\n"
    )
    out = tmp_path / "run"
    assert main(["fernique", "--config", cfg, "--out", str(out)]) == 0
    (row,) = read_rows(out / "fernique.csv")
    assert row["mode"] == "fit"
    assert float(row["slope"]) < 0


def test_boundary_command(tmp_path):
    cfg = write_config(
        tmp_path,
        "b.cfg",
        "model: bounded_trig\ngamma: [0.5, 1.0]\nc: 1.0\nn: 128\npaths: 1000\nseed: 9\n",
    )
    out = tmp_path / "run"
    assert main(["boundary", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "boundary.csv")
    assert [float(r["gamma"]) for r in rows] == [0.5, 1.0]
    assert all(float(r["threshold_gamma"]) == pytest.approx(exp_moment_exponent_bound(0.74)) for r in rows)


def test_check_conditions_without_claimed_constants_reads_no_claim(tmp_path):
    # quadratic_control claims no set: its x^2 drift grows past any linear bound,
    # yet with nothing to test the verdict must not read as a pass
    cfg = write_config(
        tmp_path, "qc.cfg", "model: quadratic_control\nset: A\nradius: 10\nsamples: 1000\nseed: 3\n"
    )
    out = tmp_path / "run"
    assert main(["check-conditions", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "check_conditions.csv")
    assert {r["verdict"] for r in rows} == {"no-claim"}
    assert {r["claimed"] for r in rows} == {""}
    (a1,) = [r for r in rows if r["condition"] == "A1"]
    assert float(a1["estimate"]) > 9.0


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "bad.cfg", "model: nonsense\nset: B\nseed: 3\n")
    assert main(["check-conditions", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "nonsense" in capsys.readouterr().err


def test_bad_model_value_exits_2_naming_the_key(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "badval.cfg", "model: bounded_trig\nset: B\nseed: 3\nmodel.hurst: abc\n"
    )
    assert main(["check-conditions", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "model.hurst" in err and "abc" in err


PATHS_BODIES = {
    "fbm": "hurst: [0.75]\nn: 4\nseed: 1\npaths: {paths}\n",
    "integrate": "n: 8\nseed: 1\npaths: {paths}\n",
    "solve": "levels: [8]\nseed: 1\npaths: {paths}\n",
    "moments": "model: stochvol\nstatistic: sup\np: [2]\nlevels: [8]\nseed: 1\npaths: {paths}\n",
    "fernique": "hurst: 0.75\nmu: 0.6\nn: 16\nseed: 1\npaths: {paths}\n",
    "boundary": "model: bounded_trig\ngamma: [1.0]\nc: 1.0\nn: 16\nseed: 1\npaths: {paths}\n",
}


@pytest.mark.parametrize("paths", [0, -3])
@pytest.mark.parametrize("command", sorted(PATHS_BODIES))
def test_nonpositive_paths_exit_2_naming_the_line(tmp_path, capsys, command, paths):
    body = PATHS_BODIES[command].format(paths=paths)
    line = body.splitlines().index(f"paths: {paths}") + 1
    cfg = write_config(tmp_path, "paths.cfg", body)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"paths.cfg:{line}:" in err and "'paths'" in err
    assert not out.exists()


BAD_VALUE_CASES = {
    "seed-negative": ("fbm", "hurst: [0.75]\nn: 4\npaths: 2\nseed: -1\n", 4, "seed must be a u64"),
    "seed-2^64": ("fernique", "hurst: 0.75\nmu: 0.6\nseed: 18446744073709551616\nn: 16\npaths: 2\n", 3,
                  "seed must be a u64"),
    "workers-0": ("solve", "levels: [8]\nworkers: 0\nseed: 1\npaths: 2\n", 2, "workers must be >= 1"),
    "integrate-n-12": ("integrate", "seed: 1\nn: 12\npaths: 2\n", 2, "key 'n' must be a power of two"),
    "integrate-n-0": ("integrate", "seed: 1\nn: 0\npaths: 2\n", 2, "key 'n': must be >= 1, got 0"),
    "fbm-n-negative": ("fbm", "hurst: [0.75]\nn: -4\npaths: 2\nseed: 1\n", 2, "key 'n': must be >= 1, got -4"),
    "boundary-n-12": ("boundary", "model: bounded_trig\ngamma: [1.0]\nc: 1.0\nn: 12\nseed: 1\npaths: 2\n", 4,
                      "key 'n' must be a power of two"),
    "solve-levels-non-dyadic": ("solve", "seed: 1\nlevels: [8, 12]\npaths: 2\n", 2,
                                "key 'levels': levels must be dyadic (powers of two), got 12"),
    "moments-levels-decreasing": ("moments", "model: bounded_trig\nstatistic: sup\np: [2]\nlevels: [16, 8]\n"
                                  "seed: 1\npaths: 2\n", 4,
                                  "key 'levels': levels must be strictly increasing, got (16, 8)"),
    "integrate-tol-negative": ("integrate", "seed: 1\nn: 8\npaths: 2\ntol: -1\n", 4,
                               "key 'tol': must be positive, got -1.0"),
    "boundary-c-negative": ("boundary", "model: bounded_trig\ngamma: [1.0]\nc: -1\nn: 16\nseed: 1\npaths: 2\n", 3,
                            "key 'c': must be positive, got -1.0"),
    "moments-p-negative": ("moments", "model: bounded_trig\nstatistic: sup\np: [2, -1]\nlevels: [8]\nseed: 1\n"
                           "paths: 2\n", 3, "key 'p': must be positive, got -1.0"),
    "boundary-gamma-0": ("boundary", "model: bounded_trig\nc: 1.0\ngamma: [0, 1.0]\nn: 16\nseed: 1\npaths: 2\n", 3,
                         "key 'gamma': must be positive, got 0.0"),
    "boundary-gamma-unsorted": ("boundary", "model: bounded_trig\ngamma: [1.5, 0.6]\nc: 1.0\nn: 16\nseed: 1\n"
                                "paths: 2\n", 2, "key 'gamma': must be sorted ascending, got [1.5, 0.6]"),
    "boundary-n-0": ("boundary", "model: bounded_trig\ngamma: [1.0]\nc: 1.0\nn: 0\nseed: 1\npaths: 2\n", 4,
                     "key 'n': must be >= 1, got 0"),
    "solve-horizon-negative": ("solve", "levels: [8]\nhorizon: -1\nseed: 1\npaths: 2\n", 2,
                               "key 'horizon': must be positive, got -1.0"),
    "fernique-horizon-0": ("fernique", "hurst: 0.75\nmu: 0.6\nn: 16\nhorizon: 0\nseed: 1\npaths: 2\n", 4,
                           "key 'horizon': must be positive, got 0.0"),
    "fbm-hurst-1.5": ("fbm", "n: 4\nhurst: [0.6, 1.5]\npaths: 2\nseed: 1\n", 2,
                      "key 'hurst': Hurst parameter must lie in (0, 1), got 1.5"),
    "fernique-hurst-1.2": ("fernique", "mu: 0.6\nhurst: 1.2\nn: 16\nseed: 1\npaths: 200\n", 2,
                           "key 'hurst': Hurst parameter must lie in (0, 1), got 1.2"),
    "fernique-mu-1.5": ("fernique", "hurst: 0.75\nn: 16\nmu: 1.5\nseed: 1\npaths: 200\n", 3,
                        "key 'mu': holder_order must lie in (0, 1), got 1.5"),
    "fernique-paths-50": ("fernique", "hurst: 0.75\nmu: 0.6\nn: 16\nseed: 1\npaths: 50\n", 5,
                          "key 'paths': must be >= 100, got 50"),
    "integrate-holder_order-0.2": ("integrate", "seed: 1\nn: 8\npaths: 2\nholder_order: 0.2\n", 4,
                                   "key 'holder_order': Young regime needs alpha + beta > 1, got 0.2 + 0.2"),
    "integrate-holder_order-1.5": ("integrate", "seed: 1\nn: 8\nholder_order: 1.5\npaths: 2\n", 3,
                                   "key 'holder_order': Holder exponent must lie in (0, 1], got 1.5"),
    "integrate-hurst-0.5": ("integrate", "seed: 1\nhurst: 0.5\nn: 8\npaths: 2\n", 2,
                            "key 'hurst': Young regime needs alpha + beta > 1, got 0.49 + 0.49"),
    "solve-hurst-0.3": ("solve", "levels: [8]\nseed: 1\nhurst: 0.3\npaths: 2\n", 3,
                        "key 'hurst': rough components must have Hurst parameter > 1/2 (got 0.3)"),
    "samples-0": ("check-conditions", "model: bounded_trig\nset: B\nsamples: 0\nseed: 1\n", 3,
                  "key 'samples': must be >= 1000, got 0"),
    "samples-999": ("check-conditions", "model: bounded_trig\nset: B\nsamples: 999\nseed: 1\n", 3,
                    "key 'samples': must be >= 1000, got 999"),
    "radius-0": ("check-conditions", "model: bounded_trig\nset: B\nradius: 0\nseed: 1\n", 3,
                 "key 'radius': must be positive, got 0.0"),
    "radius-negative": ("check-conditions", "model: bounded_trig\nset: B\nradius: -2\nseed: 1\n", 3,
                        "key 'radius': must be positive, got -2.0"),
    "model-horizon-negative": ("moments", "model: bounded_trig\nstatistic: sup\np: [2]\nlevels: [8]\nseed: 1\n"
                               "paths: 2\nmodel.drift_amp: 0.2\nmodel.horizon: -1\n", 7,
                               "bad model parameters for 'bounded_trig' (model.drift_amp: 0.2, model.horizon: -1): "
                               "horizon must be positive"),
    "model-unknown-parameter": ("check-conditions", "seed: 1\nset: B\nmodel: bounded_trig\nmodel.nonsense: 1\n",
                                4, "bad model parameters for 'bounded_trig' (model.nonsense: 1):"),
    # one model.* type error per zoo model, each on a later line than the first model.* key
    "model-linear_mixed-state_dim": ("check-conditions", "model: linear_mixed\nset: A\nseed: 1\n"
                                     "model.hurst: 0.7\nmodel.state_dim: 1.5\n", 5,
                                     "key 'model.state_dim': expected an integer, got 1.5"),
    "model-bounded_trig-hurst": ("check-conditions", "model: bounded_trig\nset: B\nseed: 1\n"
                                 "model.drift_amp: 0.2\nmodel.hurst: abc\n", 5,
                                 "key 'model.hurst': expected a number or a flat list of numbers, got 'abc'"),
    "model-geometric_mixed-mu": ("moments", "model: geometric_mixed\nstatistic: sup\np: [2]\nlevels: [8]\n"
                                 "seed: 1\npaths: 2\nmodel.sigma_w: 0.1\nmodel.mu: fast\n", 8,
                                 "key 'model.mu': expected a number or a flat list of numbers, got 'fast'"),
    "model-stochvol-vol_initial": ("moments", "model: stochvol\nstatistic: sup\np: [2]\nlevels: [8]\n"
                                   "seed: 1\npaths: 2\nmodel.rho_power: 0.1\nmodel.vol_initial: [0.2, high]\n", 8,
                                   "key 'model.vol_initial': expected a number or a flat list of numbers, "
                                   "got [0.2, 'high']"),
    "model-malliavin_linearized-sigma_w": ("moments", "model: malliavin_linearized\nstatistic: exp\nc: 0.5\n"
                                           "gamma: [1.0]\nlevels: [8]\nseed: 1\npaths: 2\n"
                                           "model.initial_value: 2.0\nmodel.sigma_w: none\n", 9,
                                           "key 'model.sigma_w': expected a number or a flat list of numbers, "
                                           "got 'none'"),
    "model-malliavin_linearized-base": ("moments", "model: malliavin_linearized\nstatistic: exp\nc: 0.5\n"
                                        "gamma: [1.0]\nlevels: [8]\nseed: 1\npaths: 2\nmodel.mu: 0.2\n"
                                        "model.base: 1\n", 9, "bad model parameters for 'malliavin_linearized' "
                                        "(model.mu: 0.2, model.base: 1): unknown parameter 'base'"),
    "model-quadratic_control-any-parameter": ("moments", "model: quadratic_control\nstatistic: sup\np: [2]\n"
                                              "levels: [8]\nseed: 1\npaths: 2\nmodel.hurst: 0.7\n", 7,
                                              "bad model parameters for 'quadratic_control' (model.hurst: 0.7): "
                                              "unknown parameter 'hurst'; choose from []"),
    # a rate list must have one rate per state component (drift) or Wiener column
    "model-bounded_trig-drift_rate-length": ("moments", "model: bounded_trig\nstatistic: sup\np: [2]\n"
                                             "levels: [8]\nseed: 1\npaths: 2\nmodel.state_dim: 2\n"
                                             "model.drift_rate: [0.5, 3.0, 1.0]\n", 7,
                                             "bad model parameters for 'bounded_trig' (model.state_dim: 2, "
                                             "model.drift_rate: [0.5, 3.0, 1.0]): drift_rate must be a number or a list of state_dim = 2 numbers, "
                                             "got [0.5, 3.0, 1.0]"),
    "model-bounded_trig-wiener_rate-length": ("moments", "model: bounded_trig\nstatistic: sup\np: [2]\n"
                                              "levels: [8]\nseed: 1\npaths: 2\nmodel.wiener_rate: [0.5, 0.3]\n", 7,
                                              "bad model parameters for 'bounded_trig' (model.wiener_rate: "
                                              "[0.5, 0.3]): wiener_rate must be a number or a list of wiener_dim = 1 numbers, "
                                              "got [0.5, 0.3]"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUE_CASES))
def test_bad_value_exits_2_naming_the_line(tmp_path, capsys, case):
    command, body, line, message = BAD_VALUE_CASES[case]
    cfg = write_config(tmp_path, "bad.cfg", body)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"bad.cfg:{line}: {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("rates", ["model.state_dim: 2\nmodel.drift_rate: [0.5, 3.0]\n",
                                   "model.wiener_rate: [0.5]\n"])
def test_bounded_trig_rate_lists_of_the_right_length_run(tmp_path, rates):
    cfg = write_config(
        tmp_path, "rates.cfg",
        "model: bounded_trig\n" + rates + "statistic: sup\np: [2]\nlevels: [8, 16]\npaths: 64\nseed: 1\n",
    )
    out = tmp_path / "o"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 0
    assert [row["blowup_count"] for row in read_rows(out / "moments.csv")] == ["0", "0"]


@pytest.mark.parametrize("rho, warned", [(0.6, True), (0.2, False)])
def test_growth_power_outside_the_admissible_range_warns_on_stderr(tmp_path, rho, warned):
    cfg = write_config(
        tmp_path, "rho.cfg",
        f"model: stochvol\nmodel.rho_power: {rho}\nstatistic: sup\np: [2]\nlevels: [8, 16]\npaths: 64\nseed: 11\n",
    )
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "mixedsde.cli", "moments", "--config", cfg, "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert ("outside the admissible range" in done.stderr) == warned, done.stderr


def test_readme_cli_block_and_example_configs_agree():
    root = Path(__file__).resolve().parents[1]
    block = (root / "README.md").read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    named = set(re.findall(r"--config (configs/\S+\.cfg)", block))
    on_disk = {f"configs/{p.name}" for p in (root / "configs").glob("*.cfg")}
    assert named == on_disk


def test_model_errors_name_the_first_model_key_else_the_model_line():
    from mixedsde.cli import _model_line

    entries = {"model": ("bounded_trig", 2), "seed": (1, 3), "model.hurst": (0.7, 5), "model.horizon": (-1, 6)}
    assert _model_line(entries) == 5
    assert _model_line({"seed": (1, 1), "model": ("stochvol", 4)}) == 4


def test_bad_override_exits_2_naming_only_the_file(tmp_path, capsys):
    cfg = write_config(tmp_path, "ok.cfg", "hurst: [0.75]\nn: 4\npaths: 2\nseed: 1\nworkers: 1\n")
    for flag, value, message in (("--seed", "-1", "seed must be a u64"),
                                 ("--workers", "0", "workers must be >= 1")):
        assert main(["fbm", "--config", cfg, "--out", str(tmp_path / "o"), flag, value]) == 2
        assert f"ok.cfg: {message}" in capsys.readouterr().err


def test_integrate_holder_order_zero_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "h0.cfg", "n: 8\npaths: 2\nseed: 1\nholder_order: 0\n")
    out = tmp_path / "o"
    assert main(["integrate", "--config", cfg, "--out", str(out)]) == 2
    assert "Holder exponent must lie in (0, 1], got 0.0" in capsys.readouterr().err
    assert not out.exists()


# Computed from the parsed example configs, the first eight before the config
# grammar changed: the hash covers every parsed value and its type, so equal
# hashes mean each example run keeps its identity.
EXAMPLE_MANIFEST_HASHES = {
    "boundary.cfg": ("boundary", "2821b3dfdf6c22a9"),
    "check_conditions.cfg": ("check-conditions", "2e2096ba03883c59"),
    "coupled_rho.cfg": ("moments", "f7f743be63137c6d"),
    "exp_moments.cfg": ("moments", "8d044fa7b10d3cbb"),
    "fbm.cfg": ("fbm", "757f19d8e83afab4"),
    "fernique.cfg": ("fernique", "317fce698150cd2d"),
    "integrate.cfg": ("integrate", "23ade60caa7ff350"),
    "moments.cfg": ("moments", "f1883ab58400f01b"),
    "quadratic_control.cfg": ("moments", "0dc3387799ac9d3e"),
    "solve.cfg": ("solve", "72e9dcb88e067b1a"),
}


def test_example_config_manifest_hashes_are_pinned():
    from mixedsde.cli import _manifest_hash, _result_identity

    configs = Path(__file__).resolve().parents[1] / "configs"
    assert sorted(p.name for p in configs.glob("*.cfg")) == sorted(EXAMPLE_MANIFEST_HASHES)
    for name, (command, expected) in EXAMPLE_MANIFEST_HASHES.items():
        path = str(configs / name)
        config = resolve_config(command, parse_config_file(path), path, {})
        assert _manifest_hash(_result_identity(command, config)) == expected, name


def test_every_command_with_paths_is_covered():
    from mixedsde.cli import _SCHEMAS

    with_paths = {name for name, keys in _SCHEMAS.items() if any(k.name == "paths" for k in keys)}
    assert with_paths == set(PATHS_BODIES)


def test_runtime_failure_exits_3(tmp_path, capsys):
    # cholesky synthesis above its size cap is a runtime resource failure
    cfg = write_config(
        tmp_path, "big.cfg", "hurst: [0.75]\nn: 8192\npaths: 1\nseed: 1\nmethod: cholesky\n"
    )
    assert main(["fbm", "--config", cfg, "--out", str(tmp_path / "r")]) == 3
    assert "capped" in capsys.readouterr().err


def test_identical_config_and_seed_give_bit_identical_csv(tmp_path):
    cfg = write_config(tmp_path, "r.cfg", "hurst: [0.7]\nn: 8\npaths: 500\nseed: 21\n")
    out1, out2, out3 = (tmp_path / n for n in ("r1", "r2", "r3"))
    assert main(["fbm", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["fbm", "--config", cfg, "--out", str(out2)]) == 0
    assert main(["fbm", "--config", cfg, "--out", str(out3), "--workers", "4"]) == 0
    first = (out1 / "fbm.csv").read_bytes()
    assert first == (out2 / "fbm.csv").read_bytes()
    assert first == (out3 / "fbm.csv").read_bytes()  # worker count cannot matter


def test_manifest_round_trip_and_hash_stability(tmp_path):
    cfg = write_config(
        tmp_path, "mf.cfg",
        "model: linear_mixed\nstatistic: sup\np: [2]\nlevels: [64]\npaths: 100\nseed: 2\n",
    )
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    assert main(["moments", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["moments", "--config", cfg, "--out", str(out2), "--workers", "2"]) == 0
    m1 = json.loads((out1 / "moments_manifest.json").read_text())
    m2 = json.loads((out2 / "moments_manifest.json").read_text())
    # the result hash ignores execution-only keys; the manifest records them
    assert m1["manifest_hash"] == m2["manifest_hash"]
    assert m1["workers"] == 1 and m2["workers"] == 2
    assert m1["config"]["seed"] == 2
    rows = read_rows(out1 / "moments.csv")
    assert {r["manifest_hash"] for r in rows} == {m1["manifest_hash"]}


def test_csv_is_rfc4180_crlf(tmp_path):
    cfg = write_config(tmp_path, "c.cfg", "hurst: [0.7]\nn: 4\npaths: 50\nseed: 1\n")
    out = tmp_path / "run"
    assert main(["fbm", "--config", cfg, "--out", str(out)]) == 0
    raw = (out / "fbm.csv").read_bytes()
    assert b"\r\n" in raw
