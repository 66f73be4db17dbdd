import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mixedsde import cli, model_zoo, parallel, young_integrate
from mixedsde.cli import main, parse_config_file, resolve_config
from mixedsde.errors import ConfigError, DomainError
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


def test_integrate_runs_young_integrate_once_per_chunk(tmp_path, monkeypatch):
    calls = []

    def counted(g, h, **kwargs):
        calls.append(g.count)
        return young_integrate(g, h, **kwargs)

    monkeypatch.setattr(cli, "young_integrate", counted)
    monkeypatch.setattr(parallel, "CHUNK_PATHS", 16)
    cfg = write_config(tmp_path, "i.cfg", "n: 64\npaths: 40\nseed: 7\n")
    assert main(["integrate", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert calls == [16, 16, 8]


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
    assert "threshold_gamma" not in rows[0]  # only exp rows carry the exponent bound


def test_moments_counts_add_up_to_the_paths_when_paths_blow_up(tmp_path):
    cfg = write_config(
        tmp_path, "q.cfg", "model: quadratic_control\nstatistic: sup\np: [0.5]\nlevels: [32, 64]\npaths: 300\nseed: 9\n"
    )
    out = tmp_path / "run"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "moments.csv")
    assert [row["blowup_count"] for row in rows] == ["0", "36"]
    assert all(int(row["sample_count"]) + int(row["blowup_count"]) == 300 for row in rows)


def test_moments_finite_samples_summing_past_the_largest_double_give_an_unstable_row(tmp_path):
    # every surviving sample is finite at p 1.0077, but their sum passes the largest double
    cfg = write_config(
        tmp_path, "q.cfg", "model: quadratic_control\nstatistic: sup\np: [1.0077]\nlevels: [64]\npaths: 2048\nseed: 4\n"
    )
    out = tmp_path / "run"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 0
    (row,) = read_rows(out / "moments.csv")
    assert [row[k] for k in ("estimate", "standard_error", "ci_low", "ci_high")] == ["inf"] * 4
    assert (row["sample_count"], row["blowup_count"], row["overflow_count"]) == ("1829", "219", "0")
    assert row["unstable"] == "true"


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


def _condition_rows(tmp_path, body):
    """check-conditions rows by condition, each of them passing."""
    cfg = write_config(tmp_path, "cc.cfg", body + "samples: 1000\nseed: 3\n")
    out = tmp_path / "run"
    assert main(["check-conditions", "--config", cfg, "--out", str(out)]) == 0
    rows = {r["condition"]: r for r in read_rows(out / "check_conditions.csv")}
    assert {r["verdict"] for r in rows.values()} == {"no-violation-found"}
    return rows


def test_check_conditions_checks_a_coupled_models_base_under_set_b(tmp_path):
    rows = _condition_rows(tmp_path, "model: stochvol\nset: B\n")
    claims = model_zoo("stochvol").base.claimed_constants
    assert list(rows) == ["B1", "B2", "B3", "B4-c", "B4-cx"]
    assert {c: float(r["claimed"]) for c, r in rows.items()} == claims


def test_check_conditions_without_a_rough_field_reads_zero_for_its_conditions(tmp_path):
    rows = _condition_rows(tmp_path, "model: linear_mixed\nmodel.rough_dim: 0\nset: A\n")
    assert [float(rows[c]["estimate"]) for c in ("A2", "A4-c", "A4-cx")] == [0.0, 0.0, 0.0]
    assert float(rows["A1"]["estimate"]) > 0.0


def test_check_conditions_reads_a_declared_holder_beta(tmp_path):
    # B4 claims rough_amp 0.5 * rough_rate 0.2 * T^(1 - beta); on T = 2 the
    # default beta of 0.38 would claim 0.1 * 2^0.62 and estimate below it
    rows = _condition_rows(tmp_path, "model: bounded_trig\nmodel.holder_beta: 0.3\nmodel.horizon: 2\nset: B\n")
    for condition in ("B4-c", "B4-cx"):
        assert float(rows[condition]["claimed"]) == pytest.approx(0.1 * 2**0.7)
        assert float(rows[condition]["estimate"]) > 0.1 * 2**0.62


def test_fernique_command(tmp_path):
    cfg = write_config(
        tmp_path, "fe.cfg", "hurst: 0.75\nmu: 0.65\nn: 128\npaths: 2000\nseed: 5\n"
    )
    out = tmp_path / "run"
    assert main(["fernique", "--config", cfg, "--out", str(out)]) == 0
    (row,) = read_rows(out / "fernique.csv")
    assert row["mode"] == "fit"
    assert float(row["slope"]) < 0


def test_moments_exp_rows_carry_the_exponent_bound(tmp_path):
    cfg = write_config(
        tmp_path,
        "e.cfg",
        "model: bounded_trig\nstatistic: exp\nc: 1.0\ngamma: [0.5, 1.0]\nlevels: [64, 128]\npaths: 1000\nseed: 9\n",
    )
    out = tmp_path / "run"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 0
    rows = read_rows(out / "moments.csv")
    assert [r["statistic"] for r in rows] == [f"E exp(c sup^gamma), c=1, gamma={g}" for g in ("0.5", "0.5", "1", "1")]
    assert all(float(r["threshold_gamma"]) == pytest.approx(exp_moment_exponent_bound(0.74)) for r in rows)
    # without a rough driver there is no Holder order to bound the exponent by
    smooth = write_config(
        tmp_path, "s.cfg",
        "model: linear_mixed\nmodel.rough_dim: 0\nstatistic: exp\nc: 0.5\ngamma: [1.0]\nlevels: [16]\npaths: 20\nseed: 9\n",
    )
    assert main(["moments", "--config", smooth, "--out", str(out)]) == 0
    assert [r["threshold_gamma"] for r in read_rows(out / "moments.csv")] == ["nan"]
    with pytest.raises(SystemExit):  # the exponent sweep is a moments study, not a command of its own
        main(["boundary", "--config", cfg])


def test_moments_labels_tell_close_exponents_apart(tmp_path):
    # 1.1935483 and 1.1935484 agree to the six digits of :g; the label is a sweep's only record of gamma
    gammas = [0.6, 1.08, 1.1935483, 1.1935484]
    cfg = write_config(
        tmp_path, "close.cfg",
        f"model: bounded_trig\nstatistic: exp\nc: 0.5\ngamma: {gammas}\nlevels: [8]\npaths: 4\nseed: 1\n",
    )
    out = tmp_path / "run"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 0
    labels = [r["statistic"] for r in read_rows(out / "moments.csv")]
    assert labels[:2] == ["E exp(c sup^gamma), c=0.5, gamma=0.6", "E exp(c sup^gamma), c=0.5, gamma=1.08"]
    assert [float(label.rpartition("gamma=")[2]) for label in labels] == gammas


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
    "integrate-n-1": ("integrate", "seed: 1\nn: 1\npaths: 2\n", 2,
                      "key 'n': young_integrate needs at least two dyadic levels"),
    "integrate-n-16384": ("integrate", "seed: 1\nn: 16384\npaths: 2\n", 2,
                          "key 'n': seminorm scan capped at 8192 steps, got 16384"),
    "fernique-n-8193": ("fernique", "hurst: 0.75\nmu: 0.6\nn: 8193\npaths: 100\nseed: 1\n", 3,
                        "key 'n': seminorm scan capped at 8192 steps, got 8193"),
    "fbm-cholesky-n-4097": ("fbm", "hurst: [0.75]\nn: 4097\npaths: 1\nseed: 1\nmethod: cholesky\n", 2,
                            "key 'n': cholesky synthesis is capped at n=4096 (requested 4097); use method='circulant'"),
    "fbm-both-n-4097": ("fbm", "hurst: [0.75]\nn: 4097\npaths: 1\nseed: 1\n", 2,
                        "key 'n': cholesky synthesis is capped at n=4096 (requested 4097); use method='circulant'"),
    "fbm-n-negative": ("fbm", "hurst: [0.75]\nn: -4\npaths: 2\nseed: 1\n", 2, "key 'n': must be >= 1, got -4"),
    "fbm-method-auto": ("fbm", "hurst: [0.75]\nn: 4\nmethod: auto\npaths: 2\nseed: 1\n", 3,
                        "key 'method': must be one of ['both', 'cholesky', 'circulant'], got 'auto'"),
    "solve-levels-non-dyadic": ("solve", "seed: 1\nlevels: [8, 12]\npaths: 2\n", 2,
                                "key 'levels': levels must be dyadic (powers of two), got 12"),
    "moments-levels-decreasing": ("moments", "model: bounded_trig\nstatistic: sup\np: [2]\nlevels: [16, 8]\n"
                                  "seed: 1\npaths: 2\n", 4,
                                  "key 'levels': levels must be strictly increasing, got (16, 8)"),
    "integrate-tol-negative": ("integrate", "seed: 1\nn: 8\npaths: 2\ntol: -1\n", 4,
                               "key 'tol': must be positive, got -1.0"),
    "moments-exp-c-negative": ("moments", "model: bounded_trig\nstatistic: exp\nc: -1\ngamma: [1.0]\nlevels: [16]\n"
                               "seed: 1\npaths: 2\n", 3, "key 'c': must be positive, got -1.0"),
    "moments-p-negative": ("moments", "model: bounded_trig\nstatistic: sup\np: [2, -1]\nlevels: [8]\nseed: 1\n"
                           "paths: 2\n", 3, "key 'p': must be positive, got -1.0"),
    "moments-exp-gamma-0": ("moments", "model: bounded_trig\nstatistic: exp\nc: 1.0\ngamma: [0, 1.0]\nlevels: [16]\n"
                            "seed: 1\npaths: 2\n", 4, "key 'gamma': must be positive, got 0.0"),
    "solve-horizon-negative": ("solve", "levels: [8]\nmodel.horizon: -1\nseed: 1\npaths: 2\n", 2,
                               "bad model parameters for 'geometric_mixed' (model.horizon: -1): "
                               "horizon must be positive"),
    "solve-model-linear_mixed": ("solve", "levels: [8]\nmodel: linear_mixed\nseed: 1\npaths: 2\n", 2,
                                 "key 'model': must be one of ['geometric_mixed'], got 'linear_mixed'"),
    "fernique-horizon-0": ("fernique", "hurst: 0.75\nmu: 0.6\nn: 16\nhorizon: 0\nseed: 1\npaths: 2\n", 4,
                           "key 'horizon': must be positive, got 0.0"),
    "fbm-hurst-1.5": ("fbm", "n: 4\nhurst: [0.6, 1.5]\npaths: 2\nseed: 1\n", 2,
                      "key 'hurst': Hurst parameter must lie in (0, 1), got 1.5"),
    "fernique-hurst-1.2": ("fernique", "mu: 0.6\nhurst: 1.2\nn: 16\nseed: 1\npaths: 200\n", 2,
                           "key 'hurst': Hurst parameter must lie in (0, 1), got 1.2"),
    "fernique-mu-1.5": ("fernique", "hurst: 0.75\nn: 16\nmu: 1.5\nseed: 1\npaths: 200\n", 3,
                        "key 'mu': holder_order must lie in (0, 1), got 1.5"),
    "fernique-growth-n-15": ("fernique", "hurst: 0.75\nmu: 0.8\nn: 15\nseed: 1\npaths: 200\n", 3,
                             "key 'n': stride 2 does not divide step_count 15"),
    "fernique-paths-50": ("fernique", "hurst: 0.75\nmu: 0.6\nn: 16\nseed: 1\npaths: 50\n", 5,
                          "key 'paths': must be >= 100, got 50"),
    "integrate-holder_order-0.2": ("integrate", "seed: 1\nn: 8\npaths: 2\nholder_order: 0.2\n", 4,
                                   "key 'holder_order': Young regime needs alpha + beta > 1, got 0.2 + 0.2"),
    "integrate-holder_order-1.5": ("integrate", "seed: 1\nn: 8\nholder_order: 1.5\npaths: 2\n", 3,
                                   "key 'holder_order': Holder exponent must lie in (0, 1], got 1.5"),
    "integrate-hurst-0.5": ("integrate", "seed: 1\nhurst: 0.5\nn: 8\npaths: 2\n", 2,
                            "key 'hurst': Young regime needs alpha + beta > 1, got 0.49 + 0.49"),
    "solve-hurst-0.3": ("solve", "levels: [8]\nseed: 1\nmodel.hurst: 0.3\npaths: 2\n", 3,
                        "bad model parameters for 'geometric_mixed' (model.hurst: 0.3): "
                        "rough components must have Hurst parameter > 1/2 (got 0.3)"),
    "samples-0": ("check-conditions", "model: bounded_trig\nset: B\nsamples: 0\nseed: 1\n", 3,
                  "key 'samples': must be >= 1000, got 0"),
    "samples-999": ("check-conditions", "model: bounded_trig\nset: B\nsamples: 999\nseed: 1\n", 3,
                    "key 'samples': must be >= 1000, got 999"),
    "radius-0": ("check-conditions", "model: bounded_trig\nset: B\nradius: 0\nseed: 1\n", 3,
                 "key 'radius': must be positive, got 0.0"),
    "radius-negative": ("check-conditions", "model: bounded_trig\nset: B\nradius: -2\nseed: 1\n", 3,
                        "key 'radius': must be positive, got -2.0"),
    # a number beyond the float range is refused where the file is read
    "radius-1e400": ("check-conditions", "model: bounded_trig\nset: B\nradius: 1e400\nseed: 1\n", 3,
                     "key 'radius': 1e400 is not a finite number"),
    "fbm-horizon-1e400": ("fbm", "hurst: [0.75]\nn: 4\nhorizon: 1e400\npaths: 2\nseed: 1\n", 3,
                          "key 'horizon': 1e400 is not a finite number"),
    # a finite horizon whose covariance t^(2H), squared for the standard errors, leaves the float range
    "fbm-horizon-1e-300": ("fbm", "hurst: [0.3, 0.75]\nn: 4\nhorizon: 1e-300\npaths: 2\nseed: 1\n", 3,
                           "key 'horizon': 1e-300 takes t^(4H) out of the float range at hurst 0.3 on 4 steps"),
    "fbm-horizon-1e300": ("fbm", "hurst: [0.2, 0.75]\nhorizon: 1e300\nn: 4\npaths: 2\nseed: 1\n", 2,
                          "key 'horizon': 1e+300 takes t^(4H) out of the float range at hurst 0.75 on 4 steps"),
    # integrate's Riemann-Stieltjes sums multiply two path values of size t^H: the same t^(4H) rule
    "integrate-horizon-1e300": ("integrate", "seed: 1\nn: 8\nhorizon: 1e300\npaths: 2\n", 3,
                                "key 'horizon': 1e+300 takes t^(4H) out of the float range "
                                "at hurst 0.75 on 8 steps"),
    "model-sigma_b-1e400": ("moments", "model: geometric_mixed\nstatistic: sup\np: [2]\nlevels: [8]\nseed: 1\n"
                            "paths: 2\nmodel.sigma_b: [1e400]\n", 7, "key 'model.sigma_b': 1e400 is not a finite number"),
    # a key the chosen statistic needs is missing: the statistic's line is named
    "moments-sup-no-p": ("moments", "model: bounded_trig\nstatistic: sup\nlevels: [8]\nseed: 1\npaths: 2\n", 2,
                         "statistic 'sup' needs key 'p'"),
    "moments-exp-no-gamma": ("moments", "model: bounded_trig\nlevels: [8]\nstatistic: exp\nc: 1.0\nseed: 1\n"
                             "paths: 2\n", 3, "statistic 'exp' needs keys 'c' and 'gamma'"),
    # a key the chosen statistic does not read
    "moments-sup-c": ("moments", "model: bounded_trig\nstatistic: sup\np: [2]\nc: 1.0\nlevels: [8]\nseed: 1\n"
                      "paths: 2\n", 4, "key 'c': statistic 'sup' does not read it"),
    "moments-exp-p": ("moments", "model: bounded_trig\nstatistic: exp\nc: 1.0\ngamma: [1.0]\nlevels: [8]\n"
                      "p: [2]\nseed: 1\npaths: 2\n", 6, "key 'p': statistic 'exp' does not read it"),
    "set-C-single-stage": ("check-conditions", "seed: 1\nmodel: linear_mixed\nset: C\n", 2,
                           "model 'linear_mixed' has no coupled stage for set C"),
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
    "model-bounded_trig-rough_rate-length": ("moments", "model: bounded_trig\nstatistic: sup\np: [2]\n"
                                             "levels: [8]\nseed: 1\npaths: 2\nmodel.rough_rate: [0.2, 0.3]\n", 7,
                                             "bad model parameters for 'bounded_trig' (model.rough_rate: "
                                             "[0.2, 0.3]): rough_rate must be a number or a list of rough_dim = 1 numbers, "
                                             "got [0.2, 0.3]"),
    # a model vector or matrix of the wrong length is refused by name, on the first model.* line
    "model-linear_mixed-initial_value-length": ("check-conditions", "model: linear_mixed\nset: A\nseed: 1\n"
                                                "model.initial_value: [1.0, 2.0]\n", 4,
                                                "bad model parameters for 'linear_mixed' (model.initial_value: "
                                                "[1.0, 2.0]): initial_value must be a number or a list of "
                                                "state_dim = 1 numbers, got [1.0, 2.0]"),
    "model-linear_mixed-drift_matrix-length": ("moments", "model: linear_mixed\nstatistic: sup\np: [2]\n"
                                               "levels: [8]\nseed: 1\npaths: 2\nmodel.hurst: 0.7\n"
                                               "model.drift_matrix: [1.0, 2.0]\n", 7,
                                               "bad model parameters for 'linear_mixed' (model.hurst: 0.7, "
                                               "model.drift_matrix: [1.0, 2.0]): drift_matrix must be a number or "
                                               "a list of state_dim x state_dim = 1 numbers, got [1.0, 2.0]"),
    "model-linear_mixed-wiener_offset-length": ("check-conditions", "model: linear_mixed\nset: A\nseed: 1\n"
                                                "model.wiener_offset: [0.2, 0.2, 0.2]\n", 4,
                                                "bad model parameters for 'linear_mixed' (model.wiener_offset: "
                                                "[0.2, 0.2, 0.2]): wiener_offset must be a number or a list of "
                                                "wiener_dim x state_dim = 1 numbers, got [0.2, 0.2, 0.2]"),
    "model-stochvol-vol_initial-length": ("moments", "model: stochvol\nstatistic: sup\np: [2]\nlevels: [8]\n"
                                          "seed: 1\npaths: 2\nmodel.vol_initial: [0.2, 0.3, 0.4]\n", 7,
                                          "bad model parameters for 'stochvol' (model.vol_initial: [0.2, 0.3, 0.4]): "
                                          "vol_initial must be a number or a list of state_dim = 2 numbers, "
                                          "got [0.2, 0.3, 0.4]"),
    # a negative state_dim is refused by name, before numpy sees it
    "model-bounded_trig-state_dim-negative": ("moments", "model: bounded_trig\nstatistic: sup\np: [2]\n"
                                              "levels: [8]\nseed: 1\npaths: 2\nmodel.state_dim: -1\n", 7,
                                              "bad model parameters for 'bounded_trig' (model.state_dim: -1): "
                                              "state_dim must be >= 1, got -1"),
    "model-linear_mixed-state_dim-negative": ("check-conditions", "model: linear_mixed\nset: A\nseed: 1\n"
                                              "model.state_dim: -1\n", 4,
                                              "bad model parameters for 'linear_mixed' (model.state_dim: -1): "
                                              "state_dim must be >= 1, got -1"),
    "empty-key": ("fbm", "hurst: [0.75]\n: 1\nn: 4\npaths: 2\nseed: 1\n", 2, "empty key"),
    "empty-model-parameter-name": ("moments", "model: bounded_trig\nstatistic: sup\np: [2]\nlevels: [8]\n"
                                   "seed: 1\nmodel.: 1\npaths: 2\n", 6, "empty model parameter name"),
    "fbm-method-5": ("fbm", "hurst: [0.75]\nn: 4\nmethod: 5\npaths: 2\nseed: 1\n", 3,
                     "key 'method': expected a string, got 5"),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUE_CASES))
def test_bad_value_exits_2_naming_the_line(tmp_path, capsys, case):
    command, body, line, message = BAD_VALUE_CASES[case]
    cfg = write_config(tmp_path, "bad.cfg", body)
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert f"bad.cfg:{line}: {message}" in err
    assert not caught and "Warning" not in err
    assert not out.exists()


def test_an_unreadable_config_exits_2_naming_the_file(tmp_path, capsys):
    cfg = str(tmp_path / "absent.cfg")
    assert main(["fbm", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {cfg}: cannot read config: ")


def test_resolving_a_config_builds_no_model(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("model_zoo called while resolving a config")

    monkeypatch.setattr(cli, "model_zoo", refuse)
    path = str(Path(__file__).resolve().parents[1] / "configs" / "coupled_rho.cfg")
    assert resolve_config("moments", parse_config_file(path), path, {})["model"] == "stochvol"


@pytest.mark.parametrize("command, body", [
    ("moments", "model: bounded_trig\nstatistic: sup\np: [2]\nlevels: [8]\npaths: 2\nseed: 1\n"),
    ("check-conditions", "model: stochvol\nset: C\nsamples: 1000\nseed: 1\n"),
])
def test_a_run_builds_its_model_once(tmp_path, monkeypatch, command, body):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return model_zoo(*args, **kwargs)

    monkeypatch.setattr(cli, "model_zoo", counted)
    assert main([command, "--config", write_config(tmp_path, "one.cfg", body), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def _edge_horizons(hurst, n):
    """The largest and the smallest horizon that the t^(4H) rule accepts."""
    def accepted(horizon):
        try:
            cli._check_horizon(horizon, hurst, n)
        except DomainError:
            return False
        return True

    edges = []
    for horizon, inward, outward in ((2.0 ** ((sys.float_info.max_exp - 1) / (4 * hurst)), 0.0, math.inf),
                                     (n * 2.0 ** ((sys.float_info.min_exp - 1) / (4 * hurst)), math.inf, 0.0)):
        while not accepted(horizon):
            horizon = np.nextafter(horizon, inward)
        while accepted(np.nextafter(horizon, outward)):
            horizon = np.nextafter(horizon, outward)
        edges.append(float(horizon))
    return edges


@pytest.mark.parametrize("hurst", [0.6, 0.99])
def test_integrate_at_the_edge_horizons_runs_clean_and_finite(tmp_path, hurst):
    for k, horizon in enumerate(_edge_horizons(hurst, 8)):
        body = f"hurst: {hurst}\nn: 8\nhorizon: {horizon!r}\npaths: 20\nseed: 1\n"
        cfg = write_config(tmp_path, f"edge{k}.cfg", body)
        out = tmp_path / f"o{k}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["integrate", "--config", cfg, "--out", str(out)]) == 0, horizon
        rows = read_rows(out / "integrate.csv")
        for column in ("value", "oracle", "abs_error", "rel_error", "error_estimate", "young_love_bound"):
            assert all(math.isfinite(float(row[column])) for row in rows), (horizon, column)
        assert all(row["young_love_ok"] == "true" for row in rows), horizon


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


def _rows_without_the_hash(tmp_path, body, rates):
    """The ``moments`` rows of ``body`` plus each rate line, all but the manifest hash."""
    written = []
    for k, rate in enumerate(rates):
        cfg = write_config(tmp_path, f"r{k}.cfg", body + rate + "\n")
        assert main(["moments", "--config", cfg, "--out", str(tmp_path / f"o{k}")]) == 0
        # every byte but the manifest hash, which covers the config's text of the rate
        written.append([{k: v for k, v in row.items() if k != "manifest_hash"}
                        for row in read_rows(tmp_path / f"o{k}" / "moments.csv")])
    return written


def test_a_one_rate_rough_rate_list_writes_the_scalar_rate_rows(tmp_path):
    body = "model: bounded_trig\nstatistic: sup\np: [2]\nlevels: [8, 16]\npaths: 64\nseed: 1\nmodel.rough_rate: "
    written = _rows_without_the_hash(tmp_path, body, ("0.2", "[0.2]"))
    assert written[0] == written[1]


def test_a_one_rate_drift_rate_list_writes_the_scalar_rate_rows(tmp_path):
    body = "model: bounded_trig\nstatistic: sup\np: [2]\nlevels: [64, 128]\npaths: 256\nseed: 7\nmodel.drift_rate: "
    written = _rows_without_the_hash(tmp_path, body, ("0.5", "[0.5]"))
    assert written[0] == written[1]


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


def test_stochvol_horizon_from_the_config_reaches_both_stages(tmp_path):
    estimates = []
    for horizon in (1.0, 4.0):
        cfg = write_config(
            tmp_path, f"h{horizon}.cfg",
            f"model: stochvol\nmodel.horizon: {horizon}\nstatistic: sup\np: [2]\nlevels: [8]\npaths: 16\nseed: 1\n",
        )
        out = tmp_path / f"o{horizon}"
        assert main(["moments", "--config", cfg, "--out", str(out)]) == 0
        estimates.append(float(read_rows(out / "moments.csv")[0]["estimate"]))
    assert estimates[0] != estimates[1]


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
    "check_conditions.cfg": ("check-conditions", "2e2096ba03883c59"),
    "coupled_rho.cfg": ("moments", "f7f743be63137c6d"),
    "exp_moments.cfg": ("moments", "8d044fa7b10d3cbb"),
    "exp_sweep.cfg": ("moments", "be2519edf6e3dc44"),
    "fbm.cfg": ("fbm", "757f19d8e83afab4"),
    "fernique.cfg": ("fernique", "317fce698150cd2d"),
    "integrate.cfg": ("integrate", "23ade60caa7ff350"),
    "moments.cfg": ("moments", "f1883ab58400f01b"),
    "quadratic_control.cfg": ("moments", "0dc3387799ac9d3e"),
    "solve.cfg": ("solve", "f67323450855050f"),
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
    # an accepted config whose every path overflows is a runtime estimation failure
    cfg = write_config(
        tmp_path, "huge.cfg",
        "model: linear_mixed\nmodel.horizon: 1e300\nstatistic: exp\ngamma: [1.0]\nc: 1.0\nlevels: [16]\npaths: 8\n"
        "seed: 1\n",
    )
    assert main(["moments", "--config", cfg, "--out", str(tmp_path / "r")]) == 3
    assert "run failed: every path blew up" in capsys.readouterr().err


def test_out_of_memory_exits_3_with_one_line_and_no_csv(tmp_path, capsys, monkeypatch):
    import mixedsde.solver

    def no_room(*args):
        raise MemoryError("Unable to allocate 64.0 GiB for an array with shape (1048577, 2048, 1)")

    monkeypatch.setattr(mixedsde.solver, "stage_drivers", no_room)
    cfg = write_config(tmp_path, "m.cfg", "model: stochvol\nstatistic: sup\np: [2]\nlevels: [16]\npaths: 8\nseed: 1\n")
    out = tmp_path / "r"
    assert main(["moments", "--config", cfg, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "run failed: out of memory: Unable to allocate 64.0 GiB for an array with shape (1048577, 2048, 1)\n"
    assert captured.out == ""
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("where", ["file", "under-file"])
def test_unwritable_out_exits_3_with_one_line(tmp_path, capsys, where):
    # --out names an existing file (FileExistsError) or a path under one (NotADirectoryError)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker if where == "file" else blocker / "run"
    cfg = write_config(tmp_path, "w.cfg", "hurst: [0.75]\nn: 4\npaths: 2\nseed: 1\n")
    assert main(["fbm", "--config", cfg, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("run failed: cannot write outputs: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert blocker.read_text() == ""


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
