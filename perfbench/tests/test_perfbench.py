"""Self-checks of the benchmark at a tiny size.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

They check that results do not depend on the worker count, that the
tracer's wrappers change no output byte, that the tracer attributes work to
the right layers, and that each workload's correctness check accepts a
valid alternative random stream and rejects a broken one.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, config_text, read_rows  # noqa: E402

import mixedsde.cli  # noqa: E402
from mixedsde import randomness  # noqa: E402

# Two path chunks, so a second worker really takes one of them.
TINY = {
    "coupled_moments": {"paths": 2100, "levels": [16, 32]},
    "fernique_tail": {"paths": 2100, "n": 64},
    "fbm_exactness": {"paths": 500},
}


def _tiny_run(tmp_path, name, run_name, trace=False, **overrides):
    workload = WORKLOADS[name]
    config = workload.config(workload.default_seed, **{**TINY[name], **overrides})
    return run.run_child(workload, config, tmp_path / run_name, trace=trace, timeout=120)


def test_coupled_csv_is_identical_at_one_and_two_workers(tmp_path):
    one = _tiny_run(tmp_path, "coupled_moments", "w1", workers=1)
    two = _tiny_run(tmp_path, "coupled_moments", "w2", workers=2)
    assert one["exit_code"] == two["exit_code"] == 0
    assert one["csv_sha256"] == two["csv_sha256"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_writes_the_same_csv_bytes(tmp_path, name):
    plain = _tiny_run(tmp_path, name, "plain")
    traced = _tiny_run(tmp_path, name, "traced", trace=True)
    assert plain["exit_code"] == traced["exit_code"] == 0
    assert traced["csv_sha256"] == plain["csv_sha256"]
    layers = traced["layers"]
    if name == "coupled_moments":
        # 2 chunks x 2 levels x (primary + coupled stage)
        assert layers["solver.euler.calls"] == 8
        assert layers["solver.path_steps"] == 2 * 2100 * (16 + 32)
        assert layers["parallel.jobs"] == 2
        assert layers["models.field_calls"] > 0 and layers["analysis.seminorm.paths"] == 0
    elif name == "fernique_tail":
        assert layers["analysis.seminorm.paths"] == 2100
        assert layers["analysis.pairs"] == 2100 * 64 * 65 // 2
        assert layers["solver.euler.calls"] == 0 and layers["moments.self_s"] > 0
    else:
        # 3 Hurst values x 2 methods, one stream per path each
        assert layers["randomness.path_stream.calls"] == 500 * 6
        assert layers["randomness.draws"] == 500 * 3 * (32 + 64)
        assert layers["moments.self_s"] == 0 and layers["parallel.jobs"] == 6


def test_per_layer_names_match_benchmark_json():
    spec = run.benchmark_spec()
    spans = {"id": np.array([1]), "name": np.array([0]), "start": np.array([0.0]), "end": np.array([1.0]),
             "parent": np.array([0]), "names": ["cli.main"], "counts": {}}
    produced = set(tracer.layer_metrics(spans)[0]) | {"cli.csv_rows", "cli.csv_bytes", "trace_overhead"}
    assert produced == {m["name"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == ["coupled_moments", "fernique_tail"]
    assert set(WORKLOADS) == {"coupled_moments", "fernique_tail", "fbm_exactness"}
    assert spec["paths"] == [HERE.name]


def test_self_time_subtracts_the_union_of_children():
    # parent [0, 10]; children [1, 4] and [3, 6] overlap (two threads); grandchild inside one
    spans = {
        "id": np.array([1, 2, 3, 4]),
        "start": np.array([0.0, 1.0, 3.0, 1.5]),
        "end": np.array([10.0, 4.0, 6.0, 2.0]),
        "parent": np.array([0, 1, 1, 2]),
    }
    assert np.allclose(tracer.self_times(spans), [5.0, 2.5, 3.0, 0.5])


# --------------------------------------------------------------------------
# the correctness checks against alternative and broken random streams


def _ziggurat_normals(seed, tag, draws, count, offset=0):
    """A valid alternative stream: per-path ziggurat normals, same Philox keys."""
    return np.stack([randomness.path_stream(seed, offset + i, tag).standard_normal(draws) for i in range(count)])


def _one_stream_for_all_paths(seed, tag, draws, count, offset=0):
    """A broken stream: every path reuses path 0's stream."""
    row = randomness.path_stream(seed, 0, tag).standard_normal(draws)
    return np.repeat(row[None, :], count, axis=0)


def _check_in_process(tmp_path, name, **overrides):
    workload = WORKLOADS[name]
    config = workload.config(workload.default_seed, **overrides)
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(config_text(config, str(tmp_path / "out")))
    if mixedsde.cli.main([workload.command, "--config", str(cfg)]) != 0:
        return ["study exited nonzero"]
    return workload.check(config, read_rows(tmp_path / "out" / f"{workload.command}.csv"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_accept_a_valid_alternative_stream(tmp_path, monkeypatch, name):
    monkeypatch.setattr(randomness, "normal_matrix", _ziggurat_normals)
    assert _check_in_process(tmp_path, name) == []


@pytest.mark.parametrize("name, overrides", [
    ("coupled_moments", {"paths": 512}),
    ("fernique_tail", {"paths": 512}),
    ("fbm_exactness", {"paths": 2000}),
])
def test_checks_reject_a_broken_stream(tmp_path, monkeypatch, name, overrides):
    monkeypatch.setattr(randomness, "normal_matrix", _one_stream_for_all_paths)
    assert _check_in_process(tmp_path, name, **overrides)


def test_invocation_without_sources_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "fbm_exactness", "--seconds", "1"]) != 0
    assert not any(line.startswith("{") for line in capsys.readouterr().out.splitlines())


def test_result_line_is_the_contract_json(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    small = dataclasses.replace(WORKLOADS["fbm_exactness"], base={**WORKLOADS["fbm_exactness"].base, "paths": 300})
    monkeypatch.setitem(WORKLOADS, "fbm_exactness", small)
    assert run.main(["--workload", "fbm_exactness", "--seed", "3", "--seconds", "0.1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in run.benchmark_spec()["end_to_end"]}
