"""mixedsde benchmark: three CLI studies end to end, and a traced run per layer.

    python3 perfbench/run.py --workload coupled_moments --seed 101 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all               # each workload on its default seed
    python3 perfbench/run.py --workload all --seed 7      # all three again on a second seed

BENCHMARK.json gates ``coupled_moments`` and ``fernique_tail``;
``fbm_exactness`` runs by name or with ``all`` but is not gated, because on a
shared 2-vCPU host its median moved by about 30% between invocations.

Every study run is a fresh ``python3 perfbench/child.py`` process that calls
``mixedsde.cli`` on a config generated from the workload seed. Runs repeat
until ``--seconds`` have passed; each is checked for correctness and the
reported timings are medians over the runs. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` alternates untraced and
traced runs and reports the per-layer metrics plus ``trace_overhead``.
Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A result file
with the environment and every run's raw numbers is written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, config_text, read_rows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
# Set-up-only runs: this many at the start, then one before a study run
# whenever probes have used less than PROBE_SHARE of the window so far, so
# set-up samples span the whole window.
SETUP_PROBES = 2
PROBE_SHARE = 0.15
HARD_CAP_S = 170.0  # an invocation stops starting runs, and kills a run, at this age
# BLAS runs single-threaded so that a study's ``workers`` is its only
# parallelism. OpenBLAS's default spinning threads oversubscribe a 2-core
# machine: fbm_exactness ran about 25% slower and less steadily.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def run_child(workload, config: dict, run_dir: Path, *, trace=False, setup_only=False, timeout=HARD_CAP_S) -> dict:
    """Run one study (or only its set-up) in a fresh process; return its record."""
    run_dir.mkdir(parents=True)
    cfg_path = run_dir / "study.cfg"
    cfg_path.write_text(config_text(config, str(run_dir / "out")))
    timing_path = run_dir / "timing.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--command", workload.command,
           "--config", str(cfg_path), "--timing", str(timing_path), "--src", str(SRC)]
    if trace:
        cmd += ["--spans", str(run_dir / "spans.npz")]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(SRC), **CHILD_ENV)
    with open(run_dir / "stdout.txt", "wb") as out, open(run_dir / "stderr.txt", "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {"run": run_dir.name, "traced": trace, "exit_code": proc.returncode, "problems": []}
    if proc.returncode != 0:
        tail = (run_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-3:]
        record["problems"].append(f"exit code {proc.returncode}: {' | '.join(tail)}")
        return record
    timing = json.loads(timing_path.read_text())
    record["setup_s"] = (timing["t_imported"] - t_spawn) + (timing["t_parsed"] - timing["t_parse"])
    record["versions"] = {k: timing[k] for k in ("python", "numpy", "scipy")}
    if setup_only:
        return record
    record["main_s"] = timing["t_main_end"] - timing["t_main"]
    record["peak_rss_mb"] = timing["peak_rss_kb"] / 1024.0
    csv_path = run_dir / "out" / f"{workload.command.replace('-', '_')}.csv"
    if not csv_path.is_file():
        record["problems"].append(f"no CSV at {csv_path.name}")
        return record
    data = csv_path.read_bytes()
    record["csv_sha256"] = hashlib.sha256(data).hexdigest()
    record["csv_bytes"] = len(data)
    rows = read_rows(csv_path)
    record["csv_rows"] = len(rows)
    record["problems"] += workload.check(config, rows)
    if trace:
        import tracer

        record["layers"], record["self_s_by_layer"] = tracer.layer_metrics(tracer.load(run_dir / "spans.npz"))
    return record


def _environment(workload, seed: int, config: dict, versions: dict) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu_model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                             cpu_model)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    return {
        **versions,
        "blas_threads": CHILD_ENV["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "workload": workload.name,
        "workers": config["workers"],
        "paths": config["paths"],
        "seed": seed,
        "git_commit": commit,
    }


def bench_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds``; return its summary and raw records."""
    born = time.perf_counter()
    config = workload.config(seed)
    work = WORK / "work" / f"{workload.name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)

    def child(name, **kwargs):
        timeout = HARD_CAP_S - (time.perf_counter() - born)
        return run_child(workload, config, work / name, timeout=timeout, **kwargs)

    try:
        warmup = child("warmup", setup_only=True)  # compiles bytecode, fills the file cache
        start = time.perf_counter()
        probes = [child(f"probe{i}", setup_only=True) for i in range(SETUP_PROBES)]
        probe_s = time.perf_counter() - start
        runs, longest = [], 0.0
        # Start a run only while it is expected to end inside the window;
        # a traced invocation makes at least one untraced and one traced run.
        while not runs or (trace and len(runs) < 2) or (
            time.perf_counter() - start + longest <= seconds
            and time.perf_counter() - born + 2 * longest < HARD_CAP_S
        ):
            began = time.perf_counter()
            if probe_s < PROBE_SHARE * (began - start):
                probes.append(child(f"probe{len(probes)}", setup_only=True))
                probe_s += time.perf_counter() - began
            runs.append(child(f"run{len(runs)}", trace=trace and len(runs) % 2 == 1))
            longest = max(longest, time.perf_counter() - began)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = next((r.get("csv_sha256") for r in runs if not r["traced"] and not r["problems"]), None)
    for r in runs:
        if "csv_sha256" in r and reference and r["csv_sha256"] != reference:
            r["problems"].append("CSV bytes differ from the first untraced run")
    good = [r for r in runs if not r["problems"]]
    untraced = [r for r in good if not r["traced"]]
    setup_problems = [p for r in [warmup] + probes for p in r["problems"]]
    summary = {
        "workload": workload.name,
        "seed": seed,
        "config": config,
        "attempted": len(runs),
        "failed": len(runs) - len(good),
        "correct": len(good) == len(runs) and not setup_problems,
        "setup_problems": setup_problems,
        "csv_sha256": reference,
        "environment": _environment(workload, seed, config, warmup.get("versions", {})),
    }
    if trace:
        summary["per_layer"], summary["self_s_by_layer"] = _layer_summary(good, untraced)
    else:
        summary["end_to_end"] = {
            "paths_per_s": _median([config["paths"] / r["main_s"] for r in untraced]),
            "setup_s": _median([r["setup_s"] for r in probes + untraced if "setup_s" in r]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
        }
    summary["fail_ratio"] = summary["failed"] / summary["attempted"]
    summary["samples"] = {"runs": len(untraced), "traced_runs": len(good) - len(untraced),
                          "setup_samples": len(probes) + len(untraced)}
    summary["runs"] = [warmup] + probes + runs
    return summary


def _layer_summary(good: list, untraced: list) -> tuple[dict, dict]:
    traced = [r for r in good if r["traced"]]
    untraced_main = _median([r["main_s"] for r in untraced])
    for r in traced:
        r["layers"].update(
            {"cli.csv_rows": r["csv_rows"], "cli.csv_bytes": r["csv_bytes"],
             "trace_overhead": r["main_s"] / untraced_main if untraced_main else 0.0})
    names = [m["name"] for m in benchmark_spec()["per_layer"]]
    layers = {name: _median([r["layers"][name] for r in traced]) for name in names}
    by_layer = {layer: _median([r["self_s_by_layer"][layer] for r in traced])
                for layer in (traced[0]["self_s_by_layer"] if traced else {})}
    by_layer["sum"] = sum(by_layer.values())
    by_layer["untraced_main_s"] = untraced_main
    return layers, by_layer


def _metric_block(summary: dict, trace: bool) -> dict:
    spec = benchmark_spec()
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    values = summary["per_layer"] if trace else summary["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in entries}


def _print_summary(summary: dict, metrics: dict, trace: bool) -> None:
    env, samples = summary["environment"], summary["samples"]
    print(f"workload {summary['workload']}  seed {summary['seed']}  paths {env['paths']}  "
          f"workers {env['workers']}  nproc {env['nproc']}  commit {env['git_commit'][:12]}")
    print(f"  runs: {samples['runs']} untraced, {samples['traced_runs']} traced, "
          f"{samples['setup_samples']} set-up samples (timings are medians)")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    if trace and summary["self_s_by_layer"]:
        by_layer = summary["self_s_by_layer"]
        print("  self seconds by layer: " + ", ".join(
            f"{k} {v:.3f}" for k, v in by_layer.items() if k not in ("sum", "untraced_main_s")))
        print(f"  layer self times sum to {by_layer['sum']:.3f} s; untraced run median "
              f"{by_layer['untraced_main_s']:.3f} s")
    print(f"  fail_ratio {summary['fail_ratio']:.4g} ({summary['failed']}/{summary['attempted']} runs)")
    for r in summary["runs"]:
        for problem in r["problems"]:
            print(f"  FAILED {r['run']}: {problem}")
    print(f"  csv sha256 {summary['csv_sha256']}")


def _write_result(summary: dict, trace: bool) -> Path:
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = WORK / "results" / f"{summary['workload']}-seed{summary['seed']}-trace{int(trace)}-{stamp}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=1, default=str) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own config seed)")
    parser.add_argument("--seconds", type=float, help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through run_child so the running study is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "mixedsde" / "cli.py").is_file():
        print(f"benchmark: no mixedsde source under {SRC}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    seconds = benchmark_spec()["run_seconds"] if args.seconds is None else args.seconds
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        workload = WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        summary = bench_workload(workload, seed, seconds, trace)
        metrics = _metric_block(summary, trace)
        _print_summary(summary, metrics, trace)
        print(f"  result file {os.path.relpath(_write_result(summary, trace), ROOT)}")
        results.append((summary, metrics))
    if len(results) == 1:
        metrics = results[0][1]
    else:
        metrics = {f"{s['workload']}.{k}": v for s, block in results for k, v in block.items()}
    print(json.dumps({
        "correct": all(s["correct"] for s, _ in results),
        "attempted": sum(s["attempted"] for s, _ in results),
        "failed": sum(s["failed"] for s, _ in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
