"""Smoke runs of the README quick start and of scripts/bench_summary.py: each must exit 0."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_bench_summary_pairs_parent_and_change_results(tmp_path):
    def result(side, i, rss):
        record = {
            "workload": "fernique_tail", "seed": 5, "failed": 0, "csv_sha256": "abc", "samples": {"runs": 3},
            "environment": {"python": "3", "numpy": "2", "scipy": "1", "nproc": 2, "workers": 2},
            "end_to_end": {"paths_per_s": 100.0 + i, "setup_s": 0.5, "peak_rss_mb": rss},
        }
        path = tmp_path / f"{side}-{i}.json"
        path.write_text(json.dumps(record))
        return str(path)

    def traced(side, i, seconds):
        record = {
            "workload": "fernique_tail", "seed": 5, "failed": 0, "csv_sha256": "abc",
            "per_layer": {"analysis.seminorm.s": seconds, "fbm.generate_fbm.s": 1.0},
            "self_s_by_layer": {"analysis": seconds, "fbm": 1.0},
        }
        path = tmp_path / f"{side}-traced-{i}.json"
        path.write_text(json.dumps(record))
        return str(path)

    parent = [result("parent", i, 300.0 + i) for i in range(4)] + [traced("parent", 0, 3.0)]
    change = [result("change", i, 100.0 + i) for i in range(4)] + [traced("change", i, 2.0 - i) for i in range(3)]
    out = tmp_path / "BENCH.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_summary.py"), "--out", str(out),
         "--parent", *parent, "--change", *change],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    summary = json.loads(out.read_text())["fernique_tail-seed5"]
    assert summary["parent"]["metrics"]["peak_rss_mb"]["median"] == 301.5
    assert summary["change"]["metrics"]["peak_rss_mb"]["q1"] == 100.75
    assert summary["change"]["invocations"] == 4 and summary["change"]["study_runs"] == 12
    assert summary["change_over_parent_median"]["peak_rss_mb"] == 101.5 / 301.5
    assert {name: claim["change_won"] for name, claim in summary["claim"].items()} == {
        "paths_per_s": 0, "setup_s": 0, "peak_rss_mb": 4}
    assert summary["change"]["files"] == [f"change-{i}.json" for i in range(4)]
    assert summary["parent"]["per_layer"]["medians"] == {"analysis.seminorm.s": 3.0, "fbm.generate_fbm.s": 1.0}
    assert summary["change"]["per_layer"]["medians"]["analysis.seminorm.s"] == 1.0
    assert summary["change"]["per_layer"]["ranges"]["analysis.seminorm.s"] == [0.0, 2.0]
    assert summary["change"]["per_layer"]["self_s_by_layer"] == {"analysis": 1.0, "fbm": 1.0}
    assert summary["change"]["per_layer"]["invocations"] == 3
    assert summary["change"]["per_layer"]["files"] == [f"change-traced-{i}.json" for i in range(3)]


def test_bench_summary_applies_the_claim_rule_to_pairs_in_time_order(tmp_path):
    def result(side, k, paths_per_s, rss):
        record = {
            "workload": "fernique_tail", "seed": 5, "failed": 0, "csv_sha256": "abc", "samples": {"runs": 1},
            "environment": {}, "end_to_end": {"paths_per_s": paths_per_s, "setup_s": 0.5, "peak_rss_mb": rss},
        }
        # change files in two directories: only their names sort in time order
        folder = tmp_path / (f"change-{k % 2}" if side == "change" else "parent")
        folder.mkdir(exist_ok=True)
        path = folder / f"fernique_tail-seed5-trace0-20261020T0{k}0000.json"
        path.write_text(json.dumps(record))
        return str(path)

    # the change loses pair 3 only; paired by full path it would lose 4 of 10 on paths_per_s
    parent = [result("parent", k, 100.0 + k, 300.0) for k in range(10)]
    change = [result("change", k, 100.0 + k + (-0.5 if k == 3 else 0.5), 301.0 if k == 3 else 290.0)
              for k in range(10)]
    out = tmp_path / "BENCH.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_summary.py"), "--out", str(out),
         "--parent", *parent[::-1], "--change", *change[::-1]],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    claim = json.loads(out.read_text())["fernique_tail-seed5"]["claim"]
    # 9 of 10 pairs won, but the medians differ by less than the parent's quartiles
    assert claim["paths_per_s"] == {
        "pairs": 10, "change_won": 9, "median_gap": 105.0 - 104.5, "parent_iqr": 106.75 - 102.25,
        "gap_exceeds_parent_iqr": False, "holds": False,
    }
    assert claim["peak_rss_mb"] == {
        "pairs": 10, "change_won": 9, "median_gap": 10.0, "parent_iqr": 0.0,
        "gap_exceeds_parent_iqr": True, "holds": True,
    }
    assert claim["setup_s"]["change_won"] == 0 and not claim["setup_s"]["holds"]


def test_bench_summary_records_the_summary_machines_dispatch_level(tmp_path):
    try:
        from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_features__

    result = tmp_path / "r.json"
    result.write_text(json.dumps({
        "workload": "fernique_tail", "seed": 5, "failed": 0, "csv_sha256": "abc", "samples": {"runs": 1},
        "environment": {}, "end_to_end": {"paths_per_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0},
    }))
    out = tmp_path / "BENCH.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_summary.py"), "--out", str(out),
         "--parent", str(result), "--change", str(result)],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    machine = json.loads(out.read_text())["summary_machine"]
    assert machine["numpy"] == np.__version__
    assert machine["cpu_baseline"] == list(__cpu_baseline__)
    assert machine["cpu_features_enabled"] == [
        name for name, on in __cpu_features__.items() if on and name.startswith(("AVX512", "AVX2"))
    ]


def test_bench_summary_reads_importtime_logs(tmp_path):
    def log(name, cli_us, extra):
        lines = ["import time: self [us] | cumulative | imported package",
                 "import time:       100 |        200 | site",
                 *extra,
                 f"import time:       900 | {cli_us:>10} | mixedsde.cli"]
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    special = ["import time:       700 |      30000 |     scipy.special._ufuncs",
               "import time:       500 |      31000 |   scipy.special", "import time:       500 |      31000 |   scipy"]
    result = tmp_path / "r.json"
    result.write_text(json.dumps({
        "workload": "fernique_tail", "seed": 5, "failed": 0, "csv_sha256": "abc", "samples": {"runs": 1},
        "environment": {}, "end_to_end": {"paths_per_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0},
    }))
    out = tmp_path / "BENCH.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_summary.py"), "--out", str(out),
         "--parent", str(result), "--change", str(result),
         "--parent-importtime", log("p1", 50000, special), log("p2", 70000, special),
         "--change-importtime", log("c1", 20000, ["import time:       400 |       2000 |   scipy"])],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    block = json.loads(out.read_text())["import_mixedsde_cli"]
    assert block["parent"]["mixedsde_cli_us"] == {"median": 60000.0, "values": [50000, 70000]}
    assert block["parent"]["top_level_total_us"]["values"] == [50200, 70200]
    assert block["parent"]["scipy_packages"] == ["scipy", "scipy.special"]
    assert block["change"]["scipy_packages"] == ["scipy"]
    assert block["change"]["files"] == ["c1"]
