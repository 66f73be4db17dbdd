"""Summarise paired benchmark result files into one committed BENCH_*.json.

Each ``perfbench/run.py --trace 0`` invocation writes one result file under
``.perfbench/results/``. Run the parent and the change alternately, each
from its own checkout, then pass both sets of files:

    python scripts/bench_summary.py --out BENCH_9.json \\
        --parent ../parent/.perfbench/results/*.json \\
        --change .perfbench/results/*.json

Per workload, seed and side, the summary holds the median and quartiles of each
end-to-end metric over the invocations, the invocation and study-run
counts, the CSV sha256, the environment, and the source file names.

Per workload, seed and metric, ``claim`` applies the rule for claiming a
gain. The k-th parent invocation and the k-th change invocation, each side
in the time order of its result-file names, form pair k. It records the
number of ``pairs``, ``change_won`` (pairs in which the change is better;
ties count for neither side), ``median_gap`` (the change's median minus the
parent's, signed so that a positive gap is better), ``parent_iqr`` (the
distance between the parent's quartiles), ``gap_exceeds_parent_iqr``, and
``holds``: the change won at least nine tenths of the pairs and the gap
exceeds the parent's interquartile range.

Result files of ``--trace 1`` invocations, passed in the same lists, are
folded into a ``per_layer`` block per side: the medians and the
[min, max] ranges of their ``per_layer`` metrics, and the medians of their
``self_s_by_layer`` times.

``summary_machine`` holds the numpy version and SIMD dispatch level (its
``__cpu_baseline__`` and enabled ``AVX512*``/``AVX2`` features) of the
machine that wrote the summary, which is not necessarily the one that ran
the invocations: several ufuncs give other last bits and other speeds
under AVX-512, AVX2 and baseline loops.

``--parent-importtime`` and ``--change-importtime`` take the stderr logs of
``python -X importtime -c "import mixedsde.cli"``, one file per run, and add
an ``import_mixedsde_cli`` block: per side, the cumulative microseconds of
the ``mixedsde.cli`` import and of all top-level imports of each run, and
which ``scipy`` subpackages were imported.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

# end-to-end metric -> +1 when higher is better, -1 when lower is better
METRICS = {"paths_per_s": 1, "setup_s": -1, "peak_rss_mb": -1}


def _medians(records: list[dict], field: str) -> dict:
    return {name: float(np.median([r[field][name] for r in records])) for name in records[0][field]}


def _ranges(records: list[dict], field: str) -> dict:
    return {name: [min(r[field][name] for r in records), max(r[field][name] for r in records)]
            for name in records[0][field]}


def _side(files: list[Path]) -> dict:
    untraced: dict[str, list[dict]] = {}
    traced: dict[str, list[dict]] = {}
    for path in sorted(files, key=lambda p: p.name):  # result-file names sort in time order
        record = json.loads(path.read_text())
        key = f"{record['workload']}-seed{record['seed']}"
        if "end_to_end" in record:
            untraced.setdefault(key, []).append({**record, "file": path.name})
        elif "per_layer" in record:
            traced.setdefault(key, []).append({**record, "file": path.name})
    out: dict[str, dict] = {}
    for workload, records in untraced.items():
        env = records[0]["environment"]
        metrics = {}
        for name in METRICS:
            values = [r["end_to_end"][name] for r in records]
            q1, median, q3 = np.percentile(values, [25, 50, 75])
            metrics[name] = {"median": median, "q1": q1, "q3": q3, "values": values}
        out[workload] = {
            "metrics": metrics,
            "invocations": len(records),
            "study_runs": sum(r["samples"]["runs"] for r in records),
            "failed_runs": sum(r["failed"] for r in records),
            "csv_sha256": sorted({r["csv_sha256"] for r in records}),
            "environment": {k: env.get(k) for k in ("python", "numpy", "scipy", "nproc", "workers",
                                                     "blas_threads", "cpu_model", "git_commit")},
            "files": [r["file"] for r in records],
        }
    for workload, records in traced.items():
        out.setdefault(workload, {})["per_layer"] = {
            "medians": _medians(records, "per_layer"),
            "ranges": _ranges(records, "per_layer"),
            "self_s_by_layer": _medians(records, "self_s_by_layer"),
            "invocations": len(records),
            "files": [r["file"] for r in records],
        }
    return out


def _claim(before: dict, after: dict, sign: int) -> dict:
    """The claim rule on one metric; ``sign`` is +1 when higher is better."""
    pairs = list(zip(before["values"], after["values"]))
    won = sum(sign * (b - a) > 0 for a, b in pairs)
    gap = sign * (after["median"] - before["median"])
    iqr = before["q3"] - before["q1"]
    exceeds = bool(gap > iqr)
    return {
        "pairs": len(pairs),
        "change_won": won,
        "median_gap": float(gap),
        "parent_iqr": float(iqr),
        "gap_exceeds_parent_iqr": exceeds,
        "holds": 10 * won >= 9 * len(pairs) and exceeds,
    }


def _importtime(files: list[Path]) -> dict:
    """Totals of ``-X importtime`` logs: lines are 'import time: self | cumulative | name'."""
    cli_us, total_us, scipy_packages = [], [], set()
    for path in sorted(files):
        rows = [line.split("|") for line in path.read_text().splitlines() if line.startswith("import time:")]
        rows = [(int(cumulative), name.rstrip()) for _, cumulative, name in rows[1:]]
        cli_us.append(next(us for us, name in rows if name.strip() == "mixedsde.cli"))
        total_us.append(sum(us for us, name in rows if not name.startswith("  ")))
        names = [name.strip() for _, name in rows]
        scipy_packages |= {".".join(name.split(".")[:2]) for name in names if name.partition(".")[0] == "scipy"}
    return {
        "mixedsde_cli_us": {"median": float(np.median(cli_us)), "values": cli_us},
        "top_level_total_us": {"median": float(np.median(total_us)), "values": total_us},
        "scipy_packages": sorted(scipy_packages),
        "files": [path.name for path in sorted(files)],
    }


def _summary_machine() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_features__
    return {
        "numpy": np.__version__,
        "cpu_baseline": list(__cpu_baseline__),
        "cpu_features_enabled": [
            name for name, on in __cpu_features__.items() if on and name.startswith(("AVX512", "AVX2"))
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--parent", nargs="+", required=True, type=Path)
    parser.add_argument("--change", nargs="+", required=True, type=Path)
    parser.add_argument("--parent-importtime", nargs="+", default=[], type=Path)
    parser.add_argument("--change-importtime", nargs="+", default=[], type=Path)
    args = parser.parse_args(argv)
    parent, change = _side(args.parent), _side(args.change)
    summary = {"summary_machine": _summary_machine()}
    for workload in sorted(parent.keys() & change.keys()):
        summary[workload] = {"parent": parent[workload], "change": change[workload]}
        if "metrics" not in parent[workload] or "metrics" not in change[workload]:
            continue  # traced files only: per-layer medians, nothing to pair
        before, after = parent[workload]["metrics"], change[workload]["metrics"]
        summary[workload]["change_over_parent_median"] = {
            name: after[name]["median"] / before[name]["median"] for name in METRICS
        }
        summary[workload]["claim"] = {name: _claim(before[name], after[name], sign) for name, sign in METRICS.items()}
    if args.parent_importtime and args.change_importtime:
        summary["import_mixedsde_cli"] = {
            "parent": _importtime(args.parent_importtime),
            "change": _importtime(args.change_importtime),
        }
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
