"""The three benchmark workloads: config generation and output checks.

Each workload is one ``mixedsde`` study as a user would run it. Its config
is generated from the workload seed alone (the seed becomes the config's
``seed:`` key), so the same seed always gives the same inputs. The checks
accept any valid random stream with overwhelming probability and reject a
broken one; they never compare bits, which the CSV sha256 records instead.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

# Largest |sample - exact| / SE over the 3,168 covariance entries of
# fbm_exactness. Each ratio is close to |N(0, 1)|; a two-sided 6-sigma
# exceedance has probability 2e-9 per entry, so even a Bonferroni bound
# over all entries leaves a false failure rate below 1e-5 per run.
FBM_MAX_DEV_OVER_SE = 6.0
# Band for consecutive-level ratios of the coupled sup moment (same band
# as acceptance test S7).
RATIO_BAND = (0.8, 1.25)
# Floor on the coefficient of variation SE * sqrt(samples) / estimate of the
# coupled sup moment. A valid stream gives about 0.9 at every level; paths
# that repeat one stream give 0.
MIN_SAMPLE_CV = 0.25


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    default_seed: int
    base: dict
    check: Callable[[dict, list[dict]], list[str]]

    def config(self, seed: int, **overrides) -> dict:
        """The study config for ``seed``; overrides serve the tiny self-tests."""
        cfg = dict(self.base)
        cfg.update(overrides)
        cfg["seed"] = int(seed)
        return cfg


def config_text(config: dict, out_dir: str) -> str:
    """Render a config as the flat ``key: value`` file the CLI reads."""
    lines = []
    for key, value in config.items():
        if isinstance(value, (list, tuple)):
            value = "[" + ", ".join(str(v) for v in value) + "]"
        lines.append(f"{key}: {value}")
    lines.append(f"out: {out_dir}")
    return "\n".join(lines) + "\n"


def read_rows(path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _check_coupled(config: dict, rows: list[dict]) -> list[str]:
    problems = []
    levels = list(config["levels"])
    if len(rows) != len(levels):
        problems.append(f"expected {len(levels)} rows, got {len(rows)}")
    for i, row in enumerate(rows):
        if int(row["blowup_count"]) != 0:
            problems.append(f"row {i}: blowup_count {row['blowup_count']}")
        if int(row["sample_count"]) != config["paths"]:
            problems.append(f"row {i}: sample_count {row['sample_count']} != paths {config['paths']}")
        estimate = float(row["estimate"])
        if not (math.isfinite(estimate) and estimate > 0):
            problems.append(f"row {i}: estimate {estimate}")
            continue
        cv = float(row["standard_error"]) * math.sqrt(int(row["sample_count"])) / estimate
        if not cv >= MIN_SAMPLE_CV:
            problems.append(f"row {i}: sample coefficient of variation {cv:.3g} < {MIN_SAMPLE_CV}")
        if i > 0:
            ratio = float(row["ratio_vs_prev"])
            if not RATIO_BAND[0] <= ratio <= RATIO_BAND[1]:
                problems.append(f"row {i}: ratio_vs_prev {ratio} outside {list(RATIO_BAND)}")
    return problems


def _check_fernique(config: dict, rows: list[dict]) -> list[str]:
    if len(rows) != 1:
        return [f"expected 1 row, got {len(rows)}"]
    row = rows[0]
    problems = []
    if row["mode"] != "fit":
        problems.append(f"mode {row['mode']!r} != 'fit'")
    if not float(row["slope"]) < 0:
        problems.append(f"slope {row['slope']} is not negative")
    if not float(row["r_squared"]) > 0.9:
        problems.append(f"r_squared {row['r_squared']} <= 0.9")
    if int(row["paths"]) != config["paths"] or int(row["step_count"]) != config["n"]:
        problems.append(f"paths/step_count {row['paths']}/{row['step_count']} do not match the config")
    return problems


def _fbm_exact_cov(t: float, s: float, hurst: float) -> float:
    return 0.5 * (t ** (2 * hurst) + s ** (2 * hurst) - abs(t - s) ** (2 * hurst))


def _check_fbm(config: dict, rows: list[dict]) -> list[str]:
    n = config["n"]
    methods = 2 if config["method"] == "both" else 1
    expected = len(config["hurst"]) * methods * n * (n + 1) // 2
    problems = []
    if len(rows) != expected:
        problems.append(f"expected {expected} rows, got {len(rows)}")
    worst = 0.0
    for i, row in enumerate(rows):
        exact = _fbm_exact_cov(float(row["t_row"]), float(row["t_col"]), float(row["hurst"]))
        if not math.isclose(float(row["exact_cov"]), exact, rel_tol=1e-9, abs_tol=1e-15):
            problems.append(f"row {i}: exact_cov {row['exact_cov']} != {exact}")
            break
        ratio = float(row["dev_over_se"])
        if not math.isfinite(ratio):
            problems.append(f"row {i}: dev_over_se {ratio}")
            break
        worst = max(worst, ratio)
    if worst >= FBM_MAX_DEV_OVER_SE:
        problems.append(f"max dev_over_se {worst:.3f} >= {FBM_MAX_DEV_OVER_SE}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="coupled_moments",
            command="moments",
            default_seed=101,
            base={
                "model": "stochvol",
                "model.rho_power": 0.2,
                "statistic": "sup",
                "p": [2],
                "levels": [256, 512, 1024, 2048, 4096],
                "paths": 4096,
                "workers": 2,
            },
            check=_check_coupled,
        ),
        Workload(
            name="fernique_tail",
            command="fernique",
            default_seed=5,
            base={"hurst": 0.75, "mu": 0.65, "n": 1024, "paths": 4096, "workers": 2},
            check=_check_fernique,
        ),
        Workload(
            name="fbm_exactness",
            command="fbm",
            default_seed=2024,
            base={"hurst": [0.6, 0.75, 0.9], "n": 32, "method": "both", "paths": 40000, "workers": 1},
            check=_check_fbm,
        ),
    )
}
