"""Experiment runner: every study as a reproducible command.

Configs are flat ``key: value`` text files: one key per line, ``#``
comments (a whole line, or after whitespace), and model parameters under
dotted ``model.<name>`` keys. A value is an int (``-3``), a float (``0.5``,
``.5``, ``1e-3``), a flat list of those (``[1, 2.5]``) or else a bare
string; quotes, braces, nested lists and empty values are errors.

Every run writes one CSV, whose columns are the keys of its rows, plus a
JSON manifest next to it; each CSV row carries the manifest's result hash,
which covers the command, the resolved config, the seed and the package
version - but not the worker count or output location, because results
are invariant to both. Identical config and seed therefore give
bit-identical CSVs at any worker count.

Exit codes: 0 success, 2 invalid config (message is line-addressed),
3 runtime estimation failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy  # noqa: F401  unused here; perfbench/child.py reads sys.modules['scipy'].__version__

from . import __version__, parallel
from .analysis import _check_exponent, holder_seminorm_batch
from .errors import ConfigError, DomainError, MixedSdeError
from .fbm import fbm_covariance_matrix, generate_fbm
from .grids import DriverSpec, TimeGrid, check_hurst
from .models import VALIDATOR_MIN_SAMPLES, CoupledModelSpec, model_zoo, validate_assumptions, zoo_defaults, ZOO_MODELS
from .moments import (
    FERNIQUE_MIN_PATHS,
    MomentTarget,
    _check_tail_order,
    _level_ratio,
    exp_moment_exponent_bound,
    fernique_tail_check,
    grid_stability_tables,
)
from .solver import GeometricParams, check_levels, geometric_convergence_study
from .young import young_integrate, young_love_constant, young_love_rhs


# --------------------------------------------------------------------------
# config parsing


@dataclass(frozen=True)
class _Key:
    name: str
    kind: str  # int | float | str | int_list | float_list
    required: bool = False
    default: object = None
    choices: tuple | None = None


_COMMON_KEYS = (
    _Key("command", "str"),
    _Key("seed", "int", required=True),
    _Key("out", "str", default="."),
    _Key("workers", "int", default=1),
)

_SCHEMAS: dict[str, tuple[_Key, ...]] = {
    "fbm": (
        _Key("hurst", "float_list", required=True),
        _Key("n", "int", required=True),
        _Key("horizon", "float", default=1.0),
        _Key("paths", "int", required=True),
        _Key("method", "str", default="both", choices=("both", "cholesky", "circulant", "auto")),
    ),
    "integrate": (
        _Key("hurst", "float", default=0.75),
        _Key("n", "int", required=True),
        _Key("horizon", "float", default=1.0),
        _Key("paths", "int", required=True),
        _Key("tol", "float", default=1e-3),
        _Key("holder_order", "float"),
    ),
    "solve": (
        _Key("mu", "float", default=0.1),
        _Key("sigma_w", "float", default=0.2),
        _Key("sigma_b", "float", default=0.3),
        _Key("s0", "float", default=1.0),
        _Key("hurst", "float", default=0.75),
        _Key("horizon", "float", default=1.0),
        _Key("levels", "int_list", required=True),
        _Key("paths", "int", required=True),
    ),
    "moments": (
        _Key("model", "str", required=True, choices=ZOO_MODELS),
        _Key("statistic", "str", required=True, choices=("sup", "exp")),
        _Key("p", "float_list"),
        _Key("c", "float"),
        _Key("gamma", "float_list"),
        _Key("levels", "int_list", required=True),
        _Key("paths", "int", required=True),
    ),
    "check-conditions": (
        _Key("model", "str", required=True, choices=ZOO_MODELS),
        _Key("set", "str", required=True, choices=("A", "B", "C")),
        _Key("radius", "float", default=10.0),
        _Key("samples", "int", default=10_000),
    ),
    "fernique": (
        _Key("hurst", "float", required=True),
        _Key("mu", "float", required=True),
        _Key("n", "int", required=True),
        _Key("horizon", "float", default=1.0),
        _Key("paths", "int", required=True),
    ),
    "boundary": (
        _Key("model", "str", required=True, choices=ZOO_MODELS),
        _Key("gamma", "float_list", required=True),
        _Key("c", "float", required=True),
        _Key("n", "int", required=True),
        _Key("paths", "int", required=True),
    ),
}

COMMANDS = tuple(_SCHEMAS)

_INT = re.compile(r"[-+]?[0-9]+")
_FLOAT = re.compile(r"[-+]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?")
_COMMENT = re.compile(r"\s#")


def _literal(text: str, in_list=False):
    """Int, float, bare string or, at top level, a flat ``[a, b]`` list of them."""
    if not text:
        raise ValueError("empty value")
    if text[0] == "[" and text[-1] == "]" and not in_list:
        inner = text[1:-1].strip()
        return [_literal(item.strip(), in_list=True) for item in inner.split(",")] if inner else []
    if text[0] in "\"'{[":
        raise ValueError(f"unsupported value {text!r}: strings are bare and lists are flat, as in [1, 2]")
    if _INT.fullmatch(text):
        return int(text)
    return float(text) if _FLOAT.fullmatch(text) else text


def parse_config_file(path: str) -> dict[str, tuple[object, int]]:
    """Flat key/value config; returns {key: (parsed value, line number)}."""
    entries: dict[str, tuple[object, int]] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", path=path)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ConfigError("expected 'key: value'", path=path, line=lineno)
        key, _, value_text = line.partition(":")
        key = key.strip()
        if not key:
            raise ConfigError("empty key", path=path, line=lineno)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r} (first on line {entries[key][1]})", path=path, line=lineno)
        try:
            value = _literal(_COMMENT.split(value_text, maxsplit=1)[0].strip())
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: {exc}", path=path, line=lineno)
        entries[key] = (value, lineno)
    return entries


def _coerce(key: _Key, value, path, line):
    def fail(message):
        raise ConfigError(f"key {key.name!r}: {message}", path=path, line=line)

    def scalar(kind, v):
        if kind == "int":
            if not isinstance(v, int):
                fail(f"expected an integer, got {v!r}")
            return v
        if kind == "float":
            if not isinstance(v, (int, float)):
                fail(f"expected a number, got {v!r}")
            return float(v)
        if kind == "str":
            if not isinstance(v, str):
                fail(f"expected a string, got {v!r}")
            return v
        fail(f"unhandled kind {kind}")

    if key.kind.endswith("_list"):
        base = key.kind[: -len("_list")]
        items = value if isinstance(value, list) else [value]
        out = [scalar(base, item) for item in items]
        if not out:
            fail("list must not be empty")
    else:
        out = scalar(key.kind, value)
    if key.choices is not None and out not in key.choices:
        fail(f"must be one of {list(key.choices)}, got {out!r}")
    return out


def _given(model: str, params: dict) -> str:
    listed = ", ".join(f"model.{k}: {v!r}" for k, v in params.items())
    return f"bad model parameters for {model!r} ({listed})"


def _check_model_params(model: str, params: dict, entries, path) -> None:
    """Type-check each ``model.*`` value on its own line, against the builder's default.

    An int default takes an integer; any other default takes a number or a
    flat list of numbers (a vector or matrix parameter). Values pass on as
    parsed, so an accepted config keeps its result hash.
    """
    defaults = zoo_defaults(model)
    for param, value in params.items():
        line = entries[f"model.{param}"][1]
        if param not in defaults:
            raise ConfigError(
                f"{_given(model, params)}: unknown parameter {param!r}; choose from {sorted(defaults)}",
                path=path, line=line,
            )
        if isinstance(defaults[param], int):
            ok, wanted = isinstance(value, int), "an integer"
        else:
            items = value if isinstance(value, list) else [value]
            ok = bool(items) and all(isinstance(v, (int, float)) for v in items)
            wanted = "a number or a flat list of numbers"
        if not ok:
            raise ConfigError(f"key 'model.{param}': expected {wanted}, got {value!r}", path=path, line=line)


def resolve_config(command: str, entries, path, overrides) -> dict:
    """Validate raw entries against the command schema, apply CLI overrides."""
    schema = {k.name: k for k in _COMMON_KEYS + _SCHEMAS[command]}
    allow_model_params = "model" in schema  # a command that names a zoo model takes its model.* keys
    config: dict = {"model_params": {}} if allow_model_params else {}
    for name, (value, line) in entries.items():
        if allow_model_params and name.startswith("model."):
            param = name[len("model."):]
            if not param:
                raise ConfigError("empty model parameter name", path=path, line=line)
            config["model_params"][param] = value
            continue
        if name not in schema:
            raise ConfigError(f"unknown key {name!r} for command {command!r}", path=path, line=line)
        config[name] = _coerce(schema[name], value, path, line)
    if config.get("command") not in (None, command):
        line = entries["command"][1]
        raise ConfigError(
            f"config is for command {config['command']!r}, invoked as {command!r}", path=path, line=line
        )
    config.pop("command", None)
    for flag in ("seed", "out", "workers"):
        if overrides.get(flag) is not None:
            config[flag] = overrides[flag]
    for k in schema.values():
        if k.name == "command":
            continue
        if k.name not in config:
            if k.required:
                raise ConfigError(f"missing required key {k.name!r}", path=path)
            if k.default is not None:
                config[k.name] = k.default
    if allow_model_params:
        _check_model_params(config["model"], config["model_params"], entries, path)
    if command == "moments":
        if config["statistic"] == "sup" and "p" not in config:
            raise ConfigError("statistic 'sup' needs key 'p'", path=path)
        if config["statistic"] == "exp" and ("c" not in config or "gamma" not in config):
            raise ConfigError("statistic 'exp' needs keys 'c' and 'gamma'", path=path)

    def check(ok, name, message):
        if not ok:
            from_file = name in entries and overrides.get(name) is None
            raise ConfigError(message, path=path, line=entries[name][1] if from_file else None)

    check(0 <= config["seed"] < 2**64, "seed", "seed must be a u64")
    check(config["workers"] >= 1, "workers", "workers must be >= 1")
    for name, low in (("paths", 1), ("n", 1), ("samples", VALIDATOR_MIN_SAMPLES)):
        if name in config:
            check(config[name] >= low, name, f"key {name!r}: must be >= {low}, got {config[name]}")
    for name in ("horizon", "radius", "tol", "c", "p", "gamma"):
        if name in config:
            values = config[name] if isinstance(config[name], list) else [config[name]]
            bad = next((v for v in values if not v > 0), None)
            check(bad is None, name, f"key {name!r}: must be positive, got {bad}")
    if command in ("integrate", "boundary"):
        check(not config["n"] & (config["n"] - 1), "n", "key 'n' must be a power of two")
    if command == "boundary":
        check(config["gamma"] == sorted(config["gamma"]), "gamma",
              f"key 'gamma': must be sorted ascending, got {config['gamma']}")

    def library_check(name, rule, *args):
        try:
            rule(*args)
        except DomainError as exc:
            check(False, name, f"key {name!r}: {exc}")

    if "levels" in config:
        library_check("levels", check_levels, config["levels"])
    if command in ("fbm", "integrate", "fernique"):
        for hurst in config["hurst"] if command == "fbm" else [config["hurst"]]:
            library_check("hurst", check_hurst, hurst)
    if command == "solve":
        library_check("hurst", DriverSpec, 1, 1, (config["hurst"],))
    if command == "integrate":
        mu = _integrate_order(config)
        name = "holder_order" if "holder_order" in config else "hurst"
        library_check(name, _check_exponent, mu)
        library_check(name, young_love_constant, mu, mu)
    if command == "fernique":
        library_check("mu", _check_tail_order, config["mu"])
        check(config["paths"] >= FERNIQUE_MIN_PATHS, "paths",
              f"key 'paths': must be >= {FERNIQUE_MIN_PATHS}, got {config['paths']}")
    return config


# --------------------------------------------------------------------------
# manifest and CSV plumbing


def _result_identity(command: str, config: dict) -> dict:
    determining = {
        k: v for k, v in config.items() if k not in ("out", "workers")
    }
    return {"command": command, "config": determining, "version": __version__}


def _manifest_hash(identity: dict) -> str:
    blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write_outputs(command: str, config: dict, rows: list[dict], out_dir: Path):
    identity = _result_identity(command, config)
    digest = _manifest_hash(identity)
    manifest = dict(identity)
    manifest["workers"] = config.get("workers", 1)
    manifest["manifest_hash"] = digest
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = command.replace("-", "_")
    manifest_path = out_dir / f"{stem}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    csv_path = out_dir / f"{stem}.csv"
    with open(csv_path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=[*rows[0], "manifest_hash"])
        writer.writeheader()
        for row in rows:
            row = {k: _csv_cell(v) for k, v in row.items()}
            row["manifest_hash"] = digest
            writer.writerow(row)
    return csv_path, manifest_path


def _csv_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


# --------------------------------------------------------------------------
# command implementations


def _run_fbm(config: dict) -> list[dict]:
    grid = TimeGrid(config["horizon"], config["n"])
    methods = ("cholesky", "circulant") if config["method"] == "both" else (config["method"],)
    rows = []
    paths, workers, seed = config["paths"], config["workers"], config["seed"]
    for hurst in config["hurst"]:
        exact = fbm_covariance_matrix(grid, hurst)
        se = np.sqrt((exact**2 + np.outer(np.diag(exact), np.diag(exact))) / paths)
        for method in methods:
            def job(lo, hi, hurst=hurst, method=method):
                v = generate_fbm(grid, hurst, hi - lo, seed, method, path_offset=lo).values[:, 1:, 0]
                return v.T @ v
            pieces = parallel.map_paths(job, paths, workers)
            sample = sum(pieces) / paths
            points = grid.points[1:]
            for i in range(grid.step_count):
                for j in range(i, grid.step_count):
                    dev = abs(sample[i, j] - exact[i, j])
                    rows.append({
                        "hurst": hurst,
                        "method": method,
                        "t_row": points[i],
                        "t_col": points[j],
                        "exact_cov": exact[i, j],
                        "sample_cov": sample[i, j],
                        "abs_deviation": dev,
                        "standard_error": se[i, j],
                        "dev_over_se": dev / se[i, j],
                    })
    return rows


def _integrate_order(config: dict) -> float:
    """Holder order of the integrate study: ``holder_order``, else just below ``hurst``."""
    mu = config.get("holder_order")
    return config["hurst"] - 0.01 if mu is None else mu


def _run_integrate(config: dict) -> list[dict]:
    hurst = config["hurst"]
    mu = _integrate_order(config)
    grid = TimeGrid(config["horizon"], config["n"])
    seed, paths, workers = config["seed"], config["paths"], config["workers"]
    width = config["horizon"]

    def job(lo, hi):
        batch = generate_fbm(grid, hurst, hi - lo, seed, path_offset=lo)
        sups = np.abs(batch.values[:, :, 0]).max(axis=1)
        hols = holder_seminorm_batch(batch.values, grid.dt, mu)
        out = []
        for i in range(hi - lo):
            z = batch.path(i)
            result = young_integrate(z, z, tol=config["tol"])
            oracle = float(z.values[-1, 0] ** 2 / 2.0)
            bound = young_love_rhs(sups[i], hols[i], hols[i], 0.0, width, mu, mu)
            out.append({
                "path": lo + i,
                "value": result.value,
                "oracle": oracle,
                "abs_error": abs(result.value - oracle),
                "rel_error": abs(result.value - oracle) / abs(oracle) if oracle else float("inf"),
                "converged": result.converged,
                "error_estimate": result.error_estimate,
                "young_love_bound": bound,
                "young_love_ok": abs(result.value) <= bound,
            })
        return out

    results = parallel.map_paths(job, paths, workers)
    return [row for piece in results for row in piece]


def _run_solve(config: dict) -> list[dict]:
    params = GeometricParams(
        initial_value=config["s0"],
        drift=config["mu"],
        wiener_vol=config["sigma_w"],
        rough_vol=config["sigma_b"],
    )
    study = geometric_convergence_study(
        params,
        config["hurst"],
        config["levels"],
        config["paths"],
        config["seed"],
        horizon=config["horizon"],
        workers=config["workers"],
    )
    errors = [row.mean_abs_terminal_error for row in study]
    ratios = (float("nan"), *(_level_ratio(a, b) for a, b in zip(errors, errors[1:])))
    return [{**asdict(row), "error_ratio_vs_prev": ratio} for row, ratio in zip(study, ratios)]


class _ModelParamsError(ConfigError):
    """The zoo builder refused the config's ``model`` and ``model.*`` entries."""


def _model_line(entries) -> int:
    """Line of the first ``model.*`` key, or of ``model:`` when there is none."""
    return next((line for key, (_, line) in entries.items() if key.startswith("model.")), entries["model"][1])


def _build_model(config: dict):
    params = config.get("model_params", {})
    try:
        return model_zoo(config["model"], **params)
    except (TypeError, ValueError) as exc:
        raise _ModelParamsError(f"{_given(config['model'], params)}: {exc}")


def _run_moments(config: dict) -> list[dict]:
    model = _build_model(config)
    if config["statistic"] == "sup":
        targets = [MomentTarget("sup", p=p) for p in config["p"]]
    else:
        targets = [MomentTarget("exp", c=config["c"], gamma=g) for g in config["gamma"]]
    tables = grid_stability_tables(
        model, targets, config["levels"], config["paths"], config["seed"],
        workers=config["workers"],
    )
    rows = []
    for table in tables:
        for (level, est), ratio in zip(table.rows, (float("nan"), *table.ratios)):
            fields = asdict(est)
            del fields["target"]
            rows.append({"statistic": table.target, "step_count": level, **fields, "ratio_vs_prev": ratio})
    return rows


def _run_check_conditions(config: dict) -> list[dict]:
    model = _build_model(config)
    set_id = config["set"]
    if isinstance(model, tuple):
        model = model[1] if set_id == "C" else model[0]
    if set_id == "C" and not isinstance(model, CoupledModelSpec):
        raise ConfigError(f"model {config['model']!r} has no coupled stage for set C")
    report = validate_assumptions(
        model, set_id, box_radius=config["radius"], samples=config["samples"], seed=config["seed"]
    )
    rows = []
    for cond in report.conditions:
        witness = {k: (v.tolist() if isinstance(v, np.ndarray) else float(v)) for k, v in cond.witness.items()}
        rows.append({
            "condition": cond.condition,
            "estimate": cond.constant,
            "raw_estimate": cond.raw_constant,
            "claimed": "" if cond.claimed is None else cond.claimed,
            "violated": cond.violated,
            "witness": json.dumps(witness, sort_keys=True),
            "verdict": report.verdict,
        })
    return rows


def _run_fernique(config: dict) -> list[dict]:
    report = fernique_tail_check(
        config["hurst"],
        config["mu"],
        TimeGrid(config["horizon"], config["n"]),
        config["paths"],
        config["seed"],
        workers=config["workers"],
    )
    return [asdict(report)]


def _run_boundary(config: dict) -> list[dict]:
    model = _build_model(config)
    gammas = config["gamma"]
    tables = grid_stability_tables(
        model, [MomentTarget("exp", c=config["c"], gamma=g) for g in gammas], [config["n"]],
        config["paths"], config["seed"], workers=config["workers"],
    )
    estimates = [table.estimates[0] for table in tables]
    mu = (model[0] if isinstance(model, tuple) else model).driver.holder_order
    threshold = exp_moment_exponent_bound(mu) if mu is not None else float("nan")
    first_unstable = next((g for g, est in zip(gammas, estimates) if est.unstable), "")
    rows = []
    for gamma, est in zip(gammas, estimates):
        rows.append({
            "gamma": gamma,
            "estimate": est.estimate,
            "standard_error": est.standard_error,
            "tail_dominance": est.tail_dominance,
            "overflow_count": est.overflow_count,
            "unstable": est.unstable,
            "threshold_gamma": threshold,
            "first_unstable_gamma": first_unstable,
        })
    return rows


_RUNNERS = {
    "fbm": _run_fbm,
    "integrate": _run_integrate,
    "solve": _run_solve,
    "moments": _run_moments,
    "check-conditions": _run_check_conditions,
    "fernique": _run_fernique,
    "boundary": _run_boundary,
}


# --------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixedsde",
        description="Reproducible studies for mixed Wiener/rough stochastic equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="flat key: value config file")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed (u64)")
        cmd.add_argument("--out", default=None, help="override the output directory")
        cmd.add_argument("--workers", type=int, default=None, help="worker pool size")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {"seed": args.seed, "out": args.out, "workers": args.workers}
    try:
        entries = parse_config_file(args.config)
        config = resolve_config(args.command, entries, args.config, overrides)
        try:
            rows = _RUNNERS[args.command](config)
        except _ModelParamsError as exc:
            raise ConfigError(str(exc), path=args.config, line=_model_line(entries)) from None
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MixedSdeError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    csv_path, manifest_path = _write_outputs(args.command, config, rows, Path(config["out"]))
    print(f"wrote {csv_path} and {manifest_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
