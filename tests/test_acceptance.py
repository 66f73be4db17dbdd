"""Acceptance criteria S1-S9, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
failure output) and then asserts. Tolerances are pinned here, not deferred
anywhere else. Negative controls are part of the criteria: models that
violate the hypotheses must fail the same diagnostics that the conforming
models pass.
"""

import json
import time

import numpy as np
import pytest

import mixedsde as mx
from mixedsde import (
    MomentTarget,
    TimeGrid,
    fbm_covariance_matrix,
    generate_fbm,
    model_zoo,
)
from mixedsde.cli import main as cli_main
from mixedsde.moments import grid_stability_tables


def _report(cid: str, ok: bool, detail: str) -> None:
    print(f"{cid} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"{cid}: {detail}"


def pure_driver_model():
    return model_zoo(
        "linear_mixed", drift_matrix=0.0, drift_offset=0.0, wiener_matrix=0.0,
        wiener_offset=0.0, rough_matrix=0.0, rough_offset=1.0, initial_value=0.0,
    )


def test_s1_fbm_exactness():
    start = time.monotonic()
    count = 10_000
    grid = TimeGrid(1.0, 32)
    worst = 0.0
    for hurst in (0.6, 0.75, 0.9):
        exact = fbm_covariance_matrix(grid, hurst)
        se = np.sqrt((exact**2 + np.outer(np.diag(exact), np.diag(exact))) / count)
        for method in ("cholesky", "circulant"):
            values = generate_fbm(grid, hurst, count, seed=2024, method=method).values[:, 1:, 0]
            sample = values.T @ values / count
            worst = max(worst, float((np.abs(sample - exact) / se).max()))
    elapsed = time.monotonic() - start
    _report(
        "S1",
        worst < 4.0 and elapsed < 60.0,
        f"fBm exactness: max |dev|/SE = {worst:.2f} < 4 over H in (0.6, 0.75, 0.9), "
        f"both methods, 1e4 paths; runtime {elapsed:.1f}s < 60s",
    )


def test_s2_fernique_tail():
    report = mx.fernique_tail_check(0.75, 0.65, TimeGrid(1.0, 2**10), 10_000, seed=5)
    ok = report.mode == "fit" and report.slope < 0.0 and report.r_squared > 0.9
    _report(
        "S2",
        ok,
        f"Fernique tail: log-survival vs x^2 slope = {report.slope:.3f} < 0, "
        f"R^2 = {report.r_squared:.4f} > 0.9 (H=0.75, mu=0.65, n=2^10, 1e4 paths)",
    )


def test_s3_young_machinery():
    # self-integral against the chain-rule oracle at dyadic level 12
    batch = generate_fbm(TimeGrid(1.0, 2**12), 0.75, 100, seed=11)
    result = mx.young_integrate(batch, batch, tol=1e-3)
    oracle = batch.values[:, -1, 0] ** 2 / 2.0
    worst_rel = float((np.abs(result.value - oracle) / np.abs(oracle)).max())
    all_converged = bool(result.converged.all())
    # one-sided Young-Love bound with the declared constant on 1000 pairs
    mu = 0.74
    grid = TimeGrid(1.0, 256)
    g_batch = generate_fbm(grid, 0.75, 1000, seed=41)
    h_batch = generate_fbm(grid, 0.75, 1000, seed=42)
    g_sup = np.abs(g_batch.values[:, :, 0]).max(axis=1)
    g_hol = mx.holder_seminorm_batch(g_batch.values, grid.dt, mu)
    h_hol = mx.holder_seminorm_batch(h_batch.values, grid.dt, mu)
    values = mx.young_integrate(g_batch, h_batch).value
    bounds = [mx.young_love_rhs(g_sup[i], g_hol[i], h_hol[i], 0.0, 1.0, mu, mu) for i in range(1000)]
    violations = int((np.abs(values) > bounds).sum())
    ok = worst_rel < 1e-3 and all_converged and violations == 0
    _report(
        "S3",
        ok,
        f"Young machinery: self-integral max rel err = {worst_rel:.2e} < 1e-3 at level 12 "
        f"(100 paths, all converged={all_converged}); Young-Love violations {violations}/1000",
    )


def test_s4_solver_against_closed_form():
    start = time.monotonic()
    rows = mx.geometric_convergence_study(
        model_zoo("geometric_mixed", initial_value=1.0, mu=0.1, sigma_w=0.2, sigma_b=0.3, hurst=0.75),
        [2**k for k in range(6, 13)], 1000, seed=42,
    )
    errors = [r.mean_abs_terminal_error for r in rows]
    monotone = all(b < 1.1 * a for a, b in zip(errors, errors[1:]))
    final_rel = rows[-1].mean_rel_terminal_error
    elapsed = time.monotonic() - start
    ok = monotone and final_rel < 0.01 and elapsed < 300.0
    _report(
        "S4",
        ok,
        f"Solver correctness: terminal error monotone over 2^6..2^12 (10% allowance): {monotone}; "
        f"relative error at 2^12 = {final_rel:.5f} < 1%; runtime {elapsed:.1f}s < 300s",
    )


LEVELS = [2**k for k in range(8, 13)]


def test_s5_finite_moments_rendering():
    tables = grid_stability_tables(
        model_zoo("linear_mixed"),
        [MomentTarget("sup", p=p) for p in (1.0, 2.0, 4.0)],
        LEVELS, 10_000, seed=101,
    )
    blowups = sum(e.blowup_count for t in tables for e in t.estimates)
    ratios = [r for t in tables for r in t.ratios]
    in_band = all(0.8 <= r <= 1.25 for r in ratios)
    # negative control: quadratic drift must blow up or escape the band
    (control,) = grid_stability_tables(
        model_zoo("quadratic_control"), [MomentTarget("sup", p=2.0)], [2**8, 2**10], 2000, seed=9
    )
    control_blowups = sum(e.blowup_count for e in control.estimates)
    control_fails = control_blowups > 0 or not all(0.8 <= r <= 1.25 for r in control.ratios)
    ok = blowups == 0 and in_band and control_fails
    _report(
        "S5",
        ok,
        f"Moment finiteness: linear_mixed p in (1,2,4), 1e4 paths: blowups={blowups}, "
        f"ratio range [{min(ratios):.3f}, {max(ratios):.3f}] in [0.8, 1.25]; "
        f"quadratic-drift control fails diagnostics: {control_fails} "
        f"(blowups={control_blowups})",
    )


def test_s6_exponential_moments_rendering():
    hurst = 0.75
    gamma = 0.9 * 4 * hurst / (2 * hurst + 1)
    (table,) = grid_stability_tables(
        model_zoo("bounded_trig", hurst=hurst),
        [MomentTarget("exp", c=1.0, gamma=gamma)],
        LEVELS, 10_000, seed=101,
    )
    finite = all(np.isfinite(e.estimate) for e in table.estimates)
    dominance = max(e.tail_dominance for e in table.estimates)
    in_band = all(0.8 <= r <= 1.25 for r in table.ratios)
    stable = not any(e.unstable for e in table.estimates)
    # contrast: gamma above the Gaussian exp-square boundary must flag unstable
    contrast_out = mx.solve_model(pure_driver_model(), TimeGrid(1.0, 2**10), 10_000, seed=13)
    contrast = mx.moment_estimate(contrast_out, MomentTarget("exp", c=1.0, gamma=3.9))
    ok = finite and dominance < 0.2 and in_band and stable and contrast.unstable
    _report(
        "S6",
        ok,
        f"Exp-moment finiteness: gamma={gamma:.3f} (0.9x admissible bound), c=1: finite={finite}, "
        f"tail dominance {dominance:.4f} < 0.2, ratios in band={in_band}; "
        f"gamma=3.9 contrast unstable={contrast.unstable} "
        f"(dominance {contrast.tail_dominance:.3f})",
    )


def test_s7_coupled_system_rendering():
    hurst = 0.75
    rho = 0.2
    bound = mx.coupled_growth_power_bound(hurst)
    assert bound == pytest.approx(0.3)
    price = model_zoo("stochvol", rho_power=rho, hurst=hurst)
    (table,) = grid_stability_tables(
        price, [MomentTarget("sup", p=2.0)], LEVELS, 10_000, seed=101
    )
    in_band = all(0.8 <= r <= 1.25 for r in table.ratios)
    # exploratory boundary artifact around the admissible exponent bound
    boundary = grid_stability_tables(
        price, [MomentTarget("exp", c=1.0, gamma=g) for g in (0.6, 1.0, 1.19, 1.4)], [2**9], 2000, seed=101
    )
    threshold = mx.exp_moment_exponent_bound(price.base.driver.holder_order)
    produced = sum(len(table.estimates) for table in boundary) == 4 and np.isfinite(threshold)
    blowups = sum(e.blowup_count for e in table.estimates)
    ok = 0.0 < rho < bound and blowups == 0 and in_band and produced
    _report(
        "S7",
        ok,
        f"Coupled system: stochvol rho={rho} in (0, {bound:.1f}); p=2 over 1e4 paths: "
        f"blowups={blowups}, ratio range [{min(table.ratios):.3f}, "
        f"{max(table.ratios):.3f}] in [0.8, 1.25]; boundary study produced={produced}",
    )


def test_s8_condition_validators():
    def sin_eval(t, x):
        return np.sin(x)[:, :, None]

    def sin_deriv(t, x):
        return np.cos(x)[:, :, None, None]

    sin_model = mx.ModelSpec(
        name="sin-c", initial_value=[0.0], horizon=1.0,
        drift=mx.CoefficientField("zero", lambda t, x: np.zeros_like(x)),
        wiener=None,
        rough=mx.CoefficientField("sin", sin_eval, sin_deriv),
        driver=mx.DriverSpec(0, 1, (0.75,)),
    )
    rep = mx.validate_assumptions(sin_model, "B", box_radius=2.0, samples=10_000, seed=2)
    constants = {c.condition: c.constant for c in rep.conditions}
    b1, b2 = constants["B1"], constants["B2"]
    sin_ok = 0.99 <= b1 <= 1.0 and 0.99 <= b2 <= 1.0

    def quad(t, x):
        return x * x

    planted = mx.ModelSpec(
        name="planted", initial_value=[0.0], horizon=1.0,
        drift=mx.CoefficientField("quad", quad),
        wiener=None,
        rough=mx.CoefficientField("sin", sin_eval, sin_deriv),
        driver=mx.DriverSpec(0, 1, (0.75,)),
        claimed_constants={"A1": 1.0},
    )
    flagged = mx.validate_assumptions(planted, "A", box_radius=10.0, samples=10_000, seed=6)
    a1 = {c.condition: c for c in flagged.conditions}["A1"]
    planted_ok = flagged.verdict == "violated" and a1.violated and abs(a1.witness["x"][0]) > 5.0
    ok = sin_ok and planted_ok
    _report(
        "S8",
        ok,
        f"Validators: sin bound estimate {b1:.4f} and derivative estimate {b2:.4f} in "
        f"[0.99, 1.0]; planted quadratic growth claim flagged with witness at "
        f"|x| = {abs(a1.witness['x'][0]):.2f}",
    )


def test_s9_reproducibility(tmp_path):
    config = tmp_path / "study.cfg"
    config.write_text(
        "model: linear_mixed\nstatistic: sup\np: [2]\nlevels: [256, 512]\n"
        "paths: 1000\nseed: 77\n"
    )
    runs = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / name
        code = cli_main(
            ["moments", "--config", str(config), "--out", str(out), "--workers", workers]
        )
        assert code == 0
        runs.append((out / "moments.csv").read_bytes())
    identical = runs[0] == runs[1] == runs[2]
    manifest = json.loads((tmp_path / "a" / "moments_manifest.json").read_text())
    _report(
        "S9",
        identical and "manifest_hash" in manifest,
        "Reproducibility: identical config+seed gives bit-identical CSVs across reruns "
        f"and worker counts (1, 1, 3): {identical}",
    )
