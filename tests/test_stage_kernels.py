"""The zoo's stage kernels against the fields they were built from.

``bounded_trig`` and the ``stochvol`` price stage step by kernels that
compute a step's state-free factors once per block. Their arithmetic
differs from evaluating the fields (``field_kernel``) by rounding only:
these tests bound that difference per step and along a long path, check
that the solver calls no field per step for them, and that a kernel is
dropped when a spec is rebuilt with other fields.
"""

from dataclasses import replace

import numpy as np
import pytest

from mixedsde import CoefficientField, CoupledModelSpec, TimeGrid, euler_mixed, model_zoo, stage_drivers
from mixedsde.models import field_kernel
from mixedsde.solver import euler_coupled

STEPS, PATHS = 16, 200


def _increments(rng, dt, columns):
    """Driver increments, or None for a driver with no columns, as the Euler loop passes them."""
    return rng.standard_normal((STEPS, PATHS, columns)) * np.sqrt(dt) if columns else None


def _term_magnitudes(model, ts, dt, dw, dz, xs, states, j):
    """Per component: |a| dt + sum_c |b_c dW_c| + sum_c |c_c dZ_c| at step j."""
    args = (ts[j], states[j]) if xs is None else (ts[j], xs[j], states[j])
    total = np.abs(model.drift(*args)) * dt
    for fld, inc in ((model.wiener, dw), (model.rough, dz)):
        if fld is not None:
            total += np.einsum("pdc,pc->pd", np.abs(fld(*args)), np.abs(inc[j]))
    return total


def _assert_kernel_matches_fields(model, ts, dt, dw, dz, xs, states):
    kernel, fields = model.kernel, field_kernel(model)
    assert kernel is not None
    prepared = kernel.prepare(ts, dt, dw, dz, xs)
    reference = fields.prepare(ts, dt, dw, dz, xs)
    for j in range(STEPS):
        got = kernel.increment(prepared, j, states[j])
        want = fields.increment(reference, j, states[j])
        scale = _term_magnitudes(model, ts, dt, dw, dz, xs, states, j)
        assert got.shape == want.shape
        assert (np.abs(got - want) <= 1e-13 * scale).all()


# A rate may also be given per driver column. A rough_dim of 0 drops the
# rough block, and a wiener_rate of None the Wiener block.
@pytest.mark.parametrize("rough_dim, wiener_rate", [(1, 0.3), (2, np.array([0.3, 1.1])), (0, 0.3), (2, None)])
def test_trig_kernel_increments_match_the_fields(rough_dim, wiener_rate):
    wiener_dim = 0 if wiener_rate is None else 2
    rates = {} if wiener_rate is None else {"wiener_rate": wiener_rate}
    model = model_zoo("bounded_trig", state_dim=2, wiener_dim=wiener_dim, rough_dim=rough_dim, **rates)
    rng = np.random.default_rng(rough_dim)
    dt = 1.0 / 256
    ts = np.sort(rng.uniform(0.0, 1.0, STEPS))
    states = rng.uniform(-10.0, 10.0, (STEPS, PATHS, 2))
    dw, dz = _increments(rng, dt, wiener_dim), _increments(rng, dt, rough_dim)
    _assert_kernel_matches_fields(model, ts, dt, dw, dz, None, states)


def test_trig_kernel_increments_match_the_fields_with_one_rough_rate_per_column():
    model = model_zoo("bounded_trig", state_dim=2, wiener_dim=1, rough_dim=2, rough_rate=[0.2, -1.3])
    rng = np.random.default_rng(7)
    dt = 1.0 / 256
    ts = np.sort(rng.uniform(0.0, 1.0, STEPS))
    states = rng.uniform(-10.0, 10.0, (STEPS, PATHS, 2))
    dw, dz = _increments(rng, dt, 1), _increments(rng, dt, 2)
    _assert_kernel_matches_fields(model, ts, dt, dw, dz, None, states)


def test_price_kernel_increments_match_the_fields():
    price = model_zoo("stochvol", rho_power=0.25)
    rng = np.random.default_rng(5)
    dt = 1.0 / 256
    ts = np.sort(rng.uniform(0.0, 1.0, STEPS))
    xs = rng.uniform(-10.0, 10.0, (STEPS, PATHS, 2))
    states = rng.uniform(-5.0, 5.0, (STEPS, PATHS, 1))
    dw, dz = _increments(rng, dt, 1), _increments(rng, dt, 1)
    _assert_kernel_matches_fields(price, ts, dt, dw, dz, xs, states)


def _sups(out):
    return np.abs(out.paths.values).max(axis=1)


def _without_kernel(model):
    """The same spec stepping by its fields: a rebuilt spec carries no kernel."""
    rebuilt = replace(model, name=model.name)
    assert rebuilt.kernel is None
    return rebuilt


def test_kernel_paths_keep_the_field_sup_over_4096_steps():
    price = model_zoo("stochvol")
    vol = price.base
    grid = TimeGrid(1.0, 4096)
    w, z, w_y, z_y = stage_drivers(price, grid, 32, 31, 0)
    base = euler_mixed(vol, grid, w, z)
    base_fields = euler_mixed(_without_kernel(vol), grid, w, z)
    np.testing.assert_allclose(_sups(base), _sups(base_fields), rtol=1e-12, atol=0)
    out = euler_coupled(price, grid, base.paths, w_y, z_y)
    out_fields = euler_coupled(_without_kernel(price), grid, base.paths, w_y, z_y)
    assert out.blowup_count == out_fields.blowup_count == 0
    np.testing.assert_allclose(_sups(out), _sups(out_fields), rtol=1e-12, atol=0)


def _field_calls(monkeypatch, run):
    calls = []
    original = CoefficientField.__call__

    def counted(self, *args):
        calls.append(self.name)
        return original(self, *args)

    monkeypatch.setattr(CoefficientField, "__call__", counted)
    run()
    monkeypatch.setattr(CoefficientField, "__call__", original)
    return len(calls)


@pytest.mark.parametrize("name", ["bounded_trig", "stochvol"])
def test_kernel_models_call_no_field_per_step(monkeypatch, name):
    model = model_zoo(name, **({"wiener_dim": 2} if name == "bounded_trig" else {}))
    model_y = model if isinstance(model, CoupledModelSpec) else None
    model_x = model if model_y is None else model.base

    def calls_at(n):
        grid = TimeGrid(1.0, n)
        w, z, w_y, z_y = stage_drivers(model, grid, 4, n, 0)
        base = euler_mixed(model_x, grid, w, z)
        mixed = _field_calls(monkeypatch, lambda: euler_mixed(model_x, grid, w, z))
        if model_y is None:
            return mixed, 0
        return mixed, _field_calls(monkeypatch, lambda: euler_coupled(model_y, grid, base.paths, w_y, z_y))

    # Only ``probe`` calls the fields: once each, whatever the step count.
    fields = sum(f is not None for f in (model_x.drift, model_x.wiener, model_x.rough))
    assert calls_at(64) == calls_at(1024) == (fields, 0)


def test_only_the_trig_and_price_stages_carry_a_kernel():
    price = model_zoo("stochvol")
    vol = price.base
    sensitivity = model_zoo("malliavin_linearized")
    base = sensitivity.base
    assert model_zoo("bounded_trig").kernel is not None
    assert vol.kernel is not None and price.kernel is not None
    for spec in (model_zoo("linear_mixed"), model_zoo("geometric_mixed"), base, sensitivity):
        assert spec.kernel is None


def test_trig_kernel_matches_the_fields_with_one_drift_rate_per_component():
    model = model_zoo("bounded_trig", state_dim=2, drift_rate=[0.5, 3.0])
    rng = np.random.default_rng(11)
    dt = 1.0 / 256
    ts = np.sort(rng.uniform(0.0, 1.0, STEPS))
    states = rng.uniform(-10.0, 10.0, (STEPS, PATHS, 2))
    dw, dz = _increments(rng, dt, 1), _increments(rng, dt, 1)
    _assert_kernel_matches_fields(model, ts, dt, dw, dz, None, states)


def test_a_spec_rebuilt_with_other_fields_drops_its_kernel():
    price = model_zoo("stochvol")
    vol = price.base
    zero = CoefficientField("zero", lambda t, x, y: np.zeros_like(y))
    block = CoefficientField("zero", lambda t, x, y: np.zeros((len(y), 1, 1)))
    for changes in ({"drift": zero}, {"wiener": block}, {"rough": block}):
        assert replace(price, **changes).kernel is None
    drift = CoefficientField("zero", lambda t, x: np.zeros_like(x))
    assert replace(vol, drift=drift).kernel is None
