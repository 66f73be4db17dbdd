import dataclasses
import warnings

import numpy as np
import pytest

from mixedsde import (
    CoefficientField,
    CoupledModelSpec,
    DomainError,
    DriverSpec,
    ModelSpec,
    model_zoo,
    coupled_growth_power_bound,
    validate_assumptions,
)
from mixedsde.models import ZOO_MODELS


def zero_rough(dim=1):
    def evaluate(t, x):
        return np.zeros((len(x), dim, 1))

    def derivative(t, x):
        return np.zeros((len(x), dim, 1, dim))

    return CoefficientField("zero-rough", evaluate, derivative)


def constants(report):
    return {c.condition: c.constant for c in report.conditions}


def state_model(drift=None, wiener=None, rough=None, dim=1, claimed=None):
    m = 1 if wiener is not None else 0
    l = 1 if rough is not None else 0
    if l == 0:
        rough = zero_rough(dim)
        l = 1
    return ModelSpec(
        name="adhoc",
        initial_value=np.zeros(dim),
        horizon=1.0,
        drift=drift or CoefficientField("zero-drift", lambda t, x: np.zeros_like(x)),
        wiener=wiener,
        rough=rough,
        driver=DriverSpec(m, l, (0.75,) * l),
        claimed_constants=claimed or {},
    )


# ------------------------------------------------------------------ validators


def test_linear_growth_ratio_saturates_at_box_edge():
    # a(t,x) = x: the A1 ratio |x|/(1+|x|) climbs to R/(1+R) on the box
    drift = CoefficientField("identity", lambda t, x: x)
    model = state_model(drift=drift)
    report = validate_assumptions(model, "A", box_radius=10.0, samples=2000, seed=1)
    assert constants(report)["A1"] == pytest.approx(10.0 / 11.0, rel=1e-3)
    assert report.verdict == "no-claim"


def test_sin_coefficient_bound_and_derivative_constants():
    def c_eval(t, x):
        return np.sin(x)[:, :, None]

    def c_deriv(t, x):
        return np.cos(x)[:, :, None, None]

    model = state_model(
        rough=CoefficientField("sin", c_eval, c_deriv)
    )
    report = validate_assumptions(model, "B", box_radius=2.0, samples=2000, seed=2)
    assert 0.99 <= constants(report)["B1"] <= 1.0
    assert 0.99 <= constants(report)["B2"] <= 1.0


def test_quadratic_diffusion_lipschitz_constant_is_two_r():
    # b(t,x) = x^2 on the box R=2: sup |x1 + x2| = 4
    def b_eval(t, x):
        return (x * x)[:, :, None]

    model = state_model(wiener=CoefficientField("square", b_eval))
    report = validate_assumptions(model, "A", box_radius=2.0, samples=2000, seed=3)
    assert constants(report)["A3"] == pytest.approx(4.0, rel=0.02)
    assert constants(report)["A3"] <= 4.0 + 1e-9


def test_jacobian_of_a_field_without_derivative_is_refused_naming_it():
    rough = CoefficientField("sin", lambda t, x: np.sin(x)[:, :, None])
    with pytest.raises(DomainError, match="field 'sin' has no derivative"):
        rough.jacobian(0.0, np.zeros((2, 1)))
    with pytest.raises(DomainError, match="field 'sin' has no derivative"):
        validate_assumptions(state_model(rough=rough), "A", box_radius=2.0, samples=1000, seed=4)


def test_every_zoo_model_passes_its_claimed_set():
    checks = [
        (model_zoo("linear_mixed"), "A"),
        (model_zoo("bounded_trig"), "B"),
        (model_zoo("geometric_mixed"), "A"),
        (model_zoo("stochvol"), "C"),
    ]
    for model, set_id in checks:
        report = validate_assumptions(model, set_id, box_radius=10.0, samples=10_000, seed=5)
        assert report.verdict == "no-violation-found", (
            model.name,
            [(c.condition, c.constant, c.claimed) for c in report.conditions if c.violated],
        )


def test_validator_raw_maximum_is_monotone_in_samples():
    model = model_zoo("bounded_trig")
    previous = None
    for samples in (1000, 2000, 4000, 8000):
        report = validate_assumptions(model, "B", samples=samples, seed=77)
        raw = {c.condition: c.raw_constant for c in report.conditions}
        if previous is not None:
            for key, value in raw.items():
                assert value >= previous[key] - 1e-12
        previous = raw


def test_planted_violation_is_flagged_with_witness():
    drift = CoefficientField("quad", lambda t, x: x * x)
    model = state_model(drift=drift, claimed={"A1": 1.0})
    report = validate_assumptions(model, "A", box_radius=10.0, samples=2000, seed=6)
    assert report.verdict == "violated"
    bad = {c.condition: c for c in report.conditions}["A1"]
    assert bad.violated
    assert bad.constant > 5.0
    assert abs(bad.witness["x"][0]) > 5.0  # witness sits at large |x|


def test_non_finite_evaluator_is_reported_with_witness():
    def exploding(t, x):
        with np.errstate(over="ignore"):
            return np.exp(x * 50.0)

    model = state_model(drift=CoefficientField("explode", exploding))
    report = validate_assumptions(model, "A", box_radius=10.0, samples=1000, seed=7)
    bad = {c.condition: c for c in report.conditions}["A1"]
    assert bad.violated
    assert bad.constant == float("inf")
    assert "x" in bad.witness
    # The pass-1 maximum over the finite candidates is kept beside the inf constant.
    assert np.isfinite(bad.raw_constant)
    assert report.verdict == "violated"


def test_validator_rejects_low_sample_budget_and_wrong_arity():
    model = model_zoo("linear_mixed")
    with pytest.raises(DomainError):
        validate_assumptions(model, "A", samples=10)
    with pytest.raises(DomainError):
        validate_assumptions(model, "C", samples=2000)
    with pytest.raises(DomainError):
        validate_assumptions(model_zoo("stochvol"), "B", samples=2000)


@pytest.mark.parametrize("name", ["stochvol", "bounded_trig"])
def test_validator_names_an_unknown_set_before_the_model_kind(name):
    with pytest.raises(DomainError, match="unknown assumption set 'D'"):
        validate_assumptions(model_zoo(name), "D", samples=1000)


@pytest.mark.parametrize("rates, fastest", [([0.2, -0.5], 0.5), (-0.3, 0.3)])
def test_bounded_trig_time_constants_take_the_fastest_rough_rate(rates, fastest):
    model = model_zoo("bounded_trig", rough_dim=2, rough_rate=rates)
    assert model.claimed_constants["B4-cx"] == pytest.approx(0.5 * fastest * np.sqrt(2) * 1.0 ** 0.75)
    report = validate_assumptions(model, "B", samples=2000, seed=6)
    assert report.verdict == "no-violation-found"


@pytest.mark.parametrize("radius", [0.0, -2.0, float("nan")])
def test_validator_rejects_a_box_without_size(radius):
    with pytest.raises(DomainError, match="box_radius must be positive"):
        validate_assumptions(model_zoo("bounded_trig"), "B", box_radius=radius, samples=1000)


# ------------------------------------------------------------------- the zoo


def test_zoo_rejects_unknown_name():
    with pytest.raises(DomainError):
        model_zoo("heston")


def test_geometric_zero_vol_is_constant_model():
    model = model_zoo("geometric_mixed", mu=0.0, sigma_w=0.0, sigma_b=0.0, initial_value=1.0)
    x = np.array([[2.0], [3.0]])
    assert np.all(model.drift(0.3, x) == 0.0)
    assert np.all(model.wiener(0.3, x) == 0.0)
    assert np.all(model.rough(0.3, x) == 0.0)


def test_linear_mixed_zero_matrices_reduce_to_constant_coefficients():
    model = model_zoo(
        "linear_mixed", drift_matrix=0.0, wiener_matrix=0.0, rough_matrix=0.0,
        drift_offset=0.5, wiener_offset=0.25, rough_offset=0.125,
    )
    x = np.array([[1.0], [-7.0]])
    np.testing.assert_allclose(model.drift(0.1, x), 0.5)
    np.testing.assert_allclose(model.wiener(0.1, x), 0.25)
    np.testing.assert_allclose(model.rough(0.1, x), 0.125)


def test_stochvol_pair_wiring():
    price = model_zoo("stochvol", rho_power=0.2)
    assert isinstance(price, CoupledModelSpec)
    assert price.base.state_dim == 2
    assert price.declared_rho == 0.2
    assert not price.share_drivers
    # price coefficients are linear in y
    x = np.array([[0.1, 0.4], [0.2, -1.0]])
    y = np.array([[2.0], [3.0]])
    doubled = price.rough(0.0, x, 2 * y)
    np.testing.assert_allclose(doubled, 2 * price.rough(0.0, x, y))


def test_malliavin_linearized_shares_drivers_and_is_linear():
    sens = model_zoo("malliavin_linearized", mu=0.1, sigma_w=0.2, sigma_b=0.3)
    base = sens.base
    assert sens.share_drivers
    assert sens.driver == base.driver
    x = np.array([[1.5]])
    y = np.array([[4.0]])
    np.testing.assert_allclose(sens.drift(0.0, x, y), 0.1 * y)
    np.testing.assert_allclose(sens.wiener(0.0, x, y)[:, :, 0], 0.2 * y)
    np.testing.assert_allclose(sens.rough(0.0, x, y)[:, :, 0], 0.3 * y)


def test_malliavin_sensitivity_fields_are_the_base_jacobians_applied_to_y():
    mu, sigma_w, sigma_b = -0.37, 0.61, 1.3
    sens = model_zoo("malliavin_linearized", mu=mu, sigma_w=sigma_w, sigma_b=sigma_b)
    base = sens.base
    rng = np.random.default_rng(5)
    t, x, y = 0.4, rng.normal(size=(6, 1)), rng.normal(size=(6, 1))
    # the drift field carries no analytic derivative; its Jacobian is [[mu]]
    np.testing.assert_array_equal(sens.drift(t, x, y), y @ np.array([[mu]]).T)
    for fld, base_fld in ((sens.wiener, base.wiener), (sens.rough, base.rough)):
        applied = np.einsum("pdce,pe->pdc", base_fld.jacobian(t, x), y)
        np.testing.assert_array_equal(fld(t, x, y), applied)
        np.testing.assert_array_equal(fld.jacobian(t, x, y), base_fld.jacobian(t, x))
    assert (base.wiener(t, x)[:, 0, 0] == sigma_w * x[:, 0]).all()
    assert (base.rough(t, x)[:, 0, 0] == sigma_b * x[:, 0]).all()


def test_rho_outside_admissible_range_warns_not_errors():
    bound = coupled_growth_power_bound(0.74)
    with pytest.warns(UserWarning, match="admissible range"):
        model_zoo("stochvol", rho_power=round(bound + 0.05, 3))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model_zoo("stochvol", rho_power=0.2)  # inside the range: silent


def test_rho_cap_is_hard_at_two_thirds():
    with pytest.raises(DomainError):
        model_zoo("stochvol", rho_power=0.7)


def test_model_spec_validation():
    with pytest.raises(DomainError):
        ModelSpec(
            name="bad",
            initial_value=[np.nan],
            horizon=1.0,
            drift=CoefficientField("d", lambda t, x: x),
            wiener=None,
            rough=zero_rough(),
            driver=DriverSpec(0, 1, (0.75,)),
        )
    with pytest.raises(DomainError):
        # beta outside (1 - mu, 1/2)
        ModelSpec(
            name="bad-beta",
            initial_value=[0.0],
            horizon=1.0,
            drift=CoefficientField("d", lambda t, x: x),
            wiener=None,
            rough=zero_rough(),
            driver=DriverSpec(0, 1, (0.75,), holder_order=0.74),
            holder_beta=0.1,
        )


@pytest.mark.parametrize("stage", ["primary", "coupled"])
def test_both_stage_specs_run_the_same_stage_checks(stage):
    price = model_zoo("stochvol")
    spec = price.base if stage == "primary" else price
    bad = {
        "initial value": {"initial_value": np.full(spec.state_dim, np.inf)},
        "2-D initial value": {"initial_value": np.zeros((1, spec.state_dim))},
        "empty initial value": {"initial_value": np.zeros(0)},
        "wiener": {"wiener": None},
        "rough": {"rough": None},
        "holder beta": {"holder_beta": 5.0},
    }
    if stage == "primary":  # a coupled stage's horizon is its base's
        bad.update({"horizon": {"horizon": -1.0}, "nan horizon": {"horizon": float("nan")}})
    for label, change in bad.items():
        with pytest.raises(DomainError):
            dataclasses.replace(spec, **change)
            pytest.fail(f"accepted a bad {label}")


@pytest.mark.parametrize("name", ZOO_MODELS)
def test_state_dim_is_the_initial_value_length_on_every_stage(name):
    spec = model_zoo(name)
    for stage in (spec, spec.base) if isinstance(spec, CoupledModelSpec) else (spec,):
        assert stage.state_dim == len(stage.initial_value)
        assert "state_dim" not in {f.name for f in dataclasses.fields(stage)}
        with pytest.raises(TypeError):
            dataclasses.replace(stage, state_dim=stage.state_dim)


@pytest.mark.parametrize("name", ["bounded_trig", "stochvol"])
def test_zoo_rejects_a_negative_horizon_without_warning(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="horizon must be positive"):
            model_zoo(name, horizon=-1)


def test_probe_catches_shape_bugs():
    broken = ModelSpec(
        name="broken",
        initial_value=[0.0, 0.0],
        horizon=1.0,
        drift=CoefficientField("d", lambda t, x: x[:, :1]),  # wrong width
        wiener=None,
        rough=zero_rough(2),
        driver=DriverSpec(0, 1, (0.75,)),
    )
    with pytest.raises(DomainError):
        broken.probe()
