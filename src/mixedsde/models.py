"""Coefficient fields, the model zoo, and numerical assumption validators.

A coefficient field evaluates vectorized over a batch of states at one
time: ``evaluate(t, x)`` on a primary stage, ``evaluate(t, x, y)`` on a
coupled one. Drift fields return (batch, d); diffusion fields return
(batch, d, columns) with one column per driver component.

The Euler scheme takes each step from a stage kernel (``StageKernel``).
Any spec can evaluate its fields at every step (``field_kernel``); the
``bounded_trig`` and ``stochvol`` builders also attach a kernel that
computes the state-free factors of a step once per block of steps.

Validators estimate the defining constant of each condition in a set by
Monte Carlo maximization over the time horizon and a state box, refined by
local search around the best sample. Finite sampling can only falsify a
claimed constant, never certify it; the verdict wording reflects that.
"""

from __future__ import annotations

import inspect
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import randomness as rnd
from .errors import DomainError
from .grids import DriverSpec

__all__ = [
    "CoefficientField",
    "ModelSpec",
    "CoupledModelSpec",
    "StageKernel",
    "field_kernel",
    "ConditionEstimate",
    "AssumptionReport",
    "validate_assumptions",
    "model_zoo",
    "zoo_defaults",
    "coupled_growth_power_bound",
    "ZOO_MODELS",
]


# --------------------------------------------------------------------------
# coefficient fields and model specs


@dataclass(frozen=True)
class CoefficientField:
    """One evaluatable coefficient of a mixed equation: ``(name, evaluate, derivative)``.

    A field declares no dims: calls pass their stage's arguments through, and
    the stage's ``state_dim`` and ``driver`` fix the output shape, which
    ``ModelSpec.probe`` checks. ``derivative`` is the state Jacobian (w.r.t. x
    on a primary stage, w.r.t. y on a coupled one). The validators
    differentiate only a stage's rough field, so only a rough field needs
    one; ``jacobian`` refuses a field built without it.
    """

    name: str
    evaluate: Callable[..., np.ndarray]
    derivative: Callable[..., np.ndarray] | None = None

    def __call__(self, *args) -> np.ndarray:
        return np.asarray(self.evaluate(*args), dtype=float)

    def jacobian(self, *args) -> np.ndarray:
        """State Jacobian from ``derivative``; a field without one is refused."""
        if self.derivative is None:
            raise DomainError(f"field {self.name!r} has no derivative to take a Jacobian from")
        return np.asarray(self.derivative(*args), dtype=float)


class StageKernel(NamedTuple):
    """One stage's Euler increment, split by what it reads.

    ``prepare(ts, dt, dw, dz, xs)`` runs once per block of steps: ``ts``
    holds the block's left-point times, ``dw`` and ``dz`` its (steps, paths,
    columns) driver increments or None, and ``xs`` a coupled stage's
    (steps, paths, base.state_dim) base states or None. The next block overwrites
    ``dw`` and ``dz``; ``xs`` is a read-only view of the primary stage's
    output, so ``prepare`` must not write it. It computes every factor that
    does not read the stage's own state. ``increment(prepared, j, state)``
    returns step j's increment as a new array. ``xs`` and ``state`` are
    component-major: each state component is a contiguous row of paths.

    A spec's ``kernel`` is set only by the zoo builder that made its fields,
    and ``dataclasses.replace`` never copies it, so a kernel cannot outlive
    the fields it was built from; a spec without one uses ``field_kernel``.
    """

    prepare: Callable
    increment: Callable


def field_kernel(spec) -> StageKernel:
    """The kernel of any spec: evaluate each field at every step.

    The increment is ``drift * dt`` plus one ``einsum`` per diffusion
    block. A field's output is never written into, so a field may return
    its input array.
    """
    drift, wiener, rough = spec.drift, spec.wiener, spec.rough

    def prepare(ts, dt, dw, dz, xs):
        return ts, dt, dw, dz, xs

    def increment(prepared, j, state):
        ts, dt, dw, dz, xs = prepared
        t = float(ts[j])
        args = (t, state) if xs is None else (t, xs[j], state)
        step = drift(*args) * dt
        if wiener is not None:
            step += np.einsum("pdc,pc->pd", wiener(*args), dw[j])
        if rough is not None:
            step += np.einsum("pdc,pc->pd", rough(*args), dz[j])
        return step

    return StageKernel(prepare, increment)


def _with_kernel(spec, kernel: StageKernel):
    object.__setattr__(spec, "kernel", kernel)
    return spec


def _check_stage(spec) -> None:
    """Checks shared by both stage specs; stores the initial value as a vector."""
    x0 = np.atleast_1d(np.asarray(spec.initial_value, dtype=float))
    if x0.ndim != 1 or not len(x0) or not np.isfinite(x0).all():
        raise DomainError(f"initial value must be a finite, non-empty vector, got {x0}")
    object.__setattr__(spec, "initial_value", x0)
    if not spec.horizon > 0:
        raise DomainError("horizon must be positive")
    if (spec.wiener is None) != (spec.driver.wiener_dim == 0):
        raise DomainError("wiener coefficient and wiener_dim must agree")
    if (spec.rough is None) != (spec.driver.rough_dim == 0):
        raise DomainError("rough coefficient and rough_dim must agree")
    if spec.holder_beta is not None and spec.driver.rough_dim > 0:
        mu = spec.driver.holder_order
        if not (1 - mu) < spec.holder_beta < 0.5:
            raise DomainError(
                f"time-Holder exponent beta must lie in (1-mu, 1/2) = "
                f"({1 - mu:.3f}, 0.5), got {spec.holder_beta}"
            )


@dataclass(frozen=True)
class ModelSpec:
    """A mixed equation: drift a, Wiener block b, rough block c, and drivers."""

    name: str
    initial_value: np.ndarray
    horizon: float
    drift: CoefficientField
    wiener: CoefficientField | None
    rough: CoefficientField | None
    driver: DriverSpec
    claimed_constants: Mapping[str, float] = field(default_factory=dict)
    holder_beta: float | None = None
    kernel: StageKernel | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_stage(self)

    @property
    def state_dim(self) -> int:
        return len(self.initial_value)

    def probe(self) -> None:
        """Evaluate every field at (0, x0) and check output shapes."""
        x = np.repeat(self.initial_value[None, :], 2, axis=0)
        got = self.drift(0.0, x)
        if got.shape != (2, self.state_dim):
            raise DomainError(f"drift returned shape {got.shape}, expected (2, {self.state_dim})")
        for fld, cols in ((self.wiener, self.driver.wiener_dim), (self.rough, self.driver.rough_dim)):
            if fld is None:
                continue
            got = fld(0.0, x)
            if got.shape != (2, self.state_dim, cols):
                raise DomainError(
                    f"{fld.name} returned shape {got.shape}, expected (2, {self.state_dim}, {cols})"
                )


def coupled_growth_power_bound(mu: float) -> float:
    """Admissible growth-power bound 2*mu*(2*mu - 1)/(2*mu + 1) for coupled runs."""
    return 2 * mu * (2 * mu - 1) / (2 * mu + 1)


@dataclass(frozen=True)
class CoupledModelSpec:
    """Second-stage equation whose coefficients read the state of ``base``.

    ``base`` is the primary stage, solved first; with ``share_drivers`` this
    stage steps on the base's driver batches, so both declare one driver.
    Both stages are solved on one grid, so ``horizon`` is the base's. As on
    a primary stage, ``state_dim`` is the length of ``initial_value``.
    """

    name: str
    base: ModelSpec
    initial_value: np.ndarray
    drift: CoefficientField
    wiener: CoefficientField | None
    rough: CoefficientField | None
    driver: DriverSpec
    share_drivers: bool = False
    declared_rho: float = 0.0
    claimed_constants: Mapping[str, float] = field(default_factory=dict)
    holder_beta: float | None = None
    kernel: StageKernel | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_stage(self)
        if self.share_drivers and self.driver != self.base.driver:
            raise DomainError("shared drivers require identical driver specs on both stages")
        if not 0.0 <= self.declared_rho < 2.0 / 3.0:
            raise DomainError(f"growth power rho must lie in [0, 2/3), got {self.declared_rho}")
        if self.driver.rough_dim > 0:
            # rho = 0 only strengthens the growth conditions; warn above the bound.
            bound = coupled_growth_power_bound(self.driver.holder_order)
            if not 0.0 <= self.declared_rho < bound:
                warnings.warn(
                    f"declared rho={self.declared_rho} is outside the admissible range "
                    f"(0, {bound:.4f}) for holder order {self.driver.holder_order}; "
                    "moment finiteness is not covered there",
                    stacklevel=2,
                )

    @property
    def state_dim(self) -> int:
        return len(self.initial_value)

    @property
    def horizon(self) -> float:
        return self.base.horizon


# --------------------------------------------------------------------------
# assumption validators


@dataclass(frozen=True)
class ConditionEstimate:
    """Maximized defining ratio of one condition, with its witness point."""

    condition: str
    constant: float
    raw_constant: float
    claimed: float | None
    violated: bool
    witness: dict


@dataclass(frozen=True)
class AssumptionReport:
    conditions: tuple[ConditionEstimate, ...]

    @property
    def verdict(self) -> str:
        """``violated``, else ``no-claim`` when no condition has a claimed constant to test."""
        if any(c.violated for c in self.conditions):
            return "violated"
        if all(c.claimed is None for c in self.conditions):
            return "no-claim"
        return "no-violation-found"


def _row_norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm for vectors, operator (spectral) norm for matrices."""
    if v.ndim == 2:
        return np.linalg.norm(v, axis=1)
    if v.ndim == 4:  # Jacobian of a diffusion block: stack output columns
        v = v.reshape(v.shape[0], v.shape[1] * v.shape[2], v.shape[3])
    return np.linalg.svd(v, compute_uv=False)[:, 0]


def _pair_ratio(numerator: np.ndarray, separation: np.ndarray) -> np.ndarray:
    """Difference-quotient candidates; coincident pairs carry no information."""
    out = np.full(len(numerator), -np.inf)
    ok = separation > 0
    out[ok] = numerator[ok] / separation[ok]
    return out


def _box_samples(gen, count: int, dim: int, radius: float) -> np.ndarray:
    """Uniform box samples; row i depends only on draw i (prefix-stable)."""
    return radius * (2.0 * gen.random((count, dim)) - 1.0)


def _partner_samples(gen, base: np.ndarray, radius: float) -> np.ndarray:
    """Pair partners: even rows independent, odd rows perturb their base row.

    Lipschitz-type suprema are often attained by nearby pairs; the odd rows
    place partners at log-uniform distances from the base points. Row i
    still depends only on draw i and base row i, so estimates stay monotone
    in the sample count.
    """
    count, dim = base.shape
    u = gen.random((count, dim + 1))
    pts = radius * (2.0 * u[:, :dim] - 1.0)
    scale = radius * 10.0 ** (-3.0 * u[1::2, dim])  # log-uniform in [R/1000, R]
    pts[1::2] = np.clip(
        base[1::2] + scale[:, None] * (2.0 * u[1::2, :dim] - 1.0), -radius, radius
    )
    return pts


def _norm(fld, *args):
    """Norm of fld(*args) per row; fld is a field, a field's ``jacobian`` or None (absent)."""
    if fld is None:
        return np.zeros(len(args[1]))
    return _row_norm(fld(*args))


def _diff(fld, a, b):
    """Norm of fld(*a) - fld(*b) per row; a and b are argument tuples."""
    if fld is None:
        return np.zeros(len(a[1]))
    return _row_norm(fld(*a) - fld(*b))


def _time_beta(model) -> float:
    """A stage's time-Holder beta: its own, else the midpoint of (1-mu, 1/2), else 0.25 with no mu."""
    if model.holder_beta is not None:
        return model.holder_beta
    mu = model.driver.holder_order
    return 0.75 - 0.5 * mu if mu is not None else 0.25


def _conditions(model, set_id: str):
    """(condition id, sample names, ratio) for every condition of a set.

    A ratio takes its samples by name: times ``t, s`` (``t > s``) and state
    batches ``x, x1, x2`` of the primary stage or ``y, y1, y2`` of the
    coupled one.
    """
    m = model
    jac = None if m.rough is None else m.rough.jacobian
    beta = _time_beta(m)
    norm = lambda v: np.linalg.norm(v, axis=1)
    if set_id in ("A", "B"):
        growth = lambda t, x: _norm(m.drift, t, x) + _norm(m.wiener, t, x) + _norm(m.rough, t, x)
        if set_id == "A":
            bound = lambda t, x: growth(t, x) / (1.0 + norm(x))
            holder = lambda t, s, x: _diff(m.rough, (t, x), (s, x)) / (abs(t - s) ** beta * (1.0 + norm(x)))
        else:
            bound = growth
            holder = lambda t, s, x: _diff(m.rough, (t, x), (s, x)) / abs(t - s) ** beta
        return [
            (f"{set_id}1", ("t", "x"), bound),
            (f"{set_id}2", ("t", "x"), lambda t, x: _norm(jac, t, x)),
            (f"{set_id}3", ("t", "x1", "x2"), lambda t, x1, x2: _pair_ratio(
                _diff(m.drift, (t, x1), (t, x2)) + _diff(m.wiener, (t, x1), (t, x2))
                + _diff(jac, (t, x1), (t, x2)),
                norm(x1 - x2))),
            (f"{set_id}4-c", ("t", "s", "x"), holder),
            (f"{set_id}4-cx", ("t", "s", "x"), lambda t, s, x:
                _diff(jac, (t, x), (s, x)) / abs(t - s) ** beta),
        ]
    rho = m.declared_rho
    xfac = lambda x: 1.0 + norm(x) ** rho
    yfac = lambda y: 1.0 + norm(y)
    return [
        ("C1", ("t", "x", "y"), lambda t, x, y:
            (_norm(m.drift, t, x, y) + _norm(m.rough, t, x, y)) / (xfac(x) * yfac(y))),
        ("C2", ("t", "x", "y"), lambda t, x, y: _norm(m.wiener, t, x, y) / yfac(y)),
        ("C3", ("t", "x", "y"), lambda t, x, y: _norm(jac, t, x, y) / xfac(x)),
        ("C4", ("t", "x", "y1", "y2"), lambda t, x, y1, y2: _pair_ratio(
            _diff(m.drift, (t, x, y1), (t, x, y2)) + _diff(m.wiener, (t, x, y1), (t, x, y2))
            + _diff(jac, (t, x, y1), (t, x, y2)),
            norm(y1 - y2))),
        ("C5", ("t", "x1", "x2", "y"), lambda t, x1, x2, y: _pair_ratio(
            _diff(m.rough, (t, x1, y), (t, x2, y)), norm(x1 - x2) * yfac(y))),
        ("C6-c", ("t", "s", "x", "y"), lambda t, s, x, y: _diff(m.rough, (t, x, y), (s, x, y))
            / (abs(t - s) ** beta * xfac(x) * yfac(y))),
        ("C6-cy", ("t", "s", "x", "y"), lambda t, s, x, y: _diff(jac, (t, x, y), (s, x, y))
            / (abs(t - s) ** beta * yfac(y))),
    ]


VALIDATOR_MIN_SAMPLES = 1000
_STATE_NAMES = ("x", "x1", "x2", "y", "y1", "y2")
_TIME_SAMPLES = 33
_REFINE_ROUNDS = 4
_REFINE_POINTS = 48


def validate_assumptions(
    model,
    set_id: str,
    box_radius: float = 10.0,
    samples: int = 10_000,
    seed: int = 0,
) -> AssumptionReport:
    """Estimate the defining constants of an assumption set on a state box.

    Monte Carlo maximization over [0, T] x box(R) (times share a fixed grid,
    states are prefix-stable draws so estimates are monotone in ``samples``),
    refined by shrinking local search around the best sample. A condition is
    flagged violated only when its claimed constant is exceeded by more than
    a factor 1.01, or when an evaluator returns a non-finite value.
    """
    if samples < VALIDATOR_MIN_SAMPLES:
        raise DomainError(f"validators need at least {VALIDATOR_MIN_SAMPLES} samples, got {samples}")
    if not box_radius > 0:
        raise DomainError(f"box_radius must be positive, got {box_radius}")
    set_id = set_id.upper()
    if set_id not in ("A", "B", "C"):
        raise DomainError(f"unknown assumption set {set_id!r}")
    coupled = set_id == "C"
    if coupled and not isinstance(model, CoupledModelSpec):
        raise DomainError("set C applies to coupled models")
    if not coupled and isinstance(model, CoupledModelSpec):
        raise DomainError(f"set {set_id} applies to single-stage models")

    conditions = _conditions(model, set_id)
    ts = np.linspace(0.0, model.horizon, _TIME_SAMPLES)
    per_t = max(8, -(-samples // _TIME_SAMPLES))
    xdim = model.base.state_dim if coupled else model.state_dim

    def sampler(component):
        return rnd.path_stream(seed, 0, rnd.stream_tag(rnd.VALIDATOR, component))

    xs = _box_samples(sampler(0), per_t, xdim, box_radius)
    pool = {"x": xs, "x1": xs, "x2": _partner_samples(sampler(1), xs, box_radius)}
    if coupled:
        ys = _box_samples(sampler(2), per_t, model.state_dim, box_radius)
        pool.update(y=ys, y1=ys, y2=_partner_samples(sampler(3), ys, box_radius))
    refine_gen = sampler(9)

    estimates = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for cond_id, names, ratio in conditions:
            state_names = [k for k in _STATE_NAMES if k in names]
            best, witness = -np.inf, None
            non_finite_witness = None

            def consider(times, states):
                nonlocal best, witness, non_finite_witness
                cands = np.asarray(ratio(**times, **states), dtype=float)
                pick = lambda i: {**times, **{k: v[i].copy() for k, v in states.items()}}
                # -inf marks an uninformative candidate (coincident pair);
                # NaN or +inf means the evaluator itself misbehaved.
                bad = np.isnan(cands) | np.isposinf(cands)
                if bad.any() and non_finite_witness is None:
                    non_finite_witness = pick(int(np.argmax(bad)))
                usable = np.where(bad, -np.inf, cands)
                i = int(np.argmax(usable))
                if usable[i] > best:
                    best, witness = float(usable[i]), pick(i)

            # pass 1: Monte Carlo sampling over the shared time grid
            if "s" in names:
                times = [
                    {"t": ts[jt], "s": ts[it]} for it in range(len(ts)) for jt in range(it + 1, len(ts))
                ]
            else:
                times = [{"t": t} for t in ts]
            for time in times:
                consider(time, {k: pool[k] for k in state_names})
            raw_best = best

            # pass 2: shrinking local search around the witness
            if witness is not None and np.isfinite(best):
                for round_idx in range(_REFINE_ROUNDS):
                    radius = box_radius * 0.25 ** (round_idx + 1)
                    local = {}
                    for key in state_names:
                        center = witness[key]
                        pts = center[None, :] + radius * (
                            2.0 * refine_gen.random((_REFINE_POINTS, len(center))) - 1.0
                        )
                        local[key] = np.clip(pts, -box_radius, box_radius)
                    consider({k: witness[k] for k in ("t", "s") if k in names}, local)

            claimed = model.claimed_constants.get(cond_id)
            violated = non_finite_witness is not None or (claimed is not None and best > claimed * 1.01)
            if non_finite_witness is not None:
                best, witness = np.inf, non_finite_witness
            estimates.append(ConditionEstimate(cond_id, best, raw_best, claimed, bool(violated), witness or {}))

    return AssumptionReport(tuple(estimates))


# --------------------------------------------------------------------------
# model zoo


def _linear_fields(d, mats, offsets, columns, name):
    """Fields x -> M_j x + m0_j, one column per driver component."""
    mats = np.asarray(mats, dtype=float).reshape(columns, d, d)
    offsets = np.asarray(offsets, dtype=float).reshape(columns, d)

    def evaluate(t, x):
        out = np.einsum("cde,pe->pdc", mats, x)
        out += offsets.T[None, :, :]
        return out

    def derivative(t, x):
        return np.broadcast_to(mats.transpose(1, 0, 2)[None], (len(x), d, columns, d)).copy()

    return CoefficientField(name, evaluate, derivative)


def _linear_drift(d, A, a0):
    A = np.asarray(A, dtype=float).reshape(d, d)
    a0 = np.asarray(a0, dtype=float).reshape(d)

    def evaluate(t, x):
        return x @ A.T + a0

    return CoefficientField("linear-drift", evaluate)


def _reshaped(arr, value, shape, name, dims):
    """``arr`` in ``shape``, or a refusal naming ``name`` and its length, ``dims`` naming the axes."""
    if arr.size != np.prod(shape):
        raise DomainError(f"{name} must be a number or a list of {dims} = {np.prod(shape)} numbers, got {value!r}")
    return arr.reshape(shape)


def _as_matrix_stack(value, columns, d, name, column_dim=""):
    """A scalar as that multiple of the identity, else ``value`` as (columns, d, d), or (d, d) without columns."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.stack([np.eye(d) * float(arr)] * columns) if columns else np.eye(d) * float(arr)
    if columns:
        return _reshaped(arr, value, (columns, d, d), name, f"{column_dim} x state_dim x state_dim")
    return _reshaped(arr, value, (d, d), name, "state_dim x state_dim")


def _as_vector_stack(value, columns, d, name, column_dim=""):
    """A scalar filled in, else ``value`` as (columns, d), or (d,) without columns."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full((columns, d) if columns else (d,), float(arr))
    if columns:
        return _reshaped(arr, value, (columns, d), name, f"{column_dim} x state_dim")
    return _reshaped(arr, value, (d,), name, "state_dim")


def _op_norm(mat):
    return float(np.linalg.norm(mat, 2))


def _linear_mixed(
    state_dim=1,
    wiener_dim=1,
    rough_dim=1,
    hurst=0.75,
    drift_matrix=0.5,
    drift_offset=0.1,
    wiener_matrix=0.3,
    wiener_offset=0.2,
    rough_matrix=0.4,
    rough_offset=0.3,
    initial_value=1.0,
    horizon=1.0,
    holder_order=None,
):
    if state_dim < 1:
        raise DomainError(f"state_dim must be >= 1, got {state_dim}")
    d, m, l = state_dim, wiener_dim, rough_dim
    hs = (hurst,) * l if np.isscalar(hurst) else tuple(hurst)
    driver = DriverSpec(m, l, hs, holder_order)
    A = _as_matrix_stack(drift_matrix, 0, d, "drift_matrix")
    a0 = _as_vector_stack(drift_offset, 0, d, "drift_offset")
    B = _as_matrix_stack(wiener_matrix, m, d, "wiener_matrix", "wiener_dim")
    b0 = _as_vector_stack(wiener_offset, m, d, "wiener_offset", "wiener_dim")
    C = _as_matrix_stack(rough_matrix, l, d, "rough_matrix", "rough_dim")
    c0 = _as_vector_stack(rough_offset, l, d, "rough_offset", "rough_dim")
    growth = (
        _op_norm(A) + float(np.linalg.norm(a0))
        + sum(_op_norm(B[i]) + float(np.linalg.norm(b0[i])) for i in range(m))
        + sum(_op_norm(C[j]) + float(np.linalg.norm(c0[j])) for j in range(l))
    )
    lipschitz = (
        _op_norm(A)
        + float(np.sqrt(sum(_op_norm(B[i]) ** 2 for i in range(m))))
    )
    deriv_bound = float(np.sqrt(sum(_op_norm(C[j]) ** 2 for j in range(l))))
    return ModelSpec(
        name="linear_mixed",
        initial_value=_as_vector_stack(initial_value, 0, d, "initial_value"),
        horizon=horizon,
        drift=_linear_drift(d, A, a0),
        wiener=_linear_fields(d, B, b0, m, "linear-wiener") if m else None,
        rough=_linear_fields(d, C, c0, l, "linear-rough") if l else None,
        driver=driver,
        claimed_constants={
            "A1": growth,
            "A2": deriv_bound,
            "A3": lipschitz,
            "A4-c": 0.0,
            "A4-cx": 0.0,
        },
    )


def _trig_drift(d, amp, rate):
    def evaluate(t, x):
        return amp * np.sin(x + rate * t)

    return CoefficientField("trig-drift", evaluate)


def _trig_diffusion(d, block, name):
    """A diffusion block from its (amp, rate, phases, kind) tuple, one column per phase."""
    amp, rate, phases, kind = block
    fn = np.cos if kind == "cos" else np.sin
    dfn = (lambda v: -np.sin(v)) if kind == "cos" else np.cos

    def evaluate(t, x):
        return amp * fn(x[:, :, None] + rate * t + phases[None, None, :])

    def derivative(t, x):
        batch = len(x)
        core = amp * dfn(x[:, :, None] + rate * t + phases[None, None, :])
        jac = np.zeros((batch, d, len(phases), d))
        for i in range(d):
            jac[:, i, :, i] = core[:, i, :]
        return jac

    return CoefficientField(name, evaluate, derivative)


# Phase steps between the columns of the bounded-trig diffusion blocks.
_WIENER_PHASE_STEP = 0.7
_ROUGH_PHASE_STEP = 0.9


def _trig_kernel(drift_amp, drift_rate, wiener, rough):
    """Stage kernel of the bounded-trig fields, by angle addition.

    Every field component is amp * trig(x_i + rate*t + phase_c), with one
    zero phase for the drift. Since sin(x + a) = sin x cos a + cos x sin a
    and cos(x + a) = cos x cos a - sin x sin a, a step is sin(x) A_j +
    cos(x) B_j, where the factors A_j and B_j read only t_j and the driver
    increments: one per path, and one per state component too when
    ``drift_rate`` gives a rate per component. ``prepare`` contracts them
    over the Wiener and rough columns once per block; every operation there
    is elementwise in the step, so a step's factors do not depend on the
    block it falls in. ``wiener`` and ``rough`` are (amp, rate, phases,
    kind) or None.

    A step takes sin x and cos x from u = tan(x/2), as 2u / (1 + u^2) and
    (1 - u^2) / (1 + u^2): numpy vectorizes ``tan`` but not ``sin`` or
    ``cos``, and one tangent costs about a quarter of a sine and a cosine.
    """

    drift_rates = np.atleast_1d(drift_rate)

    def prepare(ts, dt, dw, dz, xs):
        # The drift factors are (steps, 1, rates) and the diffusion products
        # (steps, paths, 1), so the sums are (steps, paths, rates). The sin
        # factors are doubled here, not their sums: x2 is exact. Each sum is
        # built in place in one new array, through one product buffer.
        angle = ts[:, None] * drift_rates
        on_sin = (2.0 * drift_amp * np.cos(angle) * dt)[:, None, :]
        on_cos = (drift_amp * np.sin(angle) * dt)[:, None, :]
        product = None
        for block, inc in ((wiener, dw), (rough, dz)):
            if block is None:
                continue
            amp, rate, phases, kind = block
            angle = rate * ts[:, None] + phases
            cos_a, sin_a = amp * np.cos(angle), amp * np.sin(angle)
            a, b = (-2.0 * sin_a, cos_a) if kind == "cos" else (2.0 * cos_a, sin_a)
            for c in range(len(phases)):
                product = np.multiply(a[:, c : c + 1, None], inc[:, :, c : c + 1], out=product)
                on_sin = np.add(on_sin, product, out=on_sin if on_sin.shape == product.shape else None)
                product = np.multiply(b[:, c : c + 1, None], inc[:, :, c : c + 1], out=product)
                on_cos = np.add(on_cos, product, out=on_cos if on_cos.shape == product.shape else None)
        return on_sin, on_cos

    def increment(prepared, j, state):
        twice_on_sin, on_cos = prepared
        u = np.multiply(state, 0.5)
        np.tan(u, out=u)
        u_sq = u * u
        step = np.subtract(1.0, u_sq)
        step *= on_cos[j]
        u *= twice_on_sin[j]
        step += u
        u_sq += 1.0
        step /= u_sq
        return step

    return StageKernel(prepare, increment)


def _as_rates(value, length, name, dim_name):
    """A rate as a float array: a scalar, or one rate per component."""
    rates = np.asarray(value, dtype=float)
    if rates.ndim and rates.shape != (length,):
        raise DomainError(f"{name} must be a number or a list of {dim_name} = {length} numbers, got {value!r}")
    return rates


def _bounded_trig(
    state_dim=1,
    wiener_dim=1,
    rough_dim=1,
    hurst=0.75,
    drift_amp=0.3,
    wiener_amp=0.4,
    rough_amp=0.5,
    drift_rate=0.5,
    wiener_rate=0.3,
    rough_rate=0.2,
    initial_value=0.5,
    horizon=1.0,
    holder_order=None,
    holder_beta=None,
):
    if state_dim < 1:
        raise DomainError(f"state_dim must be >= 1, got {state_dim}")
    d, m, l = state_dim, wiener_dim, rough_dim
    drift_rate = _as_rates(drift_rate, d, "drift_rate", "state_dim")
    wiener_rate = _as_rates(wiener_rate, m, "wiener_rate", "wiener_dim")
    rough_rate = _as_rates(rough_rate, l, "rough_rate", "rough_dim")
    hs = (hurst,) * l if np.isscalar(hurst) else tuple(hurst)
    driver = DriverSpec(m, l, hs, holder_order)
    bound = (
        drift_amp * np.sqrt(d) + wiener_amp * np.sqrt(d * m) + rough_amp * np.sqrt(d * l)
    )
    lipschitz = drift_amp + wiener_amp * np.sqrt(m) + rough_amp * np.sqrt(l)
    wiener = (wiener_amp, wiener_rate, _WIENER_PHASE_STEP * np.arange(m), "cos") if m else None
    rough = (rough_amp, rough_rate, _ROUGH_PHASE_STEP * np.arange(l), "sin") if l else None
    spec = ModelSpec(
        name="bounded_trig",
        initial_value=_as_vector_stack(initial_value, 0, d, "initial_value"),
        horizon=horizon,
        drift=_trig_drift(d, drift_amp, drift_rate),
        wiener=_trig_diffusion(d, wiener, "trig-wiener") if m else None,
        rough=_trig_diffusion(d, rough, "trig-rough") if l else None,
        driver=driver,
        holder_beta=holder_beta,
    )
    # Only now is the horizon known positive, so horizon ** (1 - beta) is real.
    beta = _time_beta(spec)
    rate_bound = np.max(np.abs(rough_rate), initial=0.0)  # the fastest rough column bounds the time derivative
    spec = replace(spec, claimed_constants={
        "B1": float(bound),
        "B2": float(rough_amp * np.sqrt(l)),
        "B3": float(lipschitz),
        "B4-c": float(rough_amp * rate_bound * np.sqrt(d * l) * horizon ** (1 - beta)),
        "B4-cx": float(rough_amp * rate_bound * np.sqrt(l) * horizon ** (1 - beta)),
    })
    return _with_kernel(spec, _trig_kernel(drift_amp, drift_rate, wiener, rough))


def _geometric_mixed(mu=0.1, sigma_w=0.2, sigma_b=0.3, initial_value=1.0, hurst=0.75, horizon=1.0, holder_order=None):
    linear = _linear_mixed(
        state_dim=1,
        wiener_dim=1,
        rough_dim=1,
        hurst=hurst,
        drift_matrix=mu,
        drift_offset=0.0,
        wiener_matrix=sigma_w,
        wiener_offset=0.0,
        rough_matrix=sigma_b,
        rough_offset=0.0,
        initial_value=initial_value,
        horizon=horizon,
        holder_order=holder_order,
    )
    return replace(linear, name="geometric_mixed")


def _power_envelope_lipschitz(rho: float) -> float:
    """sup_v |d/dv (1+v^2)^(rho/2)|, evaluated numerically with a cushion."""
    v = np.linspace(0.0, 50.0, 200_001)
    g = rho * v * (1.0 + v * v) ** (rho / 2.0 - 1.0)
    return float(g.max()) * 1.05


def _stochvol(
    rho_power=0.2,
    price_drift=0.05,
    wiener_price_vol=0.5,
    rough_price_vol=0.4,
    initial_price=1.0,
    vol_initial=(0.2, 0.3),
    hurst=0.75,
    horizon=1.0,
    holder_order=None,
):
    vol_model = _bounded_trig(
        state_dim=2,
        wiener_dim=1,
        rough_dim=1,
        hurst=hurst,
        drift_amp=0.3,
        wiener_amp=0.4,
        rough_amp=0.2,
        initial_value=_as_vector_stack(vol_initial, 0, 2, "vol_initial"),
        horizon=horizon,
        holder_order=holder_order,
    )
    mu_p, s_w, s_b, rho = price_drift, wiener_price_vol, rough_price_vol, rho_power

    # The scales serve the fields, on (paths, 2) base states.
    def wiener_scale(x):
        return s_w * np.tanh(x[..., 0:1])

    def rough_scale(x):
        return s_b * (1.0 + x[..., 1:2] ** 2) ** (rho / 2.0)

    def price_drift_eval(t, x, y):
        return mu_p * y

    def price_wiener_eval(t, x, y):
        return (wiener_scale(x) * y)[:, :, None]

    def price_rough_eval(t, x, y):
        return (rough_scale(x) * y)[:, :, None]

    def price_rough_dy(t, x, y):
        return rough_scale(x)[:, :, None, None]

    # Linear in y: a step is y * G_k, and the growth factor G_k = mu dt +
    # s_w tanh(X0_k) dW_k + s_b (1 + X1_k^2)^(rho/2) dZ_k reads only the base
    # states and the drivers, so it is computed for a whole block at once,
    # in place, by the scales' operations in the scales' order.
    def price_prepare(ts, dt, dw, dz, xs):
        growth = np.tanh(xs[..., 0:1])
        growth *= s_w
        growth *= dw
        growth += mu_p * dt
        rough = np.square(xs[..., 1:2])
        rough += 1.0
        rough **= rho / 2.0
        rough *= s_b
        rough *= dz
        growth += rough
        return growth

    def price_increment(growth, j, state):
        return state * growth[j]

    driver = DriverSpec(1, 1, (hurst,), holder_order)
    coupled = CoupledModelSpec(
        name="stochvol",
        base=vol_model,
        initial_value=np.asarray([initial_price], dtype=float),
        drift=CoefficientField("price-drift", price_drift_eval),
        wiener=CoefficientField("price-wiener", price_wiener_eval),
        rough=CoefficientField("price-rough", price_rough_eval, price_rough_dy),
        driver=driver,
        share_drivers=False,
        declared_rho=rho,
        claimed_constants={
            "C1": mu_p + s_b,
            "C2": s_w,
            "C3": s_b,
            "C4": mu_p + s_w,
            "C5": s_b * _power_envelope_lipschitz(rho),
            "C6-c": 0.0,
            "C6-cy": 0.0,
        },
    )
    return _with_kernel(coupled, StageKernel(price_prepare, price_increment))


def _malliavin_linearized(initial_value=1.0, **base_params):
    """Linearized sensitivity equation of the ``geometric_mixed`` base model.

    Each base field is linear with zero offset, so it is its own state
    derivative applied to y: every coefficient is the base field evaluated
    at y. The stage shares the base model's drivers.
    """
    base = _geometric_mixed(**base_params)
    d = base.state_dim

    def at_y(fld, name):
        return CoefficientField(name, lambda t, x, y: fld.evaluate(t, y), lambda t, x, y: fld.jacobian(t, y))

    return CoupledModelSpec(
        name="malliavin_linearized",
        base=base,
        initial_value=_as_vector_stack(initial_value, 0, d, "initial_value"),
        drift=at_y(base.drift, "sensitivity-drift"),
        wiener=at_y(base.wiener, "sensitivity-wiener"),
        rough=at_y(base.rough, "sensitivity-rough"),
        driver=base.driver,
        share_drivers=True,
        declared_rho=0.0,
    )


def _quadratic_control():
    """dX = X^2 dt + 0.5 dW + 0 dZ from X0 = 1: paths blow up, so moment studies must fail."""
    return ModelSpec(
        name="quadratic_control", initial_value=1.0, horizon=1.0,
        drift=CoefficientField("quadratic-drift", lambda t, x: x * x),
        wiener=_linear_fields(1, 0.0, 0.5, 1, "constant-wiener"),
        rough=_linear_fields(1, 0.0, 0.0, 1, "zero-rough"),
        driver=DriverSpec(1, 1, (0.75,)),
    )


_ZOO_BUILDERS = {
    "linear_mixed": _linear_mixed,
    "bounded_trig": _bounded_trig,
    "geometric_mixed": _geometric_mixed,
    "stochvol": _stochvol,
    "malliavin_linearized": _malliavin_linearized,
    "quadratic_control": _quadratic_control,
}
ZOO_MODELS = tuple(_ZOO_BUILDERS)


def model_zoo(name: str, **params):
    """Ready-made models for the studies, one spec per name.

    ``linear_mixed`` satisfies A1–A4, ``bounded_trig`` satisfies B1–B4,
    ``geometric_mixed`` is the constant-volatility price equation with a
    closed form, ``stochvol`` couples a bounded-trig volatility pair to a
    price stage whose coefficients satisfy C1–C6 with the declared growth
    power, ``malliavin_linearized`` is the linearized sensitivity
    equation of a differentiable base model on shared drivers, and
    ``quadratic_control`` is a quadratic-drift equation whose moments blow
    up, the negative control of the moment studies. The two coupled
    entries return their coupled stage, which holds its primary stage as
    ``base``.
    """
    if name not in _ZOO_BUILDERS:
        raise DomainError(f"unknown zoo model {name!r}; choose from {sorted(_ZOO_BUILDERS)}")
    return _ZOO_BUILDERS[name](**params)


def zoo_defaults(name: str) -> dict:
    """{parameter: default} of the values a zoo model takes by keyword.

    ``malliavin_linearized`` passes its other keywords on to its
    ``geometric_mixed`` base, so it takes those too.
    """
    params = inspect.signature(_ZOO_BUILDERS[name]).parameters.values()
    own = {p.name: p.default for p in params if p.kind is p.POSITIONAL_OR_KEYWORD}
    return {**zoo_defaults("geometric_mixed"), **own} if name == "malliavin_linearized" else own
