"""Pathwise Young integration on dyadic grid refinements.

``rs_sum`` is the raw left-point Riemann–Stieltjes sum (the same
accumulation the Euler solver uses for its noise terms). ``young_integrate``
evaluates the trapezoid sum on a ladder of dyadic subsamples of the finest
grid and reports convergence: for self-integrals and chain-rule identities
the trapezoid sum telescopes exactly, while the left-point sum carries a
quadratic-variation deficit of order n^(1-2H) that no desk-scale refinement
removes. The left-point sum on the finest grid is ``rs_sum``; both sums
converge to the same Young limit whenever the Holder orders sum above one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .paths import DiscretePath

__all__ = [
    "YoungResult",
    "rs_sum",
    "young_integrate",
    "young_love_constant",
    "young_love_rhs",
]


@dataclass(frozen=True)
class YoungResult:
    """Outcome of a dyadic-refinement Young integration.

    ``error_estimate`` is the gap between the two finest levels; a result
    with ``converged=False`` must not be trusted as an integral value.
    """

    value: float
    refinement_level: int
    error_estimate: float
    converged: bool
    history: tuple[float, ...]


def _integrand_window(g: DiscretePath, h: DiscretePath, a, b) -> tuple[np.ndarray, np.ndarray, int]:
    g.require_same_grid(h)
    if h.dim != 1:
        raise DomainError(f"the integrator must be scalar, got dim={h.dim}")
    ia, ib = g.grid.window(a, b)
    return g.values[ia : ib + 1], h.values[ia : ib + 1, 0], ib - ia


def _trapezoid_sum(gv: np.ndarray, hv: np.ndarray, stride: int) -> np.ndarray:
    dh = hv[stride::stride] - hv[:-stride:stride]
    return (0.5 * (gv[:-stride:stride] + gv[stride::stride])).T @ dh


def rs_sum(
    g: DiscretePath,
    h: DiscretePath,
    a: float | None = None,
    b: float | None = None,
):
    """Left-point Riemann–Stieltjes sum of g against h over grid cells in [a, b]."""
    gv, hv, _ = _integrand_window(g, h, a, b)
    value = gv[:-1].T @ (hv[1:] - hv[:-1])
    return float(value[0]) if g.dim == 1 else value


def young_integrate(
    g: DiscretePath,
    h: DiscretePath,
    a: float | None = None,
    b: float | None = None,
    tol: float = 1e-6,
    max_level: int | None = None,
) -> YoungResult:
    """Integrate g dh through dyadic subsamples of the window.

    Level j uses every 2^(max_level-j)-th point of the caller's grid, so the
    coarse sums are exact restrictions of the same path (quadrature error is
    isolated from sampling error). The result is the finest-level sum;
    ``converged`` records whether the last refinement moved it by less than
    ``tol``. Non-convergence is an answer, not an exception: for integrand
    pairs below the Young regularity threshold it is the expected outcome.
    """
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")
    gv, hv, cells = _integrand_window(g, h, a, b)
    if max_level is None:
        max_level = 0
        while cells % (2 ** (max_level + 1)) == 0 and max_level < 16:
            max_level += 1
    if max_level < 1:
        raise DomainError("young_integrate needs at least two dyadic levels")
    if cells % (2**max_level) != 0:
        raise DomainError(
            f"window has {cells} cells, not divisible by 2^{max_level}; "
            "supply paths on a dyadic refinement"
        )
    history = []
    for level in range(max_level + 1):
        stride = 2 ** (max_level - level)
        value = _trapezoid_sum(gv, hv, stride)
        history.append(float(value[0]) if g.dim == 1 else value)
    if g.dim == 1:
        gap = abs(history[-1] - history[-2])
    else:
        gap = float(np.linalg.norm(history[-1] - history[-2]))
    return YoungResult(
        value=history[-1],
        refinement_level=max_level,
        error_estimate=float(gap),
        converged=bool(gap < tol),
        history=tuple(history),
    )


def young_love_constant(alpha: float, beta: float) -> float:
    """Declared constant for the Young–Love bound: 1 + (1 - 2^(1-a-b))^-1.

    The sewing constant plus the trivial first term; any valid constant
    serves the one-sided check, this one is standard and computable.
    """
    if alpha + beta <= 1:
        raise DomainError(f"Young regime needs alpha + beta > 1, got {alpha} + {beta}")
    return 1.0 + 1.0 / (1.0 - 2.0 ** (1.0 - (alpha + beta)))


def young_love_rhs(
    sup_g: float,
    hol_g_alpha: float,
    hol_h_beta: float,
    a: float,
    b: float,
    alpha: float,
    beta: float,
) -> float:
    """Right-hand side of the Young–Love estimate with the declared constant."""
    if b <= a:
        raise DomainError(f"need a < b, got ({a}, {b})")
    if min(sup_g, hol_g_alpha, hol_h_beta) < 0:
        raise DomainError("norms must be non-negative")
    width = b - a
    return (
        young_love_constant(alpha, beta)
        * hol_h_beta
        * (sup_g + hol_g_alpha * width**alpha)
        * width**beta
    )
