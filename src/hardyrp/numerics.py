"""Shared numeric kernels.

Adaptive Gauss-Kronrod quadrature of vector-valued integrands on a finite
interval, branch-tracked winding numbers of sampled closed curves, and
Hermitian eigendecomposition for small dense matrices.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray
# the benchmark's tracer wraps every module's quad binding, this one included
from scipy.integrate import quad  # noqa: F401

__all__ = [
    "QuadratureConfig",
    "CurveSample",
    "QuadratureError",
    "UnderSampledCurveError",
    "DegenerateCurveError",
    "integrate_batched",
    "winding_number",
]

_HALF_PI = np.pi / 2.0


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; carries the partial value."""

    def __init__(self, message: str, value: complex, error: float):
        super().__init__(message)
        self.value = value
        self.error = error


class UnderSampledCurveError(RuntimeError):
    """Consecutive curve samples turn by >= pi/2; refinement required."""


class DegenerateCurveError(RuntimeError):
    """A sampled contour curve is unusable: non-finite, through the
    exclusion disc, or not closed.  A numerical failure of the contour, not
    an input error."""


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and panel budget of an integrate_batched pass."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 2 ** 14

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 8:
            raise ValueError("max_subdivisions must be >= 8")


@dataclass
class CurveSample:
    """Ordered samples of a closed curve in the punctured plane.

    exclusion_radius is the caller's promise that the curve stays at least
    this far from the origin; a sample violating it is rejected.
    """

    values: NDArray[np.complex128]
    exclusion_radius: float = 0.0
    closure_tol: float = 1e-9
    min_modulus: float = field(init=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 1 or self.values.size < 4:
            raise ValueError("curve needs at least 4 samples")
        moduli = np.abs(self.values)
        self.min_modulus = float(moduli.min())
        if self.min_modulus < self.exclusion_radius:
            raise ValueError(
                f"curve sample has modulus {self.min_modulus:.3e} below the "
                f"exclusion radius {self.exclusion_radius:.3e}"
            )
        scale = max(1.0, float(moduli.max()))
        if abs(self.values[0] - self.values[-1]) > self.closure_tol * scale:
            raise ValueError("curve is not closed within tolerance")


# Gauss-Kronrod 21/10 pair on [-1, 1] (QUADPACK's qk21): the 21 Kronrod
# nodes, their weights, and the 10-point Gauss weights on the odd nodes
_GK_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_GK_WK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208034641570, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_GK_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_GK_NODES = np.concatenate([-_GK_X[:-1], _GK_X[::-1]])
_GK_WEIGHTS = np.concatenate([_GK_WK[:-1], _GK_WK[::-1]])
_GAUSS_WEIGHTS = np.zeros(21)
_GAUSS_WEIGHTS[1:10:2] = _GK_WG
_GAUSS_WEIGHTS[11:20:2] = _GK_WG[::-1]

# integrand values per call of f, nodes times components: keeps each
# transient array of a pass near a megabyte however many components f has
_BLOCK = 2 ** 17


def _gk_panels(f, lo, hi):
    """Kronrod sums and |Kronrod - Gauss| error vectors of f on [lo_i, hi_i]."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    kron, err = [], []
    start, step = 0, 1      # the first call reveals the component count
    while start < lo.size:
        blk = slice(start, start + step)
        s = (mid[blk, None] + half[blk, None] * _GK_NODES).ravel()
        v = np.asarray(f(s), dtype=float)
        v = v.reshape(-1, 21, v.shape[-1])
        v *= half[blk, None, None]      # in place: one block live, not two
        k = _GK_WEIGHTS @ v
        kron.append(k)
        err.append(np.abs(k - _GAUSS_WEIGHTS @ v))
        start += step
        step = max(1, _BLOCK // (21 * v.shape[-1]))
    err = np.concatenate(err)
    # a non-finite panel is split first and, if it stays so, spends the budget
    err[~np.isfinite(err)] = np.inf
    return np.concatenate(kron), err


def integrate_batched(
    f: Callable[[NDArray[np.float64]], NDArray[np.float64]],
    a: float, b: float,
    cfg: QuadratureConfig,
    breakpoints: Sequence[float] = (),
) -> NDArray[np.float64]:
    """Integrate a vector-valued f over the finite interval [a, b].

    f maps a 1-D array of n nodes to a new (n, m) array, the m components
    of the integrand at each node, which the integrator scales in place;
    every pass evaluates f once per block of panels on all their nodes.
    The first panels are [a, b] cut at the breakpoints inside it (kinks of
    f, where no panel should straddle).
    Each panel carries the 21-point Kronrod sum and, as its error vector,
    the componentwise difference to the embedded 10-point Gauss sum.

    The test is componentwise: the iteration stops when the summed error of
    every component i is at most tol_i = max(abs_tol, rel_tol * |I_i|), so
    a component many orders of magnitude below the others still gets its
    relative accuracy.  Otherwise it bisects the fewest worst panels (by
    their largest error in units of tol_i) that leave at most tol_i / 2 of
    every component on the panels kept.

    cfg supplies the tolerances and the panel budget.  Raises
    QuadratureError, carrying the partial value vector and the summed error
    of the component furthest from its tolerance, when the budget is spent.
    """
    edges = np.unique(np.r_[float(a), float(b),
                            [t for t in breakpoints if a < t < b]])
    lo, hi = edges[:-1], edges[1:]
    kron, err = _gk_panels(f, lo, hi)
    while True:
        value = kron.sum(axis=0)
        mag = np.abs(value)
        mag[~np.isfinite(mag)] = 0.0    # only its split panels can mend it
        # panel errors in units of each component's tolerance
        scaled = err / np.maximum(cfg.abs_tol, cfg.rel_tol * mag)
        total = scaled.sum(axis=0)
        worst = int(np.argmax(total))
        if total[worst] <= 1.0:
            return value
        order = np.argsort(-scaled.max(axis=1), kind="stable")
        # kept[k] = error left on the panels outside the k worst
        kept = np.cumsum(scaled[order[::-1]], axis=0)[::-1].max(axis=1)
        n_split = int(np.count_nonzero(kept > 0.5))
        if lo.size + n_split > cfg.max_subdivisions:
            error = float(err[:, worst].sum())
            raise QuadratureError(
                f"batched quadrature error estimate {error:.3e} is "
                f"{total[worst]:.3e} times the tolerance of component "
                f"{worst} after {lo.size} panels", value, error)
        split, keep = order[:n_split], order[n_split:]
        m = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], m])
        new_hi = np.concatenate([m, hi[split]])
        k_new, e_new = _gk_panels(f, new_lo, new_hi)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        kron = np.concatenate([kron[keep], k_new])
        err = np.concatenate([err[keep], e_new])


def winding_number(curve: CurveSample) -> int:
    """Winding number of a sampled closed curve around the origin.

    Computed by unwrapped-argument summation: the total turn of arg(z)
    along the samples divided by 2 pi.  Never uses log directly, so no
    branch-cut residue can occur; instead an UnderSampledCurveError demands
    refinement whenever a single step turns by pi/2 or more.
    """
    args = np.angle(curve.values)
    steps = np.diff(args)
    steps = (steps + np.pi) % (2.0 * np.pi) - np.pi
    max_step = float(np.abs(steps).max())
    if max_step >= _HALF_PI:
        raise UnderSampledCurveError(
            f"largest argument step {max_step:.3f} rad >= pi/2; refine sampling"
        )
    total = float(steps.sum())
    w = total / (2.0 * np.pi)
    k = int(round(w))
    if abs(w - k) > 1e-6:
        raise UnderSampledCurveError(
            f"total turn {w:.6f} is not close to an integer"
        )
    return k
