"""Shared numeric kernels.

Adaptive Gauss-Kronrod quadrature of vector-valued integrands on a finite
interval and branch-tracked winding numbers of sampled closed curves.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

# the name perfbench/tracing.py rebinds; ROADMAP item 13 deletes it
quad = None

__all__ = [
    "QuadratureConfig",
    "CurveSample",
    "QuadratureError",
    "UnderSampledCurveError",
    "DegenerateCurveError",
    "integrate_batched",
    "sorted_unique",
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
# the Kronrod weights over the Gauss weights on the odd nodes, stacked: one
# product gives both sums of every panel
_GK_PAIR = np.zeros((2, 21))
_GK_PAIR[0] = np.concatenate([_GK_WK[:-1], _GK_WK[::-1]])
_GK_PAIR[1, 1:10:2] = _GK_WG
_GK_PAIR[1, 11:20:2] = _GK_WG[::-1]

# integrand values per call of f, nodes times components: keeps each
# transient array of a pass near a megabyte however many components f has
_BLOCK = 2 ** 17
_NO_NODES = np.empty(0)


def sorted_unique(x) -> NDArray[np.float64]:
    """The distinct values of the float array x, ascending.

    np.unique does the same, but numpy 2.4's imports numpy.ma on its first
    call, 11-13 ms of a command's start-up.
    """
    x = np.sort(np.asarray(x, dtype=float).ravel())
    keep = np.empty(x.size, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


def _on_nodes(fn: Callable, x: NDArray, what: str, dtype=float) -> NDArray:
    """fn's values at the points x, of x's shape and dtype float or complex:
    the one evaluation of a scalar function a caller hands the library.  One
    call on the array, or one per point where fn rejects it (TypeError or
    ValueError), a constant broadcast.  ValueError names the first point,
    "{what} = x", where a value is not finite."""
    try:
        v = np.asarray(fn(x), dtype=dtype)
    except (TypeError, ValueError):
        v = np.array([fn(t) for t in x.ravel().tolist()], dtype=dtype)
        v = v.reshape(x.shape)
    if v.shape != x.shape:
        v = np.broadcast_to(v, x.shape).copy()
    finite = np.isfinite(v)
    if not finite.all():
        raise ValueError(f"{what} = {x[~finite][0].item():g} is not finite")
    return v


def _gk_panels(f, lo, hi, m):
    """Kronrod sums and |Kronrod - Gauss| error vectors of f's m components
    on the panels [lo_i, hi_i].

    The panels' nodes go to f in blocks of at most _BLOCK values, one call
    for every pass that fits.  Both sums of a block are one product with
    the stacked weights _GK_PAIR, scaled by the half-widths afterwards.
    """
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    step = max(1, _BLOCK // (21 * m))
    sums = []
    for start in range(0, lo.size, step):
        blk = slice(start, start + step)
        s = (mid[blk, None] + half[blk, None] * _GK_NODES).ravel()
        v = np.asarray(f(s), dtype=float).reshape(-1, 21, m)
        sums.append(_GK_PAIR @ v)
    sums = np.concatenate(sums) * half[:, None, None]
    kron = sums[:, 0]
    err = np.abs(kron - sums[:, 1])
    # a non-finite panel is split first and, if it stays so, spends the budget
    err[~np.isfinite(err)] = np.inf
    return kron, err


def integrate_batched(
    f: Callable[[NDArray[np.float64]], NDArray[np.float64]],
    a: float, b: float,
    cfg: QuadratureConfig,
    breakpoints: Sequence[float] = (),
) -> NDArray[np.float64]:
    """Integrate a vector-valued f over the finite interval [a, b].

    f maps a 1-D array of n nodes to an (n, m) array, the m components of
    the integrand at each node.  The first call, on zero nodes, reveals m
    (an f with m = 0 gives an empty result and no other call); after it
    every pass, the first partition included, evaluates f on all nodes of
    its panels in one call, or in blocks of _BLOCK values where m is so
    large that one call would hold more.  The first panels are [a, b] cut
    at the breakpoints inside it (kinks of f, where no panel should
    straddle, and the edges of a partition graded to f's scales, which
    saves the passes that bisecting toward them would take).
    Each panel carries the 21-point Kronrod sum and, as its error vector,
    the componentwise difference to the embedded 10-point Gauss sum.

    The test is componentwise: the iteration stops when the summed error of
    every component i is at most tol_i = max(abs_tol, rel_tol * |I_i|), so
    a component many orders of magnitude below the others still gets its
    relative accuracy.  Otherwise it bisects the fewest worst panels (by
    their largest error in units of tol_i) that leave at most tol_i / 2 of
    every component on the panels kept.

    cfg supplies the tolerances and the panel budget, which counts the
    first partition too.  Raises QuadratureError, carrying the partial
    value vector and the summed error of the component furthest from its
    tolerance, when the budget is spent: by a refinement, or by first
    panels that alone are more than cfg.max_subdivisions.
    """
    m = np.shape(f(_NO_NODES))[1]
    if not m:
        return np.empty(0)
    edges = sorted_unique([a, b, *(t for t in breakpoints if a < t < b)])
    lo, hi = edges[:-1], edges[1:]
    kron, err = _gk_panels(f, lo, hi, m)
    while True:
        value = kron.sum(axis=0)
        mag = np.abs(value)
        mag[~np.isfinite(mag)] = 0.0    # only its split panels can mend it
        # panel errors in units of each component's tolerance
        scaled = err / np.maximum(cfg.abs_tol, cfg.rel_tol * mag)
        total = scaled.sum(axis=0)
        worst = int(np.argmax(total))
        if lo.size > cfg.max_subdivisions:     # the first partition alone
            raise QuadratureError(
                f"batched quadrature starts from {lo.size} panels, more "
                f"than its budget of {cfg.max_subdivisions}", value,
                float(err[:, worst].sum()))
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
        cut = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], cut])
        new_hi = np.concatenate([cut, hi[split]])
        k_new, e_new = _gk_panels(f, new_lo, new_hi, m)
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
