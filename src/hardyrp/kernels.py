"""Approximation-identity kernels concentrating at a pair of points +-p.

The family f_{p,n} is built from the bump g_n and the resonant kernel
d_{p,n}; as the sharpness n grows, (1/pi) int f_{p,n} phi converges to the
symmetric average (phi(p) + phi(-p))/2 at continuity points p.  The
comparison kernel dtilde_{p,n} has a printed arctan antiderivative, which
gives the mass of the window (p - 1/sqrt(n), p + 1/sqrt(n)) in closed form,
and the sandwich factors b_{p,n} <= d/dtilde <= B_{p,n} on that window are
also closed forms.

The window integrals run on the batched Gauss-Kronrod engine: f_{p,n} is
even, so (1/pi) int f phi is one pass over x > 0, mapped to a finite
interval by x = tan(theta), with one component per region.  The pass
starts from panels graded to the kernel's scales (2^k/n about p and 0,
2^k up to 4n), and refuses a p so large that the doubles theta cannot
resolve the resonance there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import (QuadratureConfig, QuadratureError, _on_nodes,
                       integrate_batched)

# the name perfbench/tracing.py rebinds; ROADMAP item 13 deletes it
quad = None

__all__ = [
    "KernelParams",
    "eval_g",
    "eval_d",
    "eval_f",
    "eval_dtilde",
    "halfmass",
    "sandwich_factors",
    "approx_identity",
    "approx_identity_regions",
]


# per-region tolerances of the approximate-identity pass
_KERNEL_QUADRATURE = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-10)


@dataclass(frozen=True)
class KernelParams:
    """Evaluation point p > 1/sqrt(n) and integer sharpness n >= 2."""

    p: float
    n: int

    def __post_init__(self):
        if self.n < 2 or self.n != int(self.n):
            raise ValueError("sharpness n must be an integer >= 2")
        if not math.isfinite(self.p * self.p):
            raise ValueError("evaluation point p and p^2 must be finite")
        if not self.p > 1.0 / math.sqrt(self.n):
            raise ValueError("evaluation point must satisfy p > 1/sqrt(n)")

    @property
    def window(self) -> tuple[float, float]:
        r = 1.0 / math.sqrt(self.n)
        return self.p - r, self.p + r


def eval_g(n: int, x):
    """g_n(x) = x^2 / (n (1/n^2 + x^2)(1 + x^2/n^2)); bounded by 1/n."""
    x = np.asarray(x, dtype=float)
    n2 = 1.0 / (n * n)
    out = x * x / (n * (n2 + x * x) * (1.0 + x * x * n2))
    return out if out.shape else float(out)


def _resonance(p: float, n: int, x):
    # d_{p,n} = g_n num / den; the shared denominator
    # (x^2 - p^2 - 1/n^2)^2 + 4 x^2/n^2 localizes at +-p
    n2 = 1.0 / (n * n)
    u = x * x - p * p - n2
    num = u * (1.0 - x * x) + 2.0 * x * x * (n2 + 1.0)
    return u, num, u * u + 4.0 * x * x * n2


def eval_d(p: float, n: int, x):
    """d_{p,n}(x), the signed kernel resonant at x = +-p."""
    x = np.asarray(x, dtype=float)
    _, num, den = _resonance(p, n, x)
    out = eval_g(n, x) * num / den
    return out if out.shape else float(out)


def eval_f(p: float, n: int, x):
    """f_{p,n} = d_{p,n} + g_n (1/p^2 on (-1,1), 1 on |x| > 1).

    Summed as one fraction over the resonance denominator.  On |x| > 1 the
    numerator num + den is taken in its closed form
    u (1 - p^2 - 1/n^2) + x^2 (2 + 6/n^2), so the x^-4 tail keeps its
    relative accuracy instead of cancelling d against g.
    """
    x = np.asarray(x, dtype=float)
    n2 = 1.0 / (n * n)
    u, num, den = _resonance(p, n, x)
    ax = np.abs(x)
    top = np.where(ax < 1.0, num + den / (p * p),
                   np.where(ax > 1.0,
                            u * (1.0 - p * p - n2) + x * x * (2.0 + 6.0 * n2),
                            num))
    out = eval_g(n, x) * top / den
    return out if out.shape else float(out)


def eval_dtilde(p: float, n: int, x):
    """The comparison kernel with the closed-form arctan antiderivative."""
    x = np.asarray(x, dtype=float)
    n2 = 1.0 / (n * n)
    g_t = p * x / (n * (n2 + p * p) * (1.0 + p * p * n2))
    u = x * x - p * p - n2
    den = u * u + 4.0 * p * p * n2   # 4p^2/n^2 here, unlike d_{p,n}
    out = g_t * 2.0 * p * p * (n2 + 1.0) / den
    return out if out.shape else float(out)


def _antiderivative(p: float, n: int, x: float) -> float:
    # (1/pi) int dtilde = [D_{p,n}]/pi with
    # D_{p,n}(x) = c * arctan((x^2 - p^2 - 1/n^2)/(2p/n))
    n2 = 1.0 / (n * n)
    c = p * p * (1.0 + n2) / (2.0 * (n2 + p * p) * (1.0 + p * p * n2))
    return c * math.atan((x * x - p * p - n2) / (2.0 * p / n))


def halfmass(p: float, n: int) -> float:
    """(1/pi) int of dtilde_{p,n} over the window; tends to 1/2 as n grows.

    Evaluated from the closed-form antiderivative, no quadrature.
    """
    params = KernelParams(p, n)
    lo, hi = params.window
    return (_antiderivative(p, n, hi) - _antiderivative(p, n, lo)) / math.pi


def sandwich_factors(p: float, n: int) -> tuple[float, float]:
    """(b_{p,n}, B_{p,n}) with b dtilde <= d <= B dtilde on the window.

    Both factors tend to 1; each is a product of a bump ratio bound, a
    numerator bound over 2p^2(1+1/n^2), and a denominator ratio bound.
    """
    KernelParams(p, n)
    n2 = 1.0 / (n * n)
    r = 1.0 / math.sqrt(n)
    lo, hi = p - r, p + r

    def bump_ratio(x: float) -> float:
        return (x * (n2 + p * p) * (1.0 + p * p * n2)
                / (p * (n2 + x * x) * (1.0 + x * x * n2)))

    A, a = bump_ratio(hi), bump_ratio(lo)

    def numerator(top: float, bottom: float) -> float:
        return (-bottom ** 4 + top * top * (3.0 * n2 + 3.0 + p * p)
                - (p * p + n2))

    V, v = numerator(hi, lo), numerator(lo, hi)
    w = 2.0 * p * p * (n2 + 1.0)
    U = 1.0 + (1.0 / n + 2.0 * r) / (p * p)
    u = 1.0 + (1.0 / n - 2.0 * r) / (p * p)
    return a * v / w / U, A * V / w / u


def _first_edges(params: KernelParams) -> np.ndarray:
    """The first panel edges, in theta = arctan x, of the window pass.

    x = p -+ 1/sqrt(n) and p cut the regions, and x = 1 the jump of f.
    The graded points meet the kernel's three scales:
    - p -+ 2^k/n and 2^k/n, k >= 0, below p/2: the resonance of d_{p,n},
      1/n wide about p (poles 1/n off +-p), and the zero of g_n at 0
      (poles +-i/n);
    - 2^k from 2 to 4n: for x well above 1 and p, f(x)(1 + x^2) is near
      (3 - p^2)/(n (1 + x^2/n^2)), flat up to the poles +-in of g_n, and
      decays only beyond them.
    So the pass starts at those scales (README, "Window kernels").

    The pass reaches only the x = tan t of doubles t, which lie (1 + x^2)
    ulp(t) apart in x: (1 + p^2) 2^-52 near p > tan 1.  When
    arctan(p - 1/n), arctan p and arctan(p + 1/n) round to fewer than three
    doubles, that spacing is about the resonance's width 1/n or wider, and
    no panel edge can fall inside the resonance.  The nodes then miss its
    peak while the Kronrod and Gauss sums, taken at the same doubles,
    agree, so the pass met its tolerance with a wrong value (off by 0.031
    at p = 1e8, n = 10^4).  Raises QuadratureError then.
    """
    p, n = params.p, params.n
    edges = {*params.window, p, 1.0}
    h = 1.0 / n
    while h < p / 2:
        edges.update((p - h, p + h, h))
        h *= 2.0
    x = 2.0
    while x < 4 * n:
        edges.add(x)
        x *= 2.0
    t = np.arctan([p - 1.0 / n, p, p + 1.0 / n])
    if not t[0] < t[1] < t[2]:
        raise QuadratureError(
            f"the resonance of f_{{p,n}} at p = {p:g}, 1/n = {1.0 / n:g} "
            f"wide, is finer than the doubles theta of x = tan(theta) reach "
            f"there", math.nan, math.inf)
    return np.arctan(sorted(edges))


def approx_identity_regions(phi: Callable, p: float, n: int
                            ) -> tuple[float, float, float]:
    """(inner, window, outer) pieces of (1/pi) int f_{p,n} phi.

    The line splits at +-(p -+ 1/sqrt(n)): inner covers |x| < p - 1/sqrt(n),
    window the two resonance intervals, outer the rest.  phi must satisfy
    int x^2/(1+x^2)^2 |phi| < inf; the kernel supplies the decay beyond
    that.  Each region integral is exposed so the vanishing of inner and
    outer contributions can be observed separately.

    phi goes through numerics._on_nodes (math.cos and lambda x: 1.0 are
    phis too).  As f_{p,n} is even, the pieces are one integrate_batched
    pass of f(x) (phi(x) + phi(-x)) (1 + x^2) in theta = arctan x over
    [0, pi/2), a component per region, from _first_edges' panels.  Raises
    QuadratureError when the panel budget is spent, or before any
    integration where theta cannot resolve the resonance (_first_edges).
    """
    params = KernelParams(p, n)
    lo, hi = params.window

    def integrand(theta):
        x = np.tan(theta)
        both = _on_nodes(phi, np.concatenate([x, -x]), "phi at x")
        v = eval_f(p, n, x) * (1.0 + x * x) * (both[:x.size] + both[x.size:])
        # no panel straddles a region edge, so each node lies in one region
        return v[:, None] * np.column_stack([x < lo, (lo < x) & (x < hi),
                                             hi < x])

    val = integrate_batched(integrand, 0.0, math.pi / 2, _KERNEL_QUADRATURE,
                            breakpoints=_first_edges(params))
    return tuple(float(v) / math.pi for v in val)


def approx_identity(phi: Callable, p: float, n: int) -> float:
    """(1/pi) int f_{p,n} phi, approximating (phi(p) + phi(-p))/2."""
    return sum(approx_identity_regions(phi, p, n))
