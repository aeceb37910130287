"""Outer functions and the reflection-positive symbols built from measures.

An outer function is determined by its boundary modulus K through

    Out(C, K)(z) = C exp( (1/(pi i)) int_R [1/(p-z) - p/(1+p^2)] log K(p) dp )

whenever I(K) = int |log K(p)|/(1+p^2) dp is finite.  For a finite measure
nu on [0, inf] the module builds F_nu = Out(sqrt(psi_big(nu, .))), the
unimodular symbol h_nu = F_nu / (F_nu o (-id)) on the boundary, and the
transformed measure d(T nu)(l) = |F_nu(il)|^{-2} (1+l^2)/l dnu(l).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import ArrayLike, NDArray
# the benchmark's tracer wraps every module's quad binding, this one included
from scipy.integrate import quad  # noqa: F401
from scipy.interpolate import CubicSpline, PPoly

from .hardy import SymbolFunction
from .measures import BoundaryMeasure, psi_big
from .numerics import (DEFAULT_QUADRATURE, QuadratureConfig, integrate_batched,
                       integrate_line)

__all__ = [
    "BoundaryModulus",
    "OuterFunction",
    "log_integral",
    "out_eval",
    "out_on_axis",
    "f_nu",
    "f_nu_axis",
    "f_nu_boundary",
    "h_nu",
    "h_nu_symbol",
    "boundary_phase_difference",
    "t_map",
    "lambda_eval",
]

MIN_IM = 1e-3  # the evaluator refuses points closer to the boundary


@dataclass(frozen=True)
class BoundaryModulus:
    """Nonnegative boundary modulus K with declared singular points.

    fn takes a float or an ndarray of floats and returns K elementwise:
    the boundary phase evaluates it on whole arrays of nodes, the outer
    function quadratures on one float at a time.  The singular points
    (zeros or poles of K, where log K fails to be smooth) steer the panel
    splitting of every integral against log K.
    """

    fn: Callable
    singularities: tuple[float, ...] = ()
    symmetric: bool = False
    name: str = "K"

    def __call__(self, p: float) -> float:
        return float(self.fn(p))

    def log(self, p):
        if isinstance(p, np.ndarray):
            v = np.asarray(self.fn(p), dtype=float)
            if not (v > 0.0).all():
                raise ValueError("boundary modulus vanishes at a given point")
            return np.log(v)
        v = self(p)
        if v <= 0.0:
            raise ValueError(f"boundary modulus vanishes at p = {p}")
        return math.log(v)

    @classmethod
    def power_law(cls, exponent: float) -> "BoundaryModulus":
        return cls(lambda p, a=exponent: abs(p) ** a, (0.0,), True,
                   name=f"|p|^{exponent}")

    @classmethod
    def from_callable(cls, fn, singularities=(), symmetric=False, name="K"):
        return cls(fn, tuple(singularities), symmetric, name)

    def __mul__(self, other: "BoundaryModulus") -> "BoundaryModulus":
        return BoundaryModulus(
            lambda p: self.fn(p) * other.fn(p),
            tuple(sorted(set(self.singularities) | set(other.singularities))),
            self.symmetric and other.symmetric,
            name=f"{self.name}*{other.name}",
        )

    def __truediv__(self, other: "BoundaryModulus") -> "BoundaryModulus":
        return BoundaryModulus(
            lambda p: self.fn(p) / other.fn(p),
            tuple(sorted(set(self.singularities) | set(other.singularities))),
            self.symmetric and other.symmetric,
            name=f"{self.name}/{other.name}",
        )


def log_integral(K: BoundaryModulus,
                 cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """I(K) = int |log K(p)| / (1+p^2) dp; finite iff K admits an outer function."""
    val = integrate_line(lambda p: abs(K.log(p)) / (1.0 + p * p), cfg,
                         singularities=K.singularities)
    return float(val.real)


def out_eval(C: complex, K: BoundaryModulus, z: complex,
             cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> complex:
    """Evaluate the outer function Out(C, K) at z in the upper half-plane.

    Refuses Im z < 1e-3: so close to the boundary the Herglotz kernel peaks
    too sharply for the quadrature; use the boundary formulas instead.
    """
    z = complex(z)
    if z.imag < MIN_IM:
        raise ValueError(
            f"out_eval requires Im z >= {MIN_IM}; use boundary formulas below"
        )
    if abs(C) - 1.0 > 1e-12 or abs(C) < 1.0 - 1e-12:
        raise ValueError("leading constant must be unimodular")
    sing = list(K.singularities)
    if z.imag < 0.1:
        sing.append(z.real)  # the kernel 1/(p-z) peaks near Re z

    def integrand(p: float) -> complex:
        return (1.0 / (p - z) - p / (1.0 + p * p)) * K.log(p)

    val = integrate_line(integrand, cfg, singularities=sing)
    return C * np.exp(val / (np.pi * 1j))


def out_on_axis(K: BoundaryModulus, lam: float,
                cfg: QuadratureConfig = DEFAULT_QUADRATURE) -> float:
    """Out(K)(i lam) = exp((1/pi) int lam/(p^2+lam^2) log K(p) dp), K even.

    Strictly positive real; the stable route for points on the imaginary
    axis (no branch noise).
    """
    if not K.symmetric:
        raise ValueError("axis formula requires a symmetric modulus")
    if lam <= 0:
        raise ValueError("axis point must satisfy lam > 0")
    # substituting p = lam q normalizes the kernel to 1/(1+q^2), so the
    # quadrature is equally well conditioned at every magnitude of lam
    val = integrate_line(
        lambda q: K.log(lam * q) / (1.0 + q * q), cfg,
        singularities=tuple(s / lam for s in K.singularities),
    )
    return float(np.exp(val.real / np.pi))


# half-width of the log-variable window beyond the extreme |x|.  With
# |log K(e^s) - log K(e^u)| <= a |s - u| (a = 1 for every sqrt(psi_big):
# d log psi / d log p lies in [-2, 0]), the two truncated tails add up to at
# most a (8/pi) (T+1) e^{-T} / (1 - e^{-2T}), 4.4e-16 a at T = 40
_PHASE_TAIL = 40.0
_PHASE_QUADRATURE = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-10,
                                     max_subdivisions=2000)


def boundary_phase_difference(K: BoundaryModulus, x):
    """arg Out(K)(x) - arg Out(K)(-x) for an even modulus, x float or array.

    On the boundary arg Out(K)(x) = -(1/pi) PV int [1/(p-x) - p/(1+p^2)]
    log K(p) dp; in the difference the normalizing term cancels and, K
    being even, the principal-value pair collapses to

        -(4x/pi) int_0^inf (log K(p) - log K(x)) / (p^2 - x^2) dp.

    In the log variable p = e^s, x = e^u the factor -(4x/pi) p / (p^2-x^2)
    dp becomes -(2/pi) ds / sinh(s - u), so the phase is

        -(2/pi) int_R (log K(e^s) - log K(e^u)) / sinh(s - u) ds,

    whose integrand is smooth at s = u (removable singularity) and decays
    like e^{-|s-u|}.  All |x| share one vector integral over
    [log min|x| - T, log max|x| + T] (integrate_batched, T = _PHASE_TAIL;
    the tail bound is at its definition), so K is evaluated once per node
    for every x at once; the test is componentwise, so each phase meets
    max(1e-12, 1e-10 |phase|) on its own.
    """
    if not K.symmetric:
        raise ValueError("boundary phase formula requires a symmetric modulus")
    x = np.asarray(x, dtype=float)
    if not x.all():
        raise ValueError("phase undefined at x = 0")
    ax = np.abs(x).ravel()
    u = np.log(ax)
    log_kx = K.log(ax)

    def integrand(s):
        d = s[:, None] - u
        num = K.log(np.exp(s))[:, None] - log_kx
        # at a node on some u_j the quotient is 0/0 and counts as 0; the
        # Kronrod-Gauss difference of its panel exposes that, so it is split
        out = np.divide(num, np.sinh(d), out=np.zeros_like(num), where=d != 0)
        return out * (-2.0 / np.pi)

    val = integrate_batched(integrand, u.min() - _PHASE_TAIL,
                            u.max() + _PHASE_TAIL, _PHASE_QUADRATURE)
    delta = np.where(x.ravel() > 0, val, -val).reshape(x.shape)
    return delta if delta.ndim else float(delta)


@dataclass
class OuterFunction:
    """The outer function Out(C, K)."""

    K: BoundaryModulus
    C: complex = 1.0 + 0.0j

    def __call__(self, z: complex) -> complex:
        return out_eval(self.C, self.K, z)

    def on_axis(self, lam: float) -> float:
        return out_on_axis(self.K, lam)


# -- measure-driven constructions --------------------------------------------

def _sqrt_psi_modulus(nu: BoundaryMeasure) -> BoundaryModulus:
    if nu.is_zero:
        raise ValueError("the zero measure has no outer function")
    if not nu.density:
        return BoundaryModulus(lambda p: np.sqrt(psi_big(nu, p)), (0.0,),
                               True, name="sqrt(psi)")
    # with density pieces every psi value is itself a quadrature; the outer
    # and phase integrals would then integrate quadrature noise and stall.
    # log psi is smooth in log p, so a cubic spline built once per measure
    # gives cheap, noise-free evaluations; outside the spline window the end
    # slopes continue the power-law behavior (psi sits between p^0 and
    # p^-2): a linear piece of zero width at each end, which PPoly extends
    spl = nu._cache.get("logspline")
    if spl is None:
        u = np.linspace(-40.0, 40.0, 4001)
        cubic = CubicSpline(u, np.log(psi_big(nu, np.exp(u))))

        def line(u0):
            return [[0.0], [0.0], [float(cubic(u0, 1))], [float(cubic(u0))]]

        spl = nu._cache["logspline"] = PPoly(
            np.hstack([line(u[0]), cubic.c, line(u[-1])]),
            np.r_[u[0], cubic.x, u[-1]])

    def K(p):
        if isinstance(p, float):    # the quadratures' per-node calls
            return math.exp(0.5 * float(spl(math.log(abs(p)))))
        return np.exp(0.5 * spl(np.log(np.abs(p))))

    return BoundaryModulus(K, (0.0,), True, name="sqrt(psi)")


def _derived(nu: BoundaryMeasure, name: str, keys,
             compute: Callable[[BoundaryModulus, NDArray[np.float64]],
                               ArrayLike],
             K: BoundaryModulus | None = None) -> NDArray[np.float64]:
    """Values of compute for the entries of the array keys, cached on nu.

    Every key not cached yet goes to compute(K, todo) in one call, as one
    array, and K = sqrt(psi_big(nu, .)) is built only then (on atomic
    measures every build makes a new closure); a caller evaluating point by
    point passes the K it holds.
    """
    keys = np.asarray(keys, dtype=float)
    flat = keys.ravel().tolist()
    table = nu._cache[name]
    todo = [k for k in dict.fromkeys(flat) if k not in table]
    if todo:
        if K is None:
            K = _sqrt_psi_modulus(nu)
        values = np.asarray(compute(K, np.array(todo)), dtype=float)
        table.update(zip(todo, values.tolist()))
    return np.array([table[k] for k in flat], dtype=float).reshape(keys.shape)


def _axis(K: BoundaryModulus, lam: NDArray[np.float64]) -> list[float]:
    return [out_on_axis(K, l) for l in lam.tolist()]


def _phase(nu: BoundaryMeasure, x) -> NDArray[np.float64]:
    """arg F_nu(x) - arg F_nu(-x) for scalar or array x.

    Every read of the boundary phase goes through here: the values are
    cached on nu per |x|, so the result is odd in x by construction.
    """
    x = np.asarray(x, dtype=float)
    d = _derived(nu, "phase", np.abs(x), boundary_phase_difference)
    return np.where(x > 0, d, -d)


def f_nu(nu: BoundaryMeasure) -> OuterFunction:
    """The outer function with boundary modulus sqrt(psi_big(nu, .))."""
    return OuterFunction(_sqrt_psi_modulus(nu))


def f_nu_axis(nu: BoundaryMeasure, lam):
    """F_nu(i lam), real and positive, for scalar or array lam > 0.

    The values are cached on nu, where t_map reads them too.
    """
    v = _derived(nu, "axis", lam, _axis)
    return v if np.ndim(lam) else float(v)


def h_nu(nu: BoundaryMeasure, x):
    """The unimodular symbol h_nu(x) = F_nu(x) / F_nu(-x) on the boundary.

    Computed as exp(i (arg F_nu(x) - arg F_nu(-x))); the moduli cancel
    exactly, so |h_nu| = 1 and h_nu(-x)* = h_nu(x) hold by construction.
    """
    h = np.exp(1j * _phase(nu, x))
    return h if np.ndim(x) else complex(h)


def h_nu_symbol(nu: BoundaryMeasure) -> SymbolFunction:
    """h_nu packaged as a multiplier symbol; its values are cached on nu."""
    return SymbolFunction(lambda x: h_nu(nu, np.atleast_1d(x)), 1.0, True,
                          name="h_nu")


def f_nu_boundary(nu: BoundaryMeasure, x):
    """Boundary value F_nu(x) = sqrt(psi_big(nu, x)) exp(i arg F_nu(x)).

    For an even modulus arg F_nu is odd, so it equals half the phase
    difference arg F_nu(x) - arg F_nu(-x); modulus and phase are computed
    separately, making |F_nu(x)|^2 = psi_big(nu, x) exact.
    """
    x_arr = np.asarray(x, dtype=float)
    v = np.sqrt(psi_big(nu, x_arr)) * np.exp(0.5j * _phase(nu, x_arr))
    return v if np.ndim(x) else complex(v)


def t_map(nu: BoundaryMeasure) -> BoundaryMeasure:
    """The transformed measure d(T nu)(l) = |F_nu(il)|^{-2} (1+l^2)/l dnu(l).

    Atoms at 0 and infinity are annihilated by the construction; atoms and
    densities on (0, inf) are reweighted by (1+l^2)/(l F_nu(il)^2), using
    the axis formula for F_nu (real positive, no branch noise).  The result
    is invariant under scaling of nu.
    """
    K = _sqrt_psi_modulus(nu)

    def factor(lam):
        a = _derived(nu, "axis", lam, _axis, K)
        return (1.0 + lam * lam) / (lam * a * a)

    lam, w = np.array(nu.atoms, dtype=float).reshape(-1, 2).T
    return BoundaryMeasure(
        0.0, 0.0,
        zip(lam, w * factor(lam)),
        [p.reweighted(factor) for p in nu.density],
    )


def lambda_eval(z) -> complex:
    """The distinguished ratio i z / (z + i)^2; |.| = |x|/(1+x^2) on R."""
    z = np.asarray(z, dtype=complex)
    out = 1j * z / (z + 1j) ** 2
    return out if out.shape else complex(out)
