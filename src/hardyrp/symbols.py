"""Outer functions and the reflection-positive symbols built from measures.

An outer function is determined by its boundary modulus K through

    Out(C, K)(z) = C exp( (1/(pi i)) int_R [1/(p-z) - p/(1+p^2)] log K(p) dp )

whenever I(K) = int |log K(p)|/(1+p^2) dp is finite.  For a finite measure
nu on [0, inf] the module builds F_nu = Out(sqrt(psi_big(nu, .))), the
unimodular symbol h_nu = F_nu / (F_nu o (-id)) on the boundary, and the
transformed measure d(T nu)(l) = |F_nu(il)|^{-2} (1+l^2)/l dnu(l).
For a measure of atoms alone sqrt(psi_big) is rational, and so are F_nu
and h_nu (the finite-rank case of Kronecker's theorem): they are evaluated
in closed form, and only measures with a density integrate log K.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from numpy.typing import NDArray
# the benchmark's tracer wraps every module's quad binding, this one included
from scipy.integrate import quad  # noqa: F401

from .hardy import SymbolFunction
from .measures import BoundaryMeasure, _on_nodes, psi_big
from .numerics import QuadratureConfig, integrate_batched

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

MIN_IM = 1e-3  # out_eval refuses points closer to the boundary, see there


@dataclass(frozen=True)
class BoundaryModulus:
    """Nonnegative boundary modulus K with declared singular points.

    fn takes a float or an ndarray of floats and returns K elementwise:
    every integral against log K (outer function, axis values, boundary
    phase) evaluates it on whole arrays of nodes, and an fn written for
    floats only, which rejects the array, is evaluated node by node.  The
    nonzero singular points (zeros or poles of K, where log K fails to be
    smooth) are initial panel edges of those integrals.

    rational, when it is not None, is the factorization (a, zeros, poles)
    of an even rational K,

        K(p) = a prod_k |p + i s_k| / prod_i |p + i l_i|,   every s_k, l_i >= 0,

    with zeros = (s_k) and poles = (l_i).  Its outer function is then
    a R(-i z), R(w) = prod (w + s_k) / prod (w + l_i), and out_eval,
    out_on_axis and boundary_phase_difference evaluate that closed form
    instead of integrating log K.  _sqrt_psi_modulus sets it for measures
    without density; products and quotients keep it when both factors have
    one and drop it otherwise, so it always describes fn.
    """

    fn: Callable
    singularities: tuple[float, ...] = ()
    symmetric: bool = False
    name: str = "K"
    rational: tuple[float, tuple[float, ...], tuple[float, ...]] | None = None

    def __post_init__(self):
        if self.rational is not None and not self.symmetric:
            raise ValueError("a rational modulus is even: set symmetric")

    def __call__(self, p: float) -> float:
        return float(self.fn(p))

    def log(self, p):
        if isinstance(p, np.ndarray):
            v = _on_nodes(self.fn, p)
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
        rational = None
        if self.rational is not None and other.rational is not None:
            (a, z, p), (b, y, q) = self.rational, other.rational
            rational = (a * b, tuple(sorted(z + y)), tuple(sorted(p + q)))
        return BoundaryModulus(
            lambda p: self.fn(p) * other.fn(p),
            tuple(sorted(set(self.singularities) | set(other.singularities))),
            self.symmetric and other.symmetric,
            name=f"{self.name}*{other.name}",
            rational=rational,
        )

    def __truediv__(self, other: "BoundaryModulus") -> "BoundaryModulus":
        rational = None
        if self.rational is not None and other.rational is not None:
            (a, z, p), (b, y, q) = self.rational, other.rational
            rational = (a / b, tuple(sorted(z + q)), tuple(sorted(p + y)))
        return BoundaryModulus(
            lambda p: self.fn(p) / other.fn(p),
            tuple(sorted(set(self.singularities) | set(other.singularities))),
            self.symmetric and other.symmetric,
            name=f"{self.name}/{other.name}",
            rational=rational,
        )


def _paired(K: BoundaryModulus):
    """a, zeros s and poles l of K's rational form as arrays, and the number
    m of pairs (s_k, l_k), k < m, that the closed forms take together."""
    a, zeros, poles = K.rational
    return a, np.array(zeros), np.array(poles), min(len(zeros), len(poles))


def _rational_outer(K: BoundaryModulus, w):
    """a R(w), R(w) = prod (w + s_k) / prod (w + l_i), of K's rational form
    at the array w; Out(K)(z) = a R(-i z).  Zeros and poles pair up in
    ascending order, so the product is one of ratios, each between min(1,
    s_k/l_k) and max(1, s_k/l_k) where they interlace, and no partial
    product overflows where R does not (64 atoms at z = 1e12: a product of
    the numerator alone is 1e768)."""
    a, s, l, m = _paired(K)
    w = w[:, None]
    return a * (np.prod((w + s[:m]) / (w + l[:m]), axis=1)
                * np.prod(w + s[m:], axis=1) / np.prod(w + l[m:], axis=1))


def _pole_residues(K: BoundaryModulus):
    """The poles l_i of K's rational form and the residues of Out(K)(x) =
    a R(-i x) at x = -i l_i,

        c_i = i a prod_k (s_k - l_i) / prod_{j != i} (l_j - l_i).

    For K = _sqrt_psi_modulus(nu) the zeros interlace the poles, s_k in
    (l_k, l_{k+1}), so zero k pairs with pole k for k < i and with pole
    k + 1 for k >= i: every ratio lies in (0, 1), and 64 clustered atoms
    neither overflow nor cancel.  The zero above the last pole (there when
    K has as many zeros as poles, atom_inf > 0) has no partner."""
    a, s, l, _ = _paired(K)
    i = np.arange(l.size)[:, None]
    k = np.arange(max(l.size - 1, 0))
    partner = l[k + (k >= i)]
    li = l[:, None]
    ratio = np.prod((s[k] - li) / (partner - li), axis=1)
    return l, 1j * a * ratio * np.prod(s[k.size:] - li, axis=1)


# The integrals against log K run in the log variable, p = e^s (and p =
# -e^s for a modulus that is not even), over the window [min u - T, max u + T]
# around the points' u = log|z|, T = _LOG_TAIL, or a wider one;
# _log_window makes each one integrate_batched pass.  Tail bounds:
#
# - outer function, even K, z = |z| zeta, t = s - log|z|: pairing p with -p,
#   log Out(K)(z) = (1/(pi i)) int_R k log K(e^s) ds with the Herglotz
#   kernel k = 2 zeta e^t / (e^{2t} - zeta^2), which is i sech(t) on the
#   axis z = i lam.  k integrates to pi i over R for every z in the upper
#   half-plane, so c = log K(|z|) comes out in front and the integrand is
#   k (log K(e^s) - c).  With |log K(e^s) - c| <= a |t| (a = 1 for every
#   sqrt(psi_big): d log psi / d log p lies in [-2, 0]) and |k| <=
#   1/|sinh t|, the two cut-off tails add up to at most a (4/pi) (T+1)
#   e^{-T} / (1 - e^{-2T}) in log Out, 2.2e-16 a at T = 40;
# - outer function, K not even: the odd part of log K meets a kernel that
#   decays like e^{-2|s - log|z||} beyond log|z| and like e^{-2|s|} beyond
#   0, so the window covers s = 0 too, and that part's tails are e^{-2T}
#   small;
# - boundary phase: the integrand is -(2/pi) (log K(e^s) - log K(e^u)) /
#   sinh(s - u), so the two tails add up to at most a (8/pi) (T+1) e^{-T} /
#   (1 - e^{-2T}), 4.4e-16 a at T = 40;
# - log integral, u = 0: |log K(e^s)| <= |log K(1)| + a |s| and sech s <=
#   2 e^{-|s|} bound the tails by 4 (|log K(1)| + a (T+1)) e^{-T},
#   1.7e-17 |log K(1)| + 7e-16 a at T = 40.
_LOG_TAIL = 40.0
_LOG_QUADRATURE = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-10,
                                   max_subdivisions=2000)
# the window's ends and its first panel edges lie on the multiples of
# _LOG_GRID, so the bisected panels of passes for different points share
# their nodes, and with them the psi_big values cached on a measure: os-check
# on a Cauchy density, whose t_map makes a dozen axis passes, took 0.5 s
# with the window's own ends and takes 0.14 s on the grid
_LOG_GRID = 10.0
# beyond |t| = 350 every kernel is below e^{-350}; clipping t there keeps
# e^{2t} finite and the kernels' values unchanged far below any tolerance
_T_CLIP = 350.0


def _log_window(integrand, u: NDArray[np.float64],
                breakpoints) -> NDArray[np.float64]:
    """integrand over [min u - _LOG_TAIL, max u + _LOG_TAIL], widened to
    multiples of _LOG_GRID, in one pass under _LOG_QUADRATURE."""
    lo = _LOG_GRID * math.floor((u.min() - _LOG_TAIL) / _LOG_GRID)
    hi = _LOG_GRID * math.ceil((u.max() + _LOG_TAIL) / _LOG_GRID)
    grid = np.arange(lo, hi, _LOG_GRID).tolist()
    return integrate_batched(integrand, lo, hi, _LOG_QUADRATURE,
                             [*grid, *breakpoints])


def _singular_breaks(K: BoundaryModulus) -> list[float]:
    """log|q| for the nonzero singular points q of K (0 lies at s = -inf)."""
    return [math.log(abs(q)) for q in K.singularities if q]


def log_integral(K: BoundaryModulus) -> float:
    """I(K) = int |log K(p)| / (1+p^2) dp; finite iff K admits an outer function.

    With p = +-e^s, dp / (1+p^2) = sech(s) ds / 2: one pass over |s| <=
    _LOG_TAIL (tail bound there), with s = 0 an initial panel edge.
    """
    def integrand(s):
        p = np.exp(s)
        v = np.abs(K.log(p))
        v = v + (v if K.symmetric else np.abs(K.log(-p)))
        return (0.5 * v / np.cosh(s))[:, None]

    return float(_log_window(integrand, np.zeros(1),
                             [0.0, *_singular_breaks(K)])[0])


def out_eval(C: complex, K: BoundaryModulus, z):
    """Evaluate the outer function Out(C, K) at z in the upper half-plane.

    z is a complex (a complex is returned) or an array (an array of the
    same shape).  Each point is two components, the real and imaginary
    parts of log Out(K)(z) - log K(|z|), of one integrate_batched pass in
    s = log|p| (kernels and tail bound at _LOG_TAIL), so log K is
    evaluated once per node for every point.  The points' log|z|, and
    log|Re z| where Im z < 0.1 (the kernel peaks there), are initial panel
    edges, and so is s = 0 for a modulus that is not even.  Each component
    meets max(1e-12, 1e-10 |.|) (_LOG_QUADRATURE).

    A K with a rational form makes no pass: Out(C, K)(z) = C a R(-i z),
    R(w) = prod (w + s_k) / prod (w + l_i), to roundoff.

    Refuses Im z < 1e-3 min(1, |z|): so close to the boundary (in angle,
    below |z| = 1) the Herglotz kernel peaks too sharply for the
    quadrature; use the boundary formulas instead.  The refusal holds for
    a rational K too, so a point's validity does not depend on the measure.
    """
    zs = np.asarray(z, dtype=complex)
    flat = zs.ravel()
    r = np.abs(flat)
    if not (flat.imag >= MIN_IM * np.minimum(1.0, r)).all():
        raise ValueError(
            f"out_eval requires Im z >= {MIN_IM} min(1, |z|); use boundary "
            "formulas below"
        )
    if abs(C) - 1.0 > 1e-12 or abs(C) < 1.0 - 1e-12:
        raise ValueError("leading constant must be unimodular")
    if not flat.size:
        return np.empty(zs.shape, dtype=complex)
    if K.rational is not None:
        out = C * _rational_outer(K, -1j * flat)
        return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)
    u = np.log(r)
    zeta = flat / r
    # e^{2t} - zeta^2 = expm1(2t) - 2i sigma zeta with sigma = Im z / |z|,
    # which does not cancel at the kernel's peak near the boundary
    pole = 2j * (flat.imag / r) * zeta
    even_k = -2j * zeta / np.pi     # 2 zeta / (pi i)
    near = (flat.imag < 0.1) & (flat.real != 0.0)
    breaks = [*u.tolist(), *np.log(np.abs(flat.real[near])).tolist(),
              *_singular_breaks(K)]
    if K.symmetric:
        c = K.log(r)
        window = u

        def integrand(s):
            t = np.clip(s[:, None] - u, -_T_CLIP, _T_CLIP)
            k = even_k * np.exp(t) / (np.expm1(2.0 * t) - pole)
            return (k * (K.log(np.exp(s))[:, None] - c)).view(float)
    else:
        # log K = E + O on p > 0, E and O its even and odd parts: E meets
        # the even kernel, O the kernel of k(p) - k(-p), which is
        # 2 (1 + z^2) e^{2s} / ((e^{2s} - z^2)(1 + e^{2s})) in s
        c = 0.5 * (K.log(r) + K.log(-r))
        odd_k = -2j * (1.0 / (r * r) + zeta * zeta) / np.pi
        window = np.append(u, 0.0)
        breaks.append(0.0)

        def integrand(s):
            t = np.clip(s[:, None] - u, -_T_CLIP, _T_CLIP)
            p = np.exp(s)
            lp, lm = K.log(p), K.log(-p)
            # e^{2s} / (1 + e^{2s}), without overflow or cancellation
            e = np.exp(-2.0 * np.abs(s))
            odd = np.where(s < 0.0, e, 1.0) / (1.0 + e) * (0.5 * (lp - lm))
            k = (even_k * np.exp(t) * (0.5 * (lp + lm)[:, None] - c)
                 + odd_k * odd[:, None])
            return (k / (np.expm1(2.0 * t) - pole)).view(float)

    val = _log_window(integrand, window, breaks)
    out = C * np.exp(c + val[0::2] + 1j * val[1::2])
    return complex(out[0]) if zs.ndim == 0 else out.reshape(zs.shape)


def out_on_axis(K: BoundaryModulus, lam):
    """Out(K)(i lam) = exp((1/pi) int lam/(p^2+lam^2) log K(p) dp), K even.

    Strictly positive real; the stable route for points on the imaginary
    axis (no branch noise).  lam is a float (a float is returned) or an
    array (an array of the same shape).  In p = e^s, lam = e^u the
    exponent is log K(lam) + (1/pi) int_R sech(s - u) (log K(e^s) -
    log K(lam)) ds, and every lam is one component of one integrate_batched
    pass (tail bound at _LOG_TAIL), within max(1e-12, 1e-10 |.|).  A K with
    a rational form makes no pass: Out(K)(i lam) = a R(lam), to roundoff.
    """
    if not K.symmetric:
        raise ValueError("axis formula requires a symmetric modulus")
    lams = np.asarray(lam, dtype=float)
    flat = lams.ravel()
    if not (np.isfinite(flat) & (flat > 0)).all():
        raise ValueError("axis point must satisfy lam > 0")
    if K.rational is not None:
        out = _rational_outer(K, flat)
        return float(out[0]) if lams.ndim == 0 else out.reshape(lams.shape)
    u = np.log(flat)
    c = K.log(flat)

    def integrand(s):
        t = np.clip(s[:, None] - u, -_T_CLIP, _T_CLIP)
        return (K.log(np.exp(s))[:, None] - c) / (np.pi * np.cosh(t))

    # the sech kernel is smooth, so the lam are no panel edges: as edges,
    # 1365 lam (t_map of a 64-row table) took 1.0 s instead of 0.04 s
    out = np.exp(c + _log_window(integrand, u, _singular_breaks(K)))
    return float(out[0]) if lams.ndim == 0 else out.reshape(lams.shape)


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
    [log min|x| - T, log max|x| + T] (integrate_batched, T = _LOG_TAIL;
    the tail bound is at its definition), so K is evaluated once per node
    for every x at once; the test is componentwise, so each phase meets
    max(1e-12, 1e-10 |phase|) on its own.

    A K with a rational form makes no pass: the phase is -2 arg R(ix) =
    2 [sum atan(x/l_i) - sum atan(x/s_k)], odd in x, to roundoff.
    """
    if not K.symmetric:
        raise ValueError("boundary phase formula requires a symmetric modulus")
    x = np.asarray(x, dtype=float)
    if not x.all():
        raise ValueError("phase undefined at x = 0")
    if K.rational is not None:
        # arg Out(K)(x) = arg R(-ix) = sum atan(x/l_i) - sum atan(x/s_k),
        # a pair's two terms taken as one, atan(x (s - l) / (l s + x^2)):
        # 64 separate terms near pi/2 left the sum 2.4e-14 off at x = 1e4
        _, s, l, m = _paired(K)
        xs = x[..., None]
        terms = (np.arctan2(xs * (s[:m] - l[:m]), l[:m] * s[:m] + xs * xs),
                 np.arctan2(xs, l[m:]), -np.arctan2(xs, s[m:]))
        delta = 2.0 * sum(t.sum(axis=-1) for t in terms)
        return delta if delta.ndim else float(delta)
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

    val = integrate_batched(integrand, u.min() - _LOG_TAIL,
                            u.max() + _LOG_TAIL, _LOG_QUADRATURE)
    delta = np.where(x.ravel() > 0, val, -val).reshape(x.shape)
    return delta if delta.ndim else float(delta)


@dataclass
class OuterFunction:
    """The outer function Out(C, K); a call takes one point or an array."""

    K: BoundaryModulus
    C: complex = 1.0 + 0.0j

    def __call__(self, z):
        return out_eval(self.C, self.K, z)

    def on_axis(self, lam):
        return out_on_axis(self.K, lam)


# -- measure-driven constructions --------------------------------------------

# Newton takes 1-4 steps from eigvalsh's roots; the bound only stops a root
# that the safeguard has to bisect first
_SECULAR_STEPS = 100


def _secular_roots(d: NDArray[np.float64], c: NDArray[np.float64],
                   b: float) -> NDArray[np.float64]:
    """The roots r of f(r) = b + sum_i c_i / (d_i - r), ascending, for
    distinct ascending d_i >= 0, c_i > 0 and b >= 0: one in each
    (d_k, d_{k+1}), and one in (d_n, d_n + sum c / b) when b > 0.

    They are the eigenvalues of diag(d) + u u^T / b, u = sqrt(c), when
    b > 0, and otherwise those of diag(d) compressed to the complement of
    q = u / |u|, the trailing block of H diag(d) H for the Householder
    reflector H = I - v v^T / v_1, v = q + e_1, which maps q to -e_1 (Golub,
    "Some modified matrix eigenvalue problems", SIAM Review 15, 1973).
    eigvalsh finds them only to within about eps max(d, |u|^2 / b): 6e-8
    relative for atoms at 1e-3, 1 and 1e3 and atom_inf = 1e-3.  So each is
    polished in tau = r - d_j, d_j the nearer pole of its interval (exact
    differences d_i - d_j where they are small), by safeguarded Newton
    steps on tau f = tau psi(tau) - c_j, psi the other terms of f: without
    the pole, Newton does not overshoot a root that lies next to it.
    """
    u = np.sqrt(c)
    if b > 0:
        r = np.linalg.eigvalsh(np.diag(d) + np.outer(u, u) / b)
        ends = np.append(d, d[-1:] + c.sum() / b)
    else:
        v = u / np.linalg.norm(u)
        v[0] += 1.0
        h = np.eye(d.size) - np.outer(v, v) / v[0]
        r = np.linalg.eigvalsh(((h * d) @ h)[1:, 1:])
        ends = d
    k = np.arange(r.size)
    lo, hi = ends[k], ends[k + 1]
    j = np.where((k + 1 < d.size) & (hi - r < r - lo), k + 1, k)
    delta = d[:, None] - d[j]
    delta[j, k] = np.inf            # psi: f without the pole at d_j
    lo, hi, tau = lo - d[j], hi - d[j], r - d[j]
    for _ in range(_SECULAR_STEPS):
        tau = np.where((tau > lo) & (tau < hi), tau, 0.5 * (lo + hi))
        q = c[:, None] / (delta - tau)
        psi = b + q.sum(axis=0)
        g = tau * psi - c[j]        # tau f(d_j + tau)
        lo = np.where(g * tau < 0, tau, lo)
        hi = np.where(g * tau > 0, tau, hi)
        step = g / (psi + tau * (q * q / c[:, None]).sum(axis=0))
        tau = tau - step
        if (np.abs(step) <= 4 * np.finfo(float).eps * (d[j] + tau)).all():
            break
    return d[j] + tau


def _sqrt_psi_modulus(nu: BoundaryMeasure) -> BoundaryModulus:
    """K = sqrt(psi_big(nu, .)): a closed-form numpy sum on atoms; with
    density pieces an array of nodes is one batched psi_big call, whose
    values are cached on nu by p^2.

    A measure without density gets K's rational form too.  With c_i =
    w_i (1 + l_i^2) for the interior atoms, and c = atom0 for a pole at
    l = 0,

        pi psi_big(p) = atom_inf + sum c_i / (p^2 + l_i^2)
                      = lead prod (p^2 + r_k) / prod (p^2 + l_i^2),

    lead = atom_inf if positive, else sum c_i, and the -r_k are the roots
    of the numerator in p^2 (_secular_roots).  So K has a = sqrt(lead/pi),
    zeros s_k = sqrt(r_k) and poles l_i.  Atoms of weight 0 are no poles.
    """
    if nu.is_zero:
        raise ValueError("the zero measure has no outer function")
    rational = None
    if not nu.density:
        lam, w = np.array(sorted(nu.atoms), dtype=float).reshape(-1, 2).T
        poles, c = lam[w > 0], (w * (1.0 + lam * lam))[w > 0]
        if nu.atom0 > 0:
            poles, c = np.append(0.0, poles), np.append(nu.atom0, c)
        if not (c.size or nu.atom_inf):
            raise ValueError("the measure has no mass: psi_big vanishes")
        r = _secular_roots(poles * poles, c, nu.atom_inf) if c.size else c
        lead = nu.atom_inf if nu.atom_inf > 0 else c.sum()
        rational = (math.sqrt(lead / np.pi), tuple(np.sqrt(r).tolist()),
                    tuple(poles.tolist()))
    return BoundaryModulus(lambda p: np.sqrt(psi_big(nu, p)), (0.0,), True,
                           name="sqrt(psi)", rational=rational)


def _phase(nu: BoundaryMeasure, x) -> NDArray[np.float64]:
    """arg F_nu(x) - arg F_nu(-x) for scalar or array x.

    Every read of the boundary phase goes through here: the values are
    cached on nu per |x|, so the result is odd in x by construction.
    """
    x = np.asarray(x, dtype=float)
    d = nu.cached("phase", np.abs(x), lambda ax: boundary_phase_difference(
        _sqrt_psi_modulus(nu), ax))
    return np.where(x > 0, d, -d)


def f_nu(nu: BoundaryMeasure) -> OuterFunction:
    """The outer function with boundary modulus sqrt(psi_big(nu, .))."""
    return OuterFunction(_sqrt_psi_modulus(nu))


def f_nu_axis(nu: BoundaryMeasure, lam):
    """F_nu(i lam), real and positive, for scalar or array lam > 0.

    The values are cached on nu, where t_map reads them too.
    """
    v = nu.cached("axis", lam,
                  lambda todo: out_on_axis(_sqrt_psi_modulus(nu), todo))
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
    return SymbolFunction(lambda x: h_nu(nu, np.atleast_1d(x)), name="h_nu")


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
    return _t_map(nu, _sqrt_psi_modulus(nu))


def _t_map(nu: BoundaryMeasure, K: BoundaryModulus) -> BoundaryMeasure:
    """t_map(nu) with nu's modulus K = _sqrt_psi_modulus(nu) already built."""
    def factor(lam):
        a = nu.cached("axis", lam, partial(out_on_axis, K))
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
