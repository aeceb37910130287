"""Hankel operators from Carleson measures and from boundary symbols.

A positive Hankel operator H on the Hardy space corresponds to a measure mu
on (0, inf) through the quadratic form <f, H_mu g> = int conj(f(il)) g(il)
dmu(l); a bounded symbol h gives H_h = p_+ theta_h p_+^*.  Both are probed
through finite Gram sections on a family of kernel anchors, which yield
positivity verdicts, operator-norm lower bounds, compactness tests, the
reflection-positivity certificate, the Osterwalder-Schrader isometry check,
and the fixed-point test for symbols built from measures.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray
from scipy.integrate import IntegrationWarning, quad

from .hardy import BoundaryGrid, KernelCombination, boundary_nodes, szego
from .measures import BoundaryMeasure, psi_big, w_map
from .numerics import eig_hermitian
from .symbols import f_nu, f_nu_boundary, h_nu, t_map

__all__ = [
    "HankelGram",
    "CertifyResult",
    "default_anchors",
    "gram_from_measure",
    "gram_from_symbol",
    "symbol_from_measure",
    "certify_positive",
    "pencil_eigenvalues",
    "compactness_check",
    "rp_matrix",
    "rp_certify",
    "phi_from_psi",
    "os_isometry_check",
    "fixed_point_check",
    "fixed_point_deviation",
]

HERM_TOL = 1e-8
PIVOT_TOL = 1e-12


def _mass_matrix(anchors: Sequence[complex]) -> NDArray[np.complex128]:
    z = np.asarray(anchors, dtype=complex)
    # <Q_{z_j}, Q_{z_k}> = Q_{z_k}(z_j)
    return np.array([[szego(zk, zj) for zk in z] for zj in z])


@dataclass(frozen=True)
class HankelGram:
    """Finite section of a Hankel form on a family of kernel anchors."""

    anchors: tuple[complex, ...]
    G: NDArray[np.complex128]
    M: NDArray[np.complex128]

    def __post_init__(self):
        anchors = tuple(complex(z) for z in self.anchors)
        if any(z.imag <= 0 for z in anchors):
            raise ValueError("anchors must lie in the open upper half-plane")
        n = len(anchors)
        G = np.asarray(self.G, dtype=complex)
        M = np.asarray(self.M, dtype=complex)
        if G.shape != (n, n) or M.shape != (n, n):
            raise ValueError("Gram matrices must match the anchor count")
        scale = max(1.0, float(np.abs(G).max()))
        if np.abs(G - G.conj().T).max() > HERM_TOL * scale:
            raise ValueError("H-form matrix is not Hermitian to tolerance")
        if np.abs(M - M.conj().T).max() > HERM_TOL:
            raise ValueError("mass matrix is not Hermitian")
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "G", (G + G.conj().T) / 2)
        object.__setattr__(self, "M", (M + M.conj().T) / 2)


def default_anchors(count: int = 10) -> tuple[complex, ...]:
    """Log-spaced anchors on the imaginary axis plus a few off-axis points.

    The point i always comes first, so rank-one examples anchored there
    saturate their norm bound within the section.
    """
    axis = [1j * t for t in np.logspace(-1, 1, max(2, count - 4))]
    off = [1.0 + 1.0j, -1.0 + 2.0j, 0.5 + 0.5j, 2.0 + 0.3j]
    pts = [1j] + [z for z in axis if abs(z - 1j) > 1e-12] + off
    return tuple(pts[:count])


def gram_from_measure(mu: BoundaryMeasure,
                      anchors: Sequence[complex]) -> HankelGram:
    """G_jk = int conj(Q_{z_j}(il)) Q_{z_k}(il) dmu(l) for mu on (0, inf)."""
    if mu.atom0 > 0 or mu.atom_inf > 0:
        raise ValueError("the form measure must be supported on (0, inf)")
    z = np.asarray(anchors, dtype=complex)
    n = len(z)
    G = np.empty((n, n), dtype=complex)
    for j in range(n):
        for k in range(j, n):
            def fn(lam, zj=z[j], zk=z[k]):
                return np.conj(szego(zj, 1j * lam)) * szego(zk, 1j * lam)
            val = complex(
                mu.integrate(lambda lam: fn(lam).real)
                + 1j * mu.integrate(lambda lam: fn(lam).imag)
            )
            if not (math.isfinite(val.real) and math.isfinite(val.imag)):
                raise ValueError("form diverges; measure is not Carleson here")
            G[j, k] = val
            G[k, j] = np.conj(val)
    return HankelGram(tuple(anchors), G, _mass_matrix(anchors))


def gram_from_symbol(h: Callable, anchors: Sequence[complex],
                     n: int = 4096) -> HankelGram:
    """G_jk = int conj(Q_{z_j}(x)) h(x) Q_{z_k}(-x) dx by boundary quadrature."""
    x, w = boundary_nodes(n)
    hv = np.asarray(h(x), dtype=complex)
    z = np.asarray(anchors, dtype=complex)
    Q = np.array([szego(zj, x) for zj in z])          # Q[j] = Q_{z_j} on grid
    Qneg = np.array([szego(zk, -x) for zk in z])
    G = (np.conj(Q) * (w * hv)) @ Qneg.T
    return HankelGram(tuple(anchors), G, _mass_matrix(anchors))


def symbol_from_measure(mu: BoundaryMeasure, p) -> complex:
    """The bounded symbol h(p) = (i/pi) int p/(l^2+p^2) dmu(l) of H_mu."""
    if mu.atom0 > 0 or mu.atom_inf > 0:
        raise ValueError("the form measure must be supported on (0, inf)")
    if np.ndim(p) > 0:
        return np.array([symbol_from_measure(mu, pj) for pj in p])
    p = float(p)
    if p == 0.0:
        raise ValueError("symbol undefined at p = 0")
    val = mu.integrate(lambda lam: p / (lam * lam + p * p))
    return 1j * val / np.pi


def pencil_eigenvalues(g: HankelGram) -> NDArray[np.float64]:
    """Ascending eigenvalues of the pencil (G, M), M factored by Cholesky.

    The smallest Cholesky pivot must exceed sqrt(1e-12) relative to the
    largest; a smaller pivot means clustered anchors and demands a new
    anchor set rather than a regularized answer.
    """
    try:
        L = np.linalg.cholesky(g.M)
    except np.linalg.LinAlgError as exc:
        raise ValueError("mass matrix is singular; re-select anchors") from exc
    d = np.diag(L).real
    if d.min() ** 2 < PIVOT_TOL * d.max() ** 2:
        raise ValueError("mass matrix is near-singular; re-select anchors")
    Linv = np.linalg.inv(L)
    B = Linv @ g.G @ Linv.conj().T
    # roundoff in the whitening is amplified by cond(M); resymmetrize
    w, _ = eig_hermitian((B + B.conj().T) / 2)
    return w


class CertifyResult(NamedTuple):
    psd: bool
    min_eig: float
    norm_lower_bound: float

    def to_json(self) -> dict:
        return {"psd": self.psd, "min_eig": self.min_eig,
                "norm_lower_bound": self.norm_lower_bound}


def certify_positive(g: HankelGram, tol: float = 1e-10) -> CertifyResult:
    """PSD verdict for the form; the largest |eigenvalue| bounds ||H|| below."""
    w = pencil_eigenvalues(g)
    return CertifyResult(bool(w.min() >= -tol), float(w.min()),
                         float(np.abs(w).max()))


def compactness_check(mu: BoundaryMeasure) -> bool:
    """True iff int 1/l dmu(l) < inf, the compactness criterion for H_mu.

    Densities reaching toward 0 are probed on dyadic bands; contributions
    that stop decaying flag a divergent integral.
    """
    if mu.atom_inf > 0 or mu.atom0 > 0:
        raise ValueError("the form measure must be supported on (0, inf)")
    for piece in mu.density:
        bands = []
        hi = min(piece.b, 1.0)
        while hi > piece.a * (1.0 + 1e-9) and len(bands) < 48:
            lo = max(piece.a, hi / 2.0)
            v, _ = quad(lambda l: piece(l) / l, lo, hi, limit=200)
            bands.append(v)
            hi = lo
        # convergent tails decay geometrically toward 0
        if len(bands) >= 8:
            head = sum(bands[:4]) / 4.0
            tail = sum(bands[-4:]) / 4.0
            if head > 0 and tail > 0.5 * head:
                return False
    return True


def phi_from_psi(nu: BoundaryMeasure, t: float, p_min: float = 1e-16) -> float:
    """phi(t) = int exp(-itp) psi_big(nu, p) dp, the correlation function.

    psi_big is even, so this is 2 int_0^inf cos(tp) psi_big dp; the lower
    limit is regularized at p_min, which shifts every phi(t) by the same
    positive constant when psi ~ 1/|p| near 0 and leaves the positivity of
    the Gram matrix [phi(t_j + t_k)] unchanged.
    """
    f = lambda p: psi_big(nu, p)
    t = abs(float(t))
    segs = [p for p in (p_min, 1e-8, 1e-4, 1e-2, 1.0) if p >= p_min]
    with warnings.catch_warnings():
        # psi ~ 1/p near 0 for measures with mass near the origin; the
        # truncated integral is still the right regularization, so the
        # slow-convergence complaints on the innermost segments are expected
        warnings.simplefilter("ignore", IntegrationWarning)
        inner = sum(
            quad(lambda p: math.cos(t * p) * f(p), lo, hi, limit=200,
                 epsabs=1e-12, epsrel=1e-10)[0]
            for lo, hi in zip(segs[:-1], segs[1:])
        )
    if t == 0.0:
        tail, _ = quad(f, 1.0, np.inf, limit=200, epsabs=1e-12, epsrel=1e-10)
    else:
        tail, _ = quad(f, 1.0, np.inf, weight="cos", wvar=t, limit=200,
                       epsabs=1e-12)
    return 2.0 * (inner + tail)


def rp_matrix(phi: Callable[[float], float],
              times: Sequence[float]) -> NDArray[np.float64]:
    """The reflection-positivity Gram matrix [phi(t_j + t_k)]."""
    times = [float(t) for t in times]
    if any(t < 0 for t in times):
        raise ValueError("times must be nonnegative")
    cache = {s: phi(s) for s in sorted({tj + tk for tj in times for tk in times})}
    return np.array([[cache[tj + tk] for tk in times] for tj in times])


def rp_certify(nu: BoundaryMeasure, times: Sequence[float],
               tol: float = 1e-8) -> tuple[bool, float]:
    """Reflection positivity of nu through the Fourier route.

    Builds phi = (Fourier transform of psi_big(nu, .)) and checks the
    matrix [phi(t_j + t_k)] for positive semidefiniteness relative to its
    scale.
    """
    if nu.is_zero:
        raise ValueError("reflection positivity is undefined for the zero measure")
    A = rp_matrix(lambda t: phi_from_psi(nu, t), times)
    w, _ = eig_hermitian(A.astype(complex))
    scale = max(1.0, float(np.abs(w).max()))
    return bool(w.min() >= -tol * scale), float(w.min())


def os_isometry_check(nu: BoundaryMeasure, f: KernelCombination,
                      g: KernelCombination, n: int = 1024
                      ) -> tuple[complex, complex, float]:
    """Compare <f, theta_{h_nu} g> with its L^2(T nu) representation.

    lhs is the boundary quadrature of conj(f(x)) h_nu(x) g(-x); rhs is
    int conj(f(il)) g(il) d(T nu)(l).  Returns (lhs, rhs, deviation).
    """
    if nu.is_zero:
        raise ValueError("the zero measure has no symbol")
    if not f.terms or not g.terms:
        return 0.0 + 0.0j, 0.0 + 0.0j, 0.0
    x, w = boundary_nodes(n)
    grid_f = BoundaryGrid(x, w, f(x))
    theta_g = h_nu(nu, x) * np.asarray(g(-x), dtype=complex)
    lhs = complex(np.sum(w * np.conj(grid_f.values) * theta_g))

    tnu = t_map(nu)

    def rhs_fn(lam):
        return np.conj(f(1j * lam)) * g(1j * lam)

    rhs = complex(
        tnu.integrate(lambda lam: rhs_fn(lam).real, epsrel=1e-9)
        + 1j * tnu.integrate(lambda lam: rhs_fn(lam).imag, epsrel=1e-9)
    )
    scale = max(abs(lhs), abs(rhs), 1e-30)
    return lhs, rhs, abs(lhs - rhs) / scale


def fixed_point_check(mu: BoundaryMeasure, anchors: Sequence[complex],
                      n: int = 1024) -> float:
    """Max deviation of <Q_z, H_{h_nu} F_nu> from F_nu(z), nu = W(mu).

    F_nu is a fixed point of the Hankel operator of its own symbol; both
    sides are computed by independent quadratures (boundary grid for the
    form, upper-half-plane evaluation for F_nu(z)).
    """
    if mu.is_zero:
        raise ValueError("the fixed-point test needs a nonzero measure")
    nu = w_map(mu)
    return fixed_point_deviation(nu, anchors, n)


def fixed_point_deviation(nu: BoundaryMeasure, anchors: Sequence[complex],
                           n: int = 1024) -> float:
    x, w = boundary_nodes(n)
    tg = h_nu(nu, x) * f_nu_boundary(nu, -x)
    F = f_nu(nu)
    dev = 0.0
    for z in anchors:
        lhs = complex(np.sum(w * np.conj(szego(z, x)) * tg))
        rhs = F(z)
        dev = max(dev, abs(lhs - rhs))
    return dev
