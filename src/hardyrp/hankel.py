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

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray
# the benchmark's tracer wraps every module's quad binding, this one included
from scipy.integrate import quad  # noqa: F401

from .hardy import KernelCombination, szego
from .measures import BoundaryMeasure, w_map
from .numerics import QuadratureConfig, integrate_batched
from .symbols import (BoundaryModulus, OuterFunction, _log_window,
                      _pole_residues, _sqrt_psi_modulus, _t_map,
                      f_nu_boundary, h_nu, out_on_axis)

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

# vector integrals against a form measure (Gram entries, symbol values,
# compactness bands): relative 1e-10 per component; the absolute floor
# keeps the test defined on components that are exactly 0 (the imaginary
# parts of the diagonal) or far below the form's scale
_FORM_QUADRATURE = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-10,
                                    max_subdivisions=2000)
# the right-hand side of os_isometry_check integrates against t_map(nu),
# whose density weight needs F_nu(il), and so psi_big up to p = l e^40
# (symbols._LOG_TAIL).  On a heavy-tailed density psi_big meets its
# tolerance only up to about p = e^270, so that integral is cut at l = e^100
# instead of e^300.  Its integrand, |Q_z(il)|^2 ~ 1/l^2 times the density of
# t_map(nu), is 2e-45 there on the Lebesgue-Cauchy measure, and
# BoundaryMeasure.integrate raises when it has not decayed at the cut
_OS_LOG_CUT = 100.0
# phi(t) for every t at once: the closed-form kernel is smooth in log l,
# so relative 1e-12 costs next to nothing
_PHI_QUADRATURE = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-12,
                                   max_subdivisions=2000)
# phi_from_psi's lower limit of integration in p, which allows t up to 1e8
_P_MIN = 1e-16
# rp_certify's PSD floor, relative to the largest |eigenvalue| (at least 1)
_RP_TOL = 1e-8


def _mass_matrix(anchors: Sequence[complex]) -> NDArray[np.complex128]:
    z = np.asarray(anchors, dtype=complex)
    # <Q_{z_j}, Q_{z_k}> = Q_{z_k}(z_j)
    return np.array([[szego(zk, zj) for zk in z] for zj in z])


def _kernels(z: NDArray[np.complex128], x) -> NDArray[np.complex128]:
    """Q_{z_j}(x_i), the points x_i in rows and the anchors z_j in columns."""
    return (0.5j / np.pi) / (x[:, None] - np.conj(z))


def _boundary_pairing(fn: Callable, scales) -> NDArray[np.complex128]:
    """int_R fn(x) dx for fn mapping n real points to an (n, m) complex
    array, the m components of the integrand.

    One integrate_batched pass in s = log|x| pairs x = e^s with x = -e^s:
    the integrand is e^s (fn(e^s) + fn(-e^s)), with fn called once per
    block of nodes on both points, and its real and imaginary parts are
    the components.  So a term like c/x at 0 or at infinity is taken as a
    symmetric principal value.  The window, its panel edges and the
    tolerance, max(1e-12, 1e-10 |.|) per component, are _log_window's
    around log|scales|, scales being the kernel anchors in fn.

    The pairings here are Szego kernels against a unimodular symbol or
    F_nu, and T = _LOG_TAIL.  Above the window two kernels against a
    symbol give e^s |Q_z(e^s)|^2 < e^{-s} / (2 pi^2), a tail below
    e^{-T} / (2 pi^2 max|z|).  One kernel against F_nu decays only as
    |F_nu(x)| does: where psi_big ~ 1/p (a density ~ 1/l^2 at infinity)
    the tail is of order e^{-T/2}, 6e-12 in fixed_point_deviation on
    Cauchy's density, and a heavier density leaves more.  Below the window
    |x| <= e^{-T} min|z|, so the tail is at most e^{-T} min|z| sup |fn|
    near 0; for F_nu that is sqrt(psi_big(nu, 0)), 5.6e5 on a density
    near 1 down to l = 1e-12.  An integrand that oscillates at large |x|,
    such as e^{itx} times two kernels, meets the tolerance only when it
    decays faster than the oscillation grows in s.
    """
    def integrand(s):
        x = np.exp(s)
        v = np.asarray(fn(np.concatenate([x, -x])), dtype=complex)
        return ((v[:s.size] + v[s.size:]) * x[:, None]).view(float)

    val = _log_window(integrand, np.log(np.abs(scales)), [])
    return val[0::2] + 1j * val[1::2]


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
    """G_jk = int conj(Q_{z_j}(il)) Q_{z_k}(il) dmu(l) for mu on (0, inf).

    The real and imaginary parts of the n(n+1)/2 entries j <= k are the
    components of one vector integral against mu
    (BoundaryMeasure.integrate): atoms are one numpy sum, and each
    density piece is one Gauss-Kronrod pass in log l that evaluates the
    density once per node for every entry.  Each component meets relative
    1e-10 with an absolute floor of 1e-14.  Raises ValueError when the form
    diverges (a density whose integrand has not decayed at the cut
    l = e^300) and QuadratureError when a pass spends its panel budget.
    """
    if mu.atom0 > 0 or mu.atom_inf > 0:
        raise ValueError("the form measure must be supported on (0, inf)")
    M = _mass_matrix(anchors)       # validates the anchors first
    z = np.asarray(anchors, dtype=complex)
    n = z.size
    jj, kk = np.triu_indices(n)
    m = jj.size

    def entries(lam):
        Q = _kernels(z, 1j * lam)                           # Q_{z_j}(il)
        P = np.empty((lam.size, m), dtype=complex)
        start = 0
        # row by row of the upper triangle, straight into P: no complex
        # temporary is larger than one row
        for j in range(n):
            np.multiply(np.conj(Q[:, j, None]), Q[:, j:],
                        out=P[:, start:start + n - j])
            start += n - j
        return P.view(float)    # real and imaginary parts interleaved

    v = mu.integrate(entries, _FORM_QUADRATURE)
    G = np.empty((n, n), dtype=complex)
    G[jj, kk] = v[0::2] + 1j * v[1::2]
    G[kk, jj] = np.conj(G[jj, kk])
    return HankelGram(tuple(anchors), G, M)


def gram_from_symbol(h: Callable, anchors: Sequence[complex]) -> HankelGram:
    """G_jk = int conj(Q_{z_j}(x)) h(x) Q_{z_k}(-x) dx.

    The n^2 entries are the components of one _boundary_pairing pass, which
    evaluates h once per node for every entry.
    """
    M = _mass_matrix(anchors)       # validates the anchors first
    z = np.asarray(anchors, dtype=complex)
    n = z.size

    def entries(x):
        hq = np.conj(_kernels(z, x)) * np.asarray(h(x), dtype=complex)[:, None]
        return (hq[:, :, None] * _kernels(z, -x)[:, None, :]).reshape(x.size, -1)

    G = _boundary_pairing(entries, z).reshape(n, n)
    return HankelGram(tuple(anchors), G, M)


def symbol_from_measure(mu: BoundaryMeasure, p):
    """The bounded symbol h(p) = (i/pi) int p/(l^2+p^2) dmu(l) of H_mu.

    p is a float (a complex is returned) or an array (an array of the same
    shape); every p is a component of one vector integral against mu.
    """
    if mu.atom0 > 0 or mu.atom_inf > 0:
        raise ValueError("the form measure must be supported on (0, inf)")
    ps = np.asarray(p, dtype=float)
    flat = ps.ravel()
    if not flat.all():
        raise ValueError("symbol undefined at p = 0")
    val = mu.integrate(
        lambda lam: flat / ((lam * lam)[:, None] + flat * flat),
        _FORM_QUADRATURE)
    h = 1j * val / np.pi
    return complex(h[0]) if ps.ndim == 0 else h.reshape(ps.shape)


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
    w, _ = np.linalg.eigh((B + B.conj().T) / 2)
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

    Densities reaching toward 0 are probed on up to 48 dyadic bands below
    min(b, 1); when there are at least 8, band means that stop decaying
    (the last four above half the first four) flag a divergent integral.
    The bands of a piece are the components of one integrate_batched pass
    in v = log l, int piece(l)/l dl = int piece(e^v) dv, with the band
    edges and the table kinks as breakpoints, so no panel straddles either.
    """
    if mu.atom_inf > 0 or mu.atom0 > 0:
        raise ValueError("the form measure must be supported on (0, inf)")
    for piece in mu.density:
        edges = [min(piece.b, 1.0)]
        while edges[-1] > piece.a * (1.0 + 1e-9) and len(edges) <= 48:
            edges.append(max(piece.a, edges[-1] / 2.0))
        if len(edges) <= 8:
            continue        # too few bands to judge the decay
        v = np.log(edges[::-1])

        def bands(s):
            out = np.zeros((s.size, v.size - 1))
            band = np.searchsorted(v, s) - 1
            out[np.arange(s.size), band] = piece(np.exp(s))
            return out

        # band integrals from l = min(b, 1) down toward a
        vals = integrate_batched(bands, v[0], v[-1], _FORM_QUADRATURE,
                                 [*v[1:-1], *np.log(piece.kinks)])[::-1]
        # convergent tails decay geometrically toward 0
        head, tail = vals[:4].mean(), vals[-4:].mean()
        if head > 0 and tail > 0.5 * head:
            return False
    return True


def _phi_kernel(lam: NDArray[np.float64],
                t: NDArray[np.float64]) -> NDArray[np.float64]:
    """int_{p_min}^inf cos(tp) (1+l^2)/(p^2+l^2) dp, rows l, columns t,
    p_min = _P_MIN.

    With cos(tp) = 1 on [0, p_min] and int_0^inf cos(tp)/(p^2+l^2) dp =
    pi e^{-lt}/(2l) this is (1+l^2)[(pi/2) expm1(-lt) + arctan(l/p_min)]/l,
    which does not cancel for l << p_min or for small lt.  Where lt >= 1 the
    same value is written (pi/2) e^{-lt} - arctan(p_min/l), which does not
    cancel when e^{-lt} underflows against 1.
    """
    lt = lam[:, None] * t
    near = (np.pi / 2) * np.expm1(-lt) + np.arctan(lam / _P_MIN)[:, None]
    far = (np.pi / 2) * np.exp(-lt) - np.arctan(_P_MIN / lam)[:, None]
    return (1.0 / lam + lam)[:, None] * np.where(lt < 1.0, near, far)


def phi_from_psi(nu: BoundaryMeasure, t):
    """phi(t) = int exp(-itp) psi_big(nu, p) dp, the correlation function.

    psi_big is even, so this is 2 int_0^inf cos(tp) psi_big dp; the lower
    limit is regularized at p_min = _P_MIN, which shifts every phi(t) by the
    same positive constant when psi ~ 1/|p| near 0 and leaves the positivity
    of the Gram matrix [phi(t_j + t_k)] unchanged.

    t is a float (a float is returned) or an array (an array of the same
    shape).  By Fubini, phi(t) = (2/pi) int K(l, t) dnu(l) with the exact
    inner integral K = _phi_kernel, so every t is a component of one
    vector integral against nu; the atom at 0 contributes
    K(0, t) = 1/p_min - pi t/2 and the atom at infinity, for t > 0,
    K(inf, t) = -p_min.  Both use cos(tp) = 1 on [0, p_min], so t p_min
    must stay below 1e-8: |t| <= 1e8.  phi(0) diverges, and ValueError says
    so, when nu has an atom at infinity or a density whose t = 0 integrand
    has not decayed at the cut l = e^300.
    """
    ts = np.abs(np.asarray(t, dtype=float))
    flat = ts.ravel()
    if flat.size and flat.max() * _P_MIN > 1e-8:
        raise ValueError("phi_from_psi needs t p_min <= 1e-8")
    at_inf = None
    if nu.atom_inf > 0:
        if not flat.all():
            raise ValueError("phi(0) diverges: the atom at infinity makes "
                             "psi_big tend to a positive constant; choose "
                             "times above 0")
        at_inf = np.full(flat.shape, -_P_MIN)
    try:
        val = (2.0 / np.pi) * nu.integrate(
            lambda lam: _phi_kernel(lam, flat), _PHI_QUADRATURE,
            at_zero=1.0 / _P_MIN - (np.pi / 2) * flat, at_inf=at_inf)
    except ValueError as exc:
        if flat.all():
            raise
        # when the times above 0 converge on their own, t = 0 diverges
        phi_from_psi(nu, flat[flat > 0] if flat.any() else 1.0)
        raise ValueError("phi(0) diverges: the t = 0 integrand of the density "
                         "has not decayed at the cut, so int psi_big dp is "
                         "infinite; choose times above 0") from exc
    return float(val[0]) if ts.ndim == 0 else val.reshape(ts.shape)


def _time_sums(times: Sequence[float]) -> tuple[list[float], list[float]]:
    times = [float(t) for t in times]
    if any(t < 0 for t in times):
        raise ValueError("times must be nonnegative")
    return times, sorted({tj + tk for tj in times for tk in times})


def rp_matrix(phi: Callable[[float], float],
              times: Sequence[float]) -> NDArray[np.float64]:
    """The reflection-positivity Gram matrix [phi(t_j + t_k)]."""
    times, sums = _time_sums(times)
    cache = {s: phi(s) for s in sums}
    return np.array([[cache[tj + tk] for tk in times] for tj in times])


def rp_certify(nu: BoundaryMeasure,
               times: Sequence[float]) -> tuple[bool, float]:
    """Reflection positivity of nu through the Fourier route.

    Builds phi = (Fourier transform of psi_big(nu, .)) at every distinct
    sum t_j + t_k in one phi_from_psi call and checks the matrix
    [phi(t_j + t_k)] for positive semidefiniteness relative to its scale
    (smallest eigenvalue >= -_RP_TOL max(1, largest |eigenvalue|)).
    Raises ValueError when phi(0) diverges and 0 is among the times.
    """
    if nu.is_zero:
        raise ValueError("reflection positivity is undefined for the zero measure")
    _, sums = _time_sums(times)
    phi = dict(zip(sums, phi_from_psi(nu, np.array(sums)).tolist()))
    A = rp_matrix(phi.__getitem__, times)
    w, _ = np.linalg.eigh(A.astype(complex))
    scale = max(1.0, float(np.abs(w).max()))
    return bool(w.min() >= -_RP_TOL * scale), float(w.min())


def os_isometry_check(nu: BoundaryMeasure, f: KernelCombination,
                      g: KernelCombination) -> tuple[complex, complex, float]:
    """Compare <f, theta_{h_nu} g> with its L^2(T nu) representation.

    lhs is the boundary integral of conj(f(x)) h_nu(x) g(-x); rhs is
    int conj(f(il)) g(il) d(T nu)(l).  Returns (lhs, rhs, deviation).

    For a measure of atoms alone h_nu is rational, and lhs is a residue
    sum (_residue_pairing); otherwise it is one _boundary_pairing pass.
    """
    if nu.is_zero:
        raise ValueError("the zero measure has no symbol")
    if not f.terms or not g.terms:
        return 0.0 + 0.0j, 0.0 + 0.0j, 0.0
    K = _sqrt_psi_modulus(nu)
    if K.rational is not None:
        lhs = _residue_pairing(K, f, g)
    else:
        lhs = complex(_boundary_pairing(
            lambda x: (np.conj(f(x)) * h_nu(nu, x) * g(-x))[:, None],
            [z for _, z in f.terms + g.terms])[0])

    def rhs_fn(lam):
        v = np.conj(f(1j * lam)) * g(1j * lam)
        return np.stack([v.real, v.imag], axis=1)

    re, im = _t_map(nu, K).integrate(rhs_fn, _FORM_QUADRATURE,
                                     log_cut=_OS_LOG_CUT)
    rhs = complex(re, im)
    scale = max(abs(lhs), abs(rhs), 1e-30)
    return lhs, rhs, abs(lhs - rhs) / scale


def _residue_pairing(K: BoundaryModulus, f: KernelCombination,
                     g: KernelCombination) -> complex:
    """int conj(f(x)) h(x) g(-x) dx for h = Out(K)(x) / Out(K)(-x) with K
    rational, by closing the contour in the lower half-plane.

    There conj(f(x)) g(-x) is analytic and O(1/x^2), and h = R(-ix)/R(ix)
    has its only poles at x = -i l_i, l_i > 0 (a pole at l = 0 makes the
    constant factor -1), with -2 pi i Res h = -2 pi i c_i / Out(K)(i l_i)
    (_pole_residues).  So the integral is sum_i rho_i conj(f(i l_i))
    g(i l_i), rho_i = -2 pi i c_i / Out(K)(i l_i).
    """
    l, c = _pole_residues(K)
    l, c = l[l > 0], c[l > 0]
    rho = -2j * np.pi * c / out_on_axis(K, l)
    return complex(np.sum(rho * np.conj(f(1j * l)) * g(1j * l)))


def _residue_fixed_point(K: BoundaryModulus,
                         z: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """<Q_z, H_h F> for F = Out(K), h = F / (F o (-id)), K rational, at
    every anchor z.

    The integrand conj(Q_z(x)) h(x) F(-x) is conj(Q_z(x)) F(x), and F(x) =
    a [#zeros = #poles] + sum_i c_i / (x + i l_i) (_pole_residues).  Each
    pole term with l_i > 0 lies in H^2 and pairs to c_i / (z + i l_i).  The
    constant and a pole at x = 0 (an atom at 0) are not in H^2: taken as
    symmetric principal values, as _boundary_pairing takes them, they give
    a/2 and c_i / (2 z).
    """
    a, zeros, poles = K.rational
    l, c = _pole_residues(K)
    c = np.where(l > 0, c, 0.5 * c)
    out = (c / (z[:, None] + 1j * l)).sum(axis=1)
    return out + 0.5 * a if len(zeros) == len(poles) else out


def fixed_point_check(mu: BoundaryMeasure,
                      anchors: Sequence[complex]) -> float:
    """Max deviation of <Q_z, H_{h_nu} F_nu> from F_nu(z), nu = W(mu).

    F_nu is a fixed point of the Hankel operator of its own symbol; the
    two sides are computed independently (fixed_point_deviation).
    """
    if mu.is_zero:
        raise ValueError("the fixed-point test needs a nonzero measure")
    nu = w_map(mu)
    return fixed_point_deviation(nu, anchors)


def fixed_point_deviation(nu: BoundaryMeasure,
                          anchors: Sequence[complex]) -> float:
    """max over the anchors z of |<Q_z, H_{h_nu} F_nu> - F_nu(z)|.

    The form is a residue sum (_residue_fixed_point) for a measure of atoms
    alone and otherwise one _boundary_pairing pass of conj(Q_z(x)) h_nu(x)
    F_nu(-x), one component per anchor; F_nu(z) is the outer function's
    own evaluation.
    """
    K = _sqrt_psi_modulus(nu)
    z = np.asarray(anchors, dtype=complex)
    rhs = OuterFunction(K)(z)
    if K.rational is not None:
        lhs = _residue_fixed_point(K, z)
    else:
        lhs = _boundary_pairing(lambda x: np.conj(_kernels(z, x)) * (
            h_nu(nu, x) * f_nu_boundary(nu, -x))[:, None], z)
    return float(np.abs(lhs - rhs).max(initial=0.0))
