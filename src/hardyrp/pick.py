"""Matrix-valued rational Pick functions.

A rational Pick function is F(z) = C + z D + sum_j A_j / (lambda_j - z) with
C Hermitian, D and the residues A_j positive semidefinite and real poles
lambda_j.  Its degree rk(D) + sum_j rk(A_j) equals the multiplicity of the
one-parameter group it generates; the module computes that number three
independent ways: by ranks, and by two winding-number contour counts pulled
back to a circle of radius r > 1 through the disc model.  winding_counts
gets both contour counts from one pass: one contour plan, one evaluation of
F per block of circle points, and det(F - conj(lam)) shared between the two
curves.  Determinants of 1x1 and 2x2 stacks are closed forms, since
LAPACK's per-matrix overhead costs far more than their arithmetic.

Every evaluation is batched.  pick_eval, and so a RationalPickFunction
called as a function, maps an array of m points to a stack of shape
(m, n, n) and a scalar to one (n, n) matrix; the callables that is_pick,
is_regular, multiplicity_winding, degree_winding, winding_counts and
compose_scalar take must do the same.  A callable that handles only scalars can be wrapped as
np.vectorize(h, signature="()->(n,n)").
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .hardy import cayley, cayley_inverse
from .numerics import (
    CurveSample,
    DegenerateCurveError,
    UnderSampledCurveError,
    winding_number,
)

__all__ = [
    "RationalPickFunction",
    "BlaschkePotapovProduct",
    "MobiusTransform",
    "pick_eval",
    "is_pick",
    "is_regular",
    "default_probes",
    "degree_rank",
    "multiplicity_winding",
    "degree_winding",
    "winding_counts",
    "bp_eval",
    "bp_degree",
    "blaschke_factor",
    "compose_scalar",
    "boundary_unitary",
    "load_pick",
    "dump_pick",
]

RANK_TOL = 1e-9
HERM_TOL = 1e-10
_PICK_TOL = 1e-10
_REGULAR_TOL = 1e-9


def _as_matrix(M, n: int, name: str) -> NDArray[np.complex128]:
    M = np.asarray(M, dtype=complex)
    if M.shape != (n, n):
        raise ValueError(f"{name} must be {n}x{n}")
    return M


def _check_psd(M: NDArray[np.complex128], name: str) -> None:
    if np.linalg.norm(M - M.conj().T) > HERM_TOL * max(1.0, np.linalg.norm(M)):
        raise ValueError(f"{name} must be Hermitian")
    w = np.linalg.eigvalsh(M)
    if w.size and w.min() < -HERM_TOL * max(1.0, abs(w).max()):
        raise ValueError(f"{name} must be positive semidefinite")


@dataclass(frozen=True)
class RationalPickFunction:
    """F(z) = C + z D + sum_j A_j / (lambda_j - z)."""

    C: NDArray[np.complex128]
    D: NDArray[np.complex128]
    poles: tuple[tuple[float, NDArray[np.complex128]], ...] = ()

    def __post_init__(self):
        C = np.asarray(self.C, dtype=complex)
        n = C.shape[0]
        object.__setattr__(self, "C", _as_matrix(C, n, "C"))
        object.__setattr__(self, "D", _as_matrix(self.D, n, "D"))
        if np.linalg.norm(self.C - self.C.conj().T) > HERM_TOL * max(
                1.0, np.linalg.norm(self.C)):
            raise ValueError("C must be Hermitian")
        _check_psd(self.D, "D")
        poles = tuple((float(l), _as_matrix(A, n, "residue")) for l, A in self.poles)
        locs = [l for l, _ in poles]
        if len(set(locs)) != len(locs):
            raise ValueError("pole locations must be distinct")
        for _, A in poles:
            _check_psd(A, "residue")
        object.__setattr__(self, "poles", poles)

    @property
    def dim(self) -> int:
        return self.C.shape[0]

    def __call__(self, z) -> NDArray[np.complex128]:
        return pick_eval(self, z)

    @classmethod
    def scalar(cls, c: float = 0.0, d: float = 0.0,
               poles: Sequence[tuple[float, float]] = ()) -> "RationalPickFunction":
        return cls(np.array([[c]], dtype=complex), np.array([[d]], dtype=complex),
                   tuple((l, np.array([[a]], dtype=complex)) for l, a in poles))


def pick_eval(F: RationalPickFunction, z) -> NDArray[np.complex128]:
    """F(z) for a number z, or the stack of F at every point of an array z.

    An array of shape s gives shape s + (n, n); raises ZeroDivisionError if
    any point is a pole.
    """
    z = np.asarray(z, dtype=complex)
    for l, _ in F.poles:
        if np.any(z == l):
            raise ZeroDivisionError(f"evaluation at the pole {l}")
    zz = z[..., None, None]
    M = F.C + zz * F.D
    for l, A in F.poles:
        M = M + A / (l - zz)
    return M


def default_probes() -> NDArray[np.complex128]:
    """Probe points on a two-parameter log grid over the upper half-plane.

    224 points: 14 real parts (0, seven positive and six negative ones of
    magnitude 10^-2 .. 10^2) times 16 imaginary parts (10^-3 .. 10^3).
    """
    res = np.concatenate([[0.0], np.logspace(-2, 2, 7), -np.logspace(-2, 2, 6)])
    ims = np.logspace(-3, 3, 16)
    return (res[:, None] + 1j * ims[None, :]).ravel()


def _mT(M: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Transpose of every matrix of a stack."""
    return np.swapaxes(M, -1, -2)


def _adjoint(M: NDArray[np.complex128]) -> NDArray[np.complex128]:
    return _mT(M.conj())


def is_pick(F, probes: Sequence[complex] | None = None) -> bool:
    """True iff Im F(z) is positive semidefinite at every probe point.

    The probes default to the 224-point grid of default_probes.  Each probe
    is judged on its own scale: no eigenvalue below -_PICK_TOL max(1,
    largest |eigenvalue|).
    """
    z = default_probes() if probes is None else np.asarray(probes, complex)
    M = F(z.ravel())
    im = (M - _adjoint(M)) / 2j
    w = np.linalg.eigvalsh((im + _adjoint(im)) / 2)
    floor = -_PICK_TOL * np.maximum(1.0, np.abs(w).max(axis=-1))
    return not np.any(w.min(axis=-1) < floor)


def is_regular(F) -> bool:
    """True iff Spec F(z) stays in the open upper half-plane at the probes.

    This is a sampled certificate: the probes are the 224-point log grid of
    default_probes, which catches constant directions and real spectrum for
    the function classes handled here; an eigenvalue counts as real when
    its imaginary part is at most _REGULAR_TOL.
    """
    w = np.linalg.eigvals(F(default_probes()))
    return not np.any(w.imag <= _REGULAR_TOL)


def _rank(M: NDArray[np.complex128]) -> int:
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > RANK_TOL * s[0]))


def degree_rank(F: RationalPickFunction) -> int:
    """deg F = rk(D) + sum_j rk(A_j)."""
    return _rank(F.D) + sum(_rank(A) for _, A in F.poles)


# -- winding-number degree computations --------------------------------------

# the disc-model circle every contour starts on, and the uniform samples of
# a planned contour's coarsest level and of one radius of the shrink schedule
_RADIUS = 1.25
_PLANNED_SAMPLES = 4096
_SHRINK_SAMPLES = 512
_MAX_SHRINKS = 16
_AGREEMENTS = 3


def _matrix_blaschke(M: NDArray[np.complex128], lam: complex) -> NDArray[np.complex128]:
    """phi_lam(M) = (M - lam)(M - conj(lam))^{-1}, via a linear solve.

    M is one matrix or a stack of them, transformed matrix by matrix.
    """
    I = np.eye(M.shape[-1])
    return _mT(np.linalg.solve(_mT(M - np.conj(lam) * I), _mT(M - lam * I)))


def _det(M: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Determinant of every matrix of a stack.

    For n <= 2 LAPACK's per-matrix overhead costs 50-1000x the arithmetic,
    so these are closed forms: the entry itself for n = 1 (exact) and
    ad - bc for n = 2, whose error is of the order of pivoted LU's.  The 3x3
    cofactor formula is not: on zD + C with rank-1 D at |z| = 1e8 it loses
    all but one digit where LU keeps eight, so n >= 3 stays on LU.
    """
    n = M.shape[-1]
    if n == 1:
        return M[..., 0, 0]
    if n == 2:
        return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    return np.linalg.det(M)


def _mirror_roots(F: RationalPickFunction, lam: complex) -> NDArray[np.complex128]:
    """All z with det(F(z) - conj(lam)) = 0; they lie in the lower half-plane.

    Uses the state-space linearization: with A_j = B_j B_j^* of minimal rank
    and Delta(z) = diag((lambda_j - z) I), the block matrix
    [[C - conj(lam) + z D, B], [-B^*, Delta(z)]] has the Schur complement
    F(z) - conj(lam), so the finite eigenvalues of its linear pencil are
    exactly the wanted roots (no artifacts at the pole locations).
    """
    n = F.dim
    blocks = []
    for l, A in F.poles:
        w, V = np.linalg.eigh((A + A.conj().T) / 2)
        keep = w > 1e-12 * max(float(w.max()), 1.0)
        if keep.any():
            blocks.append((l, V[:, keep] * np.sqrt(w[keep])))
    r = sum(B.shape[1] for _, B in blocks)
    if r == 0 and not np.any(F.D):
        return np.empty(0, dtype=complex)
    N = n + r
    M0 = np.zeros((N, N), dtype=complex)
    M1 = np.zeros((N, N), dtype=complex)
    M0[:n, :n] = F.C - np.conj(lam) * np.eye(n)
    M1[:n, :n] = F.D
    col = n
    for l, B in blocks:
        k = B.shape[1]
        M0[:n, col:col + k] = B
        M0[col:col + k, :n] = -B.conj().T
        M0[col:col + k, col:col + k] = l * np.eye(k)
        M1[col:col + k, col:col + k] = -np.eye(k)
        col += k
    w = scipy.linalg.eig(M0, -M1, right=False)
    return w[np.isfinite(w)]


def _contour_plan(F: RationalPickFunction,
                  lam: complex) -> tuple[float, list[tuple[float, float]]]:
    """Safe circle radius plus the angular features needing dense sampling.

    The winding formulas are valid on circles below the disc-model images of
    the mirror solutions det(F(z) - conj(lam)) = 0; halving the gap to the
    closest of them keeps the contour inside the annulus of validity.  Each
    near-circle mirror root sits opposite a reflected zero at the reciprocal
    modulus, pinching the contour in an angular window comparable to the
    remaining margin, and the determinant also has fixed poles on the circle
    at the images of the function's poles and of infinity; all of these are
    returned as (angle, length scale) pairs.
    """
    ws = cayley(_mirror_roots(F, lam))
    mods = np.abs(ws)
    genuine = mods > 1.0 + 1e-9
    rho = float(mods[genuine].min()) if genuine.any() else np.inf
    rs = min(_RADIUS, 1.0 + (rho - 1.0) / 2.0)
    feats: list[tuple[float, float]] = []
    for wk, m in zip(ws[genuine], mods[genuine]):
        if m < 2.0:
            feats.append((float(np.angle(wk)), min(m - rs, rs - 1.0 / m)))
    feats.append((0.0, rs - 1.0))                     # image of infinity
    for l, _ in F.poles:
        feats.append((float(np.angle(cayley(l))), rs - 1.0))
    return rs, feats


def _winding_with_features(fn, kinds: Sequence[bool], rs: float,
                           feats: Sequence[tuple[float, float]]) -> list[int]:
    """Winding of each curve of fn on the circle of radius rs, one per kind.

    fn(w, kinds) gives one array of curve values per kind (see
    _curve_sampler).  Each feature is oversampled, and each curve is
    accepted at its own first refinement level that winding_number does not
    refuse; a finer level samples only the curves still open.  A
    non-finite, unclosed or excluded curve raises DegenerateCurveError.
    """
    span = np.arcsinh(60.0)
    counts: dict[bool, int] = {}
    last: Exception | None = None
    for refine in range(5):
        todo = [k for k in kinds if k not in counts]
        n = _PLANNED_SAMPLES << refine
        grids = [np.linspace(0.0, 2.0 * np.pi, n + 1)[:-1]]
        local = (200 << refine) + 1
        for theta, d in feats:
            off = d * np.sinh(np.linspace(-span, span, local))
            grids.append(np.mod(theta + off, 2.0 * np.pi))
        t = np.unique(np.concatenate(grids))
        t = np.append(t, t[0] + 2.0 * np.pi)
        for kind, vals in zip(todo, fn(rs * np.exp(1j * t), todo)):
            if not np.all(np.isfinite(vals)):
                raise DegenerateCurveError("curve degenerated; singular contour point")
            scale = float(np.median(np.abs(vals)))
            try:
                curve = CurveSample(vals, 1e-13 * scale)
            except ValueError as exc:
                raise DegenerateCurveError(str(exc)) from exc
            try:
                counts[kind] = winding_number(curve)
            except UnderSampledCurveError as exc:
                last = exc
        if len(counts) == len(kinds):
            return [counts[k] for k in kinds]
    raise last


def _winding_on_circle(
        fn: Callable[[NDArray[np.complex128]], NDArray[np.complex128]]) -> int:
    """Winding number of t -> fn(r e^{it}) around 0, shrinking r toward 1.

    Used when the obstruction set of the underlying extension is unknown
    (general callables): counts on a geometric radius schedule toward 1,
    at most _MAX_SHRINKS halvings of r - 1, become eventually constant once
    the circle stops enclosing obstructions.  A run of _AGREEMENTS equal
    counts can still sit above an obstruction shell, so each candidate
    plateau is confirmed at a radius 16x closer to the circle before it is
    accepted; a disagreement restarts the shrink from the confirmation
    radius.
    """
    r = _RADIUS
    streak = 0
    prev: int | None = None
    last_error: Exception | None = None

    def count(radius: float) -> int | None:
        nonlocal last_error
        try:
            return _winding_at_radius(fn, radius)
        except (UnderSampledCurveError, ValueError,
                np.linalg.LinAlgError, ZeroDivisionError) as exc:
            last_error = exc
            return None

    for _ in range(_MAX_SHRINKS + 1):
        v = count(r)
        streak = streak + 1 if (v is not None and v == prev) else (
            1 if v is not None else 0)
        if streak >= _AGREEMENTS:
            r_conf = 1.0 + (r - 1.0) / 16.0
            if count(r_conf) == v:
                return v
            streak = 0
            prev = None
            r = r_conf
            continue
        prev = v
        r = 1.0 + (r - 1.0) / 2.0
    raise RuntimeError(
        f"winding count failed to stabilize down to r = {r:.6f}: {last_error}"
    )


def _winding_at_radius(fn, r: float) -> int:
    """fn maps an array of circle points to an array of curve values."""
    n = _SHRINK_SAMPLES
    while True:
        t = np.linspace(0.0, 2.0 * np.pi, n + 1)
        vals = np.asarray(fn(r * np.exp(1j * t)), dtype=complex)
        scale = float(np.abs(vals).max())
        if scale == 0.0 or not np.all(np.isfinite(vals)):
            raise ValueError("curve degenerated; shrink the radius")
        curve = CurveSample(vals, exclusion_radius=1e-12 * scale)
        try:
            return winding_number(curve)
        except UnderSampledCurveError:
            if n >= 2 ** 20:
                raise
            n *= 2


# circle points per stacked evaluation: a block's transient stacks stay near
# 0.3 MB each for 3x3 matrices, however many samples (up to 2^20) a winding
# count takes; blocks of 8192 left a pick-degree round's peak RSS 3 MB higher
_SAMPLE_BLOCK = 2048


def _curve_sampler(F, lam: complex):
    """fn(w, kinds): one array of curve values per kind at the circle points w.

    Kind True is det phi_lam(F(z)), kind False det(F(z) - conj(lam)), with
    z = cayley_inverse(w).  F is evaluated in blocks of _SAMPLE_BLOCK
    points, one stacked call per block for all kinds, and
    det(M - conj(lam)) is computed once per block: it is the second curve
    and the denominator of det phi_lam(M) = det(M - lam) / det(M - conj(lam)).
    """
    def block(w, kinds):
        M = F(cayley_inverse(w))
        I = np.eye(M.shape[-1])
        below = _det(M - np.conj(lam) * I)
        # a NaN or infinite quotient fails the caller's finiteness check,
        # which raises DegenerateCurveError; numpy need not warn first
        with np.errstate(invalid="ignore", divide="ignore"):
            return [_det(M - lam * I) / below if blaschke else below
                    for blaschke in kinds]

    # one preallocated (kinds, m) array raised a pick-degree round's peak
    # RSS by 0.3-0.6 MB; joining the blocks per kind does not
    def fn(w, kinds):
        blocks = [block(w[i:i + _SAMPLE_BLOCK], kinds)
                  for i in range(0, w.size, _SAMPLE_BLOCK)]
        return [np.concatenate(rows) for rows in zip(*blocks)]

    return fn


def _winding_counts(F, lam: complex, kinds: Sequence[bool]) -> list[int]:
    """Winding of each curve of _curve_sampler on a circle |w| > 1.

    Only the contour depends on the input: rational inputs get one planned
    from their mirror roots and a shared pass for all kinds; general
    callables, whose obstruction set is unknown, the radius-shrink schedule,
    one per kind.
    """
    fn = _curve_sampler(F, lam)
    if isinstance(F, RationalPickFunction):
        rs, feats = _contour_plan(F, lam)
        return _winding_with_features(fn, kinds, rs, feats)
    return [_winding_on_circle(lambda w, k=k: fn(w, (k,))[0]) for k in kinds]


def multiplicity_winding(F, lam: complex = 1j) -> int:
    """Multiplicity by zero counting of det(phi_lam o F) in the disc model.

    Accepts a RationalPickFunction or any callable mapping an array of z
    off the real line to a stack of matrices, holomorphic there; the curve
    runs through the lower half-plane where a Pick function's matrix
    Blaschke transform has modulus >= 1.
    """
    return _winding_counts(F, lam, (True,))[0]


def degree_winding(F, lam: complex = 1j) -> int:
    """Degree by pole-order counting of det(F - conj(lam)) in the disc model.

    Takes the same inputs as multiplicity_winding.
    """
    return -_winding_counts(F, lam, (False,))[0]


def winding_counts(F, lam: complex = 1j) -> tuple[int, int]:
    """(multiplicity_winding(F, lam), degree_winding(F, lam)) in one pass.

    For a RationalPickFunction both curves share one contour plan and one
    evaluation of F per block of circle points, and each is accepted at the
    refinement level its own call would accept, so the counts are those of
    the two calls.  A callable gets one radius-shrink schedule per count.
    """
    mult, poles = _winding_counts(F, lam, (True, False))
    return mult, -poles


# -- Blaschke-Potapov products ------------------------------------------------

def blaschke_factor(omega: complex, z) -> complex:
    """Scalar Blaschke factor (z - omega)/(z - conj(omega)) for the half-plane."""
    z = np.asarray(z, dtype=complex)
    out = (z - omega) / (z - np.conj(omega))
    return out if out.shape else complex(out)


@dataclass(frozen=True)
class BlaschkePotapovProduct:
    """u prod_j (phi_{omega_j} P_j + (1 - P_j)) with u unitary, P_j projections."""

    u: NDArray[np.complex128]
    factors: tuple[tuple[complex, NDArray[np.complex128]], ...] = ()

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        n = u.shape[0]
        object.__setattr__(self, "u", _as_matrix(u, n, "u"))
        if np.linalg.norm(u.conj().T @ u - np.eye(n)) > 1e-10:
            raise ValueError("u must be unitary")
        factors = tuple((complex(w), _as_matrix(P, n, "projection"))
                        for w, P in self.factors)
        for w, P in factors:
            if w.imag <= 0:
                raise ValueError("factor zeros must lie in the upper half-plane")
            if (np.linalg.norm(P @ P - P) > 1e-10
                    or np.linalg.norm(P - P.conj().T) > 1e-10):
                raise ValueError("P must be an orthogonal projection")
        object.__setattr__(self, "factors", factors)

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    def __call__(self, z) -> NDArray[np.complex128]:
        return bp_eval(self, z)


def bp_eval(phi: BlaschkePotapovProduct, z) -> NDArray[np.complex128]:
    """phi(z) for a number z, or the stack of phi at every point of an array z.

    An array of shape s gives shape s + (n, n), as pick_eval does; raises
    ZeroDivisionError if any point is a pole conj(omega_j).
    """
    z = np.asarray(z, dtype=complex)
    zz = z[..., None, None]
    I = np.eye(phi.dim)
    M = np.array(np.broadcast_to(phi.u, z.shape + phi.u.shape))
    for omega, P in phi.factors:
        if np.any(z == np.conj(omega)):
            raise ZeroDivisionError(f"evaluation at the pole {np.conj(omega)}")
        M = M @ (blaschke_factor(omega, zz) * P + (I - P))
    return M


def bp_degree(phi: BlaschkePotapovProduct) -> int:
    """deg phi = total rank of the factor projections."""
    return sum(_rank(P) for _, P in phi.factors)


# -- Moebius transforms and composition ---------------------------------------

@dataclass(frozen=True)
class MobiusTransform:
    """z -> (a z + b)/(c z + d) with real coefficients, a d - b c = 1."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if abs(self.a * self.d - self.b * self.c - 1.0) > 1e-12:
            raise ValueError("coefficients must satisfy ad - bc = 1")

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = (self.a * z + self.b) / (self.c * z + self.d)
        return out if out.shape else complex(out)

    def as_pick(self) -> RationalPickFunction:
        # (az+b)/(cz+d) = a/c + (1/c^2)/(-d/c - z) for c != 0, else b/d + a^2 z
        if self.c == 0.0:
            return RationalPickFunction.scalar(self.b / self.d, self.a ** 2)
        return RationalPickFunction.scalar(
            self.a / self.c, 0.0, [(-self.d / self.c, 1.0 / self.c ** 2)]
        )


def compose_scalar(f, F, g) -> Callable[..., NDArray[np.complex128]]:
    """The matrix function z -> f(F(g(z))) for scalar Pick f and g.

    f is applied through the eigendecomposition of F(g(z)), eigenvalues
    ordered for determinism.  f and g may be RationalPickFunction instances
    of dimension 1 or callables mapping arrays elementwise; F maps an array
    to a stack of matrices.  The result maps an array of z to a stack
    (m, n, n) and a scalar z to one matrix, with one stacked eigensolve and
    one stacked inverse per call.
    """

    def as_scalar(h):
        if isinstance(h, RationalPickFunction):
            if h.dim != 1:
                raise ValueError("outer compositions must be scalar")
            return lambda z: pick_eval(h, z)[..., 0, 0]
        return h

    fs, gs = as_scalar(f), as_scalar(g)

    def composed(z) -> NDArray[np.complex128]:
        w, V = np.linalg.eig(F(gs(np.asarray(z, dtype=complex))))
        order = np.lexsort((w.imag, w.real), axis=-1)
        w = np.take_along_axis(w, order, axis=-1)
        V = np.take_along_axis(V, order[..., None, :], axis=-1)
        fw = np.asarray(fs(w), dtype=complex)
        return (V * fw[..., None, :]) @ np.linalg.inv(V)

    return composed


def boundary_unitary(F: RationalPickFunction, t: float, x: float
                     ) -> NDArray[np.complex128]:
    """exp(i t F(x)) for real x away from the poles; unitary since F(x) = F(x)*."""
    M = pick_eval(F, float(x))
    M = (M + M.conj().T) / 2
    w, U = np.linalg.eigh(M)
    return U @ np.diag(np.exp(1j * t * w)) @ U.conj().T


# -- JSON serialization --------------------------------------------------------

def _decode_matrix(rows) -> NDArray[np.complex128]:
    return np.array([[complex(e[0], e[1]) for e in row] for row in rows])


def _encode_matrix(M: NDArray[np.complex128]):
    return [[[float(e.real), float(e.imag)] for e in row] for row in np.asarray(M)]


def load_pick(source) -> RationalPickFunction:
    """Build a Pick function from a JSON dict, JSON string, or file path."""
    if isinstance(source, dict):
        spec = source
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        spec = json.loads(source)
    else:
        with open(source) as fh:
            spec = json.load(fh)
    n = int(spec["dim"])
    C = _decode_matrix(spec["C"])
    D = _decode_matrix(spec["D"])
    if C.shape != (n, n) or D.shape != (n, n):
        raise ValueError("matrix dimensions disagree with dim")
    poles = [(float(p["lambda"]), _decode_matrix(p["A"]))
             for p in spec.get("poles", [])]
    return RationalPickFunction(C, D, tuple(poles))


def dump_pick(F: RationalPickFunction) -> dict:
    return {
        "dim": F.dim,
        "C": _encode_matrix(F.C),
        "D": _encode_matrix(F.D),
        "poles": [{"lambda": l, "A": _encode_matrix(A)} for l, A in F.poles],
    }
