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
multiplicity_winding, degree_winding and winding_counts take must do the
same.  A callable that handles only scalars can be wrapped as
np.vectorize(h, signature="()->(n,n)").

_state_space is the one factorization of a rational Pick function: D on
its range and kernel, each residue at its minimal rank.  is_regular reads
it for an exact Popov-Belevitch-Hautus test, the contour plan for the
mirror roots (one deflated eigvals), and compose_scalar for the resolvents
(n - G)^{-1}, so f o F o g is a RationalPickFunction whose degree is a
rank and whose winding counts run on a planned contour.  is_regular and
compose_scalar accept no callables; the callable (radius-shrink) branch of
the winding counts stays for callables passed directly, such as the plain
function the benchmark's tracer wraps around a composition.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
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


def _hermitian(M: NDArray[np.complex128]) -> NDArray[np.complex128]:
    return (M + _adjoint(M)) / 2


def is_pick(F, probes: Sequence[complex] | None = None) -> bool:
    """True iff Im F(z) is positive semidefinite at every probe point.

    The probes default to the 224-point grid of default_probes.  Each probe
    is judged on its own scale: no eigenvalue below -_PICK_TOL max(1,
    largest |eigenvalue|).
    """
    z = default_probes() if probes is None else np.asarray(probes, complex)
    M = F(z.ravel())
    im = (M - _adjoint(M)) / 2j
    w = np.linalg.eigvalsh(_hermitian(im))
    floor = -_PICK_TOL * np.maximum(1.0, np.abs(w).max(axis=-1))
    return not np.any(w.min(axis=-1) < floor)


def is_regular(F) -> bool:
    """True iff Spec F(z) lies in the open upper half-plane for Im z > 0.

    If F(z) v = w v with w real, then Im <F(z) v, v> = 0 puts v in
    ker B^*, B = [V s^{1/2}, K] from _state_space, and F(z) v = C v; so F
    is regular iff no eigenvector of C lies in ker B^* (the
    Popov-Belevitch-Hautus test).  Decided without probes: at every
    eigenvalue mu of C the smallest singular value of [C - mu; B^*] must
    exceed RANK_TOL max(1, |C|, |B|).  Raises TypeError for anything but a
    RationalPickFunction.
    """
    if not isinstance(F, RationalPickFunction):
        raise TypeError("is_regular decides RationalPickFunction instances, "
                        f"not {type(F).__name__}")
    V, s, _, K, _ = _state_space(F)
    B = np.hstack([V * np.sqrt(s), K])
    mu, _ = np.linalg.eigh(F.C)
    n = F.dim
    stack = np.concatenate([F.C - mu[:, None, None] * np.eye(n),
                            np.broadcast_to(B.conj().T, (n,) + B.T.shape)], axis=1)
    smin = np.linalg.svd(stack, compute_uv=False)[:, -1]
    tol = RANK_TOL * max(1.0, np.linalg.norm(F.C), np.linalg.norm(B))
    return bool(smin.min() > tol)


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


def _psd_eig(A: NDArray[np.complex128]):
    """Eigenpairs of the Hermitian part of a PSD matrix, with the mask of
    those spanning its range: eigenvalues above 1e-12 max(1, largest)."""
    w, V = np.linalg.eigh(_hermitian(A))
    return w, V, w > 1e-12 * max(float(w.max()), 1.0)


def _state_space(F: RationalPickFunction):
    """(V, s, U, K, lams), the realization of F as one factorization.

    D = V diag(s) V^* on its range and U is an orthonormal basis of ker D;
    sum_j A_j / (lambda_j - z) = K (diag(lams) - z)^{-1} K^*, each
    A_j = K_j K_j^* factored at its minimal rank, K = [K_1, K_2, ...] and
    lams holding the pole of each column.
    """
    cols, lams = [], []
    for l, A in F.poles:
        w, V, keep = _psd_eig(A)
        if keep.any():
            cols.append(V[:, keep] * np.sqrt(w[keep]))
            lams += [l] * int(keep.sum())
    K = np.hstack(cols) if cols else np.zeros((F.dim, 0), dtype=complex)
    w, V, keep = _psd_eig(F.D)
    return V[:, keep], w[keep], V[:, ~keep], K, np.array(lams, dtype=float)


def _mirror_roots(F: RationalPickFunction, lam: complex) -> NDArray[np.complex128]:
    """All z with det(F(z) - conj(lam)) = 0; they lie in the lower half-plane.

    In the coordinates [V, U, poles] of _state_space the block matrix
    H = [[X^*(C - conj(lam))X, X^*K], [K^*X, -diag(lams)]], X = [V, U],
    gives the pencil H + z diag(s, 0, I) with Schur complement
    F(z) - conj(lam).  Its ker D block E = U^*(C - conj(lam))U is invertible
    (U^* C U is Hermitian and lam is not real), and eliminating it leaves
    H' + z diag(s, I): exactly rk D + sum rk A_j roots, the eigenvalues of
    -S^{-1/2} H' S^{-1/2}, S = diag(s, I).
    """
    V, s, U, K, lams = _state_space(F)
    d, r = s.size, lams.size
    if d + r == 0:
        return np.empty(0, dtype=complex)
    # the kept block [V, poles] and its coupling R = H_kb to the U block
    VC = V.conj().T @ F.C
    H = np.block([[VC @ V - np.conj(lam) * np.eye(d), V.conj().T @ K],
                  [K.conj().T @ V, -np.diag(lams)]])
    R = np.vstack([VC @ U, K.conj().T @ U])
    # E^{-1} = Y diag(1/(c - conj(lam))) Y^* with U^* C U = Y diag(c) Y^*
    c, Y = np.linalg.eigh(_hermitian(U.conj().T @ F.C @ U))
    RY = R @ Y
    H = H - (RY / (c - np.conj(lam))) @ RY.conj().T
    g = 1.0 / np.sqrt(np.concatenate([s, np.ones(r)]))
    return np.linalg.eigvals(-(g[:, None] * H * g))


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
    returned as (angle, length scale) pairs.  Every mirror root counts;
    one within rounding of the unit circle raises DegenerateCurveError.
    """
    ws = cayley(_mirror_roots(F, lam))
    mods = np.abs(ws)
    rho = float(mods.min()) if mods.size else np.inf
    rs = min(_RADIUS, 1.0 + (rho - 1.0) / 2.0)
    if rs <= 1.0:
        raise DegenerateCurveError("a mirror root lies within rounding of the "
                                   "real line: no contour separates it")
    feats: list[tuple[float, float]] = []
    for wk, m in zip(ws, mods):
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


# poles of a composition closer than this, relative to max(1, |location|),
# are one pole: the sum of resolvents can meet at a point from several sides
_POLE_TOL = 1e-12


def _sum(C: NDArray[np.complex128], terms) -> RationalPickFunction:
    """C + sum_k c_k h_k, coinciding poles merged.

    Each term (c, h) is a number c >= 0 with an n x n function h, or a PSD
    n x n matrix c with a scalar h; numpy broadcasting covers both.
    """
    D = np.zeros_like(C)
    poles = []
    for c, h in terms:
        if np.any(c):
            C = C + c * h.C
            D = D + c * h.D
            poles += [(l, c * A) for l, A in h.poles]
    return RationalPickFunction(C, D, _merged(poles))


def _merged(poles):
    """The (location, residue) pairs sorted, with residues of coinciding
    locations summed."""
    out: list[tuple[float, NDArray[np.complex128]]] = []
    for l, A in sorted(poles, key=lambda p: p[0]):
        if out and l - out[-1][0] <= _POLE_TOL * max(1.0, abs(l)):
            out[-1] = (out[-1][0], out[-1][1] + A)
        else:
            out.append((l, A))
    return tuple(out)


def _resolvent(G: RationalPickFunction, n: float) -> RationalPickFunction:
    """(n - G)^{-1}, itself a rational Pick function, in closed form.

    With K, Lam = diag(lams) from _state_space, (n - G(z))^{-1} is
    -P^* (H0 + z H1)^{-1} P for the Hermitian pencil
    H0 = [[C - n, K], [K^*, -Lam]], H1 = diag(D, I) >= 0 and P the embedding
    of the first dim coordinates: the Schur complement of that block is
    G(z) - n.  Deflation splits the pencil exactly:
    - on the kernel U of H1, the part V1 where U^* H0 U is invertible gives
      a constant;
    - the rest Z of the kernel pairs with the range W of H1 through
      Bz = W'^* H0 Z (W' is W made H0-orthogonal to V1).  Each pair is an
      index-2 infinite eigenvalue and gives the linear term; this is how
      n at an eigenvalue of C on ker D, or g(inf) at a pole of F, shows;
    - the remaining Hermitian-definite pencil, on ker Bz^*, has the real
      poles as its eigenvalues and the residues V V^* from its
      eigenvectors, equal eigenvalues merged into one pole.
    No root finding and no evaluation of G: the poles are the real roots
    of det(G - n), and for a simple root zeta each residue equals
    V (V^* G'(zeta) V)^{-1} V^* with V spanning ker(G(zeta) - n).  Raises
    ValueError when det(G - n) vanishes identically (Bz has no full column
    rank), which makes (n - G)^{-1} undefined.
    """
    dim = G.dim
    V, s, U, K, lams = _state_space(G)
    d, r = s.size, lams.size
    H0 = np.block([[G.C - n * np.eye(dim), K], [K.conj().T, -np.diag(lams)]])
    tol = RANK_TOL * max(1.0, float(np.abs(H0).max()))
    # H1 W = W diag(s) and H1 U = 0, W and U orthonormal
    W = np.zeros((dim + r, d + r), dtype=complex)
    W[:dim, :d] = V
    W[dim:, d:] = np.eye(r)
    s = np.concatenate([s, np.ones(r)])
    U = np.concatenate([U, np.zeros((r, dim - d))])
    e, Y = np.linalg.eigh(_hermitian(U.conj().T @ H0 @ U))
    inv = np.abs(e) > tol
    V1, Z, e1 = U @ Y[:, inv], U @ Y[:, ~inv], e[inv]
    Wp = W - V1 @ ((V1.conj().T @ H0 @ W) / e1[:, None])
    A = _hermitian(Wp.conj().T @ H0 @ Wp)
    C = -(V1[:dim] / e1) @ V1[:dim].conj().T
    D = np.zeros((dim, dim), dtype=complex)
    # the finite part's basis in the coordinates of Wp (complex, so that
    # every eigh below is the complex LAPACK routine the degree path has
    # already loaded: a real one mapped 0.5 MB more), and its image under P^*
    Q2 = np.eye(d + r, dtype=complex)
    X = Wp[:dim]
    p = Z.shape[1]
    if p:
        Bz = Wp.conj().T @ H0 @ Z
        Ub, sb, _ = np.linalg.svd(Bz)
        if sb.size < p or sb.min() <= tol:
            raise ValueError(f"det(G(z) - {n:g}) vanishes identically: "
                             "(n - G)^{-1} is undefined")
        # in the basis [Q2, S^{-1} Bz, Z] of the W' + Z block (S = diag(s)),
        # where Q2 spans ker Bz^*, the pencil's inverse splits into the
        # finite part on Q2 plus a constant and the linear term on Z
        Q2 = Ub[:, p:]
        SB = Bz / s[:, None]
        Gi = np.linalg.inv(Bz.conj().T @ SB)
        L = Z[:dim]
        T = Gi @ SB.conj().T @ A
        Yt = Wp[:dim] @ SB @ Gi
        D = _hermitian(L @ Gi @ L.conj().T)
        C = C - Yt @ L.conj().T - L @ Yt.conj().T + L @ (T @ SB @ Gi) @ L.conj().T
        X = X - L @ T
    poles = []
    if Q2.shape[1]:
        # the definite pencil (Q2^* A Q2, M), M = Q2^* S Q2, as the standard
        # problem of M^{-1/2} Q2^* A Q2 M^{-1/2}: a generalized eigh routine
        # mapped ~1 MB more LAPACK into the process
        m, Vm = np.linalg.eigh(_hermitian((Q2.conj().T * s) @ Q2))
        Q2 = Q2 @ (Vm / np.sqrt(m))
        theta, Yq = np.linalg.eigh(_hermitian(Q2.conj().T @ A @ Q2))
        vecs = X @ Q2 @ Yq
        poles = [(-float(t), np.outer(v, v.conj())) for t, v in zip(theta, vecs.T)]
    return RationalPickFunction(_hermitian(C), D, _merged(poles))


def compose_scalar(f: RationalPickFunction, F: RationalPickFunction,
                   g: RationalPickFunction) -> RationalPickFunction:
    """f o F o g for scalar f and g, as a RationalPickFunction.

    With G = F o g = C + D g + sum_j A_j (lambda_j - g)^{-1} and
    f = c + d w + sum_i b_i / (n_i - w), the composition is
    c + d G + sum_i b_i (n_i - G)^{-1}: sums of _resolvent terms, whose
    degree is deg f deg F deg g.  Raises TypeError for anything but a
    RationalPickFunction, ValueError for a non-scalar f or g and when some
    det(G - n_i) vanishes identically.
    """
    for h in (f, F, g):
        if not isinstance(h, RationalPickFunction):
            raise TypeError("compose_scalar composes RationalPickFunction "
                            f"instances, not {type(h).__name__}")
    if f.dim != 1 or g.dim != 1:
        raise ValueError("outer compositions must be scalar")
    G = _sum(F.C, [(F.D, g)] + [(A, _resolvent(g, l)) for l, A in F.poles])
    return _sum(f.C[0, 0].real * np.eye(F.dim),
                [(f.D[0, 0].real, G)]
                + [(A[0, 0].real, _resolvent(G, l)) for l, A in f.poles])


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
