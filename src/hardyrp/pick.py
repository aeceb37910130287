"""Matrix-valued rational Pick functions.

A rational Pick function is F(z) = C + z D + sum_j A_j / (lambda_j - z) with
C Hermitian, D and the residues A_j positive semidefinite and real poles
lambda_j.  Its degree rk(D) + sum_j rk(A_j) equals the multiplicity of the
one-parameter group it generates; the module computes that number three
independent ways: by ranks, and by two winding-number contour counts pulled
back to a circle of radius r > 1 through the disc model.  winding_counts
gets both contour counts from one pass: one contour plan, one evaluation of
F per block of circle points, and det(F - conj(lam)) shared between the two
curves.  The winding pass works on entry-major stacks, shape (n, n, m),
each matrix entry one contiguous array over the block's samples: one
matrix product gives F(z) - lam and F(z) - conj(lam) for a whole block,
and determinants of 1x1 and 2x2 stacks are closed forms and of 3x3 stacks
one pivoted elimination step, since LAPACK's per-matrix overhead costs far
more than their arithmetic.

The constructor is the Pick check: a RationalPickFunction has finite
entries, a Hermitian C, positive semidefinite D and residues, and finite,
distinct poles, so Im F(z) = Im z (D + sum_j A_j / |lambda_j - z|^2) is
positive semidefinite on the upper half-plane and no sampled test is
needed.

Every evaluation is batched.  pick_eval, and so a RationalPickFunction
called as a function, maps an array of m points to a stack of shape
(m, n, n) and a scalar to one (n, n) matrix; the callables that
multiplicity_winding, degree_winding and winding_counts take must do the
same.  A callable that handles only scalars can be wrapped as
np.vectorize(h, signature="()->(n,n)").

RationalPickFunction._state_space is the one factorization of a rational
Pick function, computed once per function: D on its range and kernel, each
residue at its minimal rank, by one rank rule (eigenvalues above RANK_TOL
times the largest).  degree_rank counts its columns.  _deflated builds
from it the one pencil of F - mu: at mu = conj(lam) its eigenvalues are
the mirror roots of the contour plan, and at a real mu = n its deflation
gives the resolvents (n - G)^{-1} of compose_scalar, so f o F o g is a
RationalPickFunction whose degree is a rank and whose winding counts run
on a planned contour.  _pbh_smin, the Popov-Belevitch-Hautus test,
decides both regularity and whether det(G - n) vanishes identically.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import groupby
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .hardy import cayley, cayley_inverse
from .numerics import (
    CurveSample,
    DegenerateCurveError,
    UnderSampledCurveError,
    sorted_unique,
    winding_number,
)

__all__ = [
    "RationalPickFunction",
    "BlaschkePotapovProduct",
    "pick_eval",
    "is_regular",
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


def _as_matrix(M, n: int, name: str) -> NDArray[np.complex128]:
    M = np.asarray(M, dtype=complex)
    if M.shape != (n, n):
        raise ValueError(f"{name} must be {n}x{n}")
    return M


def _check_hermitian(M: NDArray[np.complex128], name: str) -> None:
    # one norm serves both tests: it is NaN or inf for any non-finite entry
    size = np.linalg.norm(M)
    if not math.isfinite(size):
        raise ValueError(f"{name} must be finite")
    if np.linalg.norm(M - M.conj().T) > HERM_TOL * size:
        raise ValueError(f"{name} must be Hermitian")


def _check_psd(M: NDArray[np.complex128], name: str) -> None:
    _check_hermitian(M, name)
    w = np.linalg.eigvalsh(M)
    if w.size and w.min() < -HERM_TOL * abs(w).max():
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
        _check_hermitian(self.C, "C")
        _check_psd(self.D, "D")
        poles = tuple((float(l), _as_matrix(A, n, "residue")) for l, A in self.poles)
        locs = [l for l, _ in poles]
        if not all(map(math.isfinite, locs)):
            raise ValueError("pole locations must be finite")
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

    @cached_property
    def _state_space(self):
        """(V, s, U, K, lams), the realization of F as one factorization.

        D = V diag(s) V^* on its range and U is an orthonormal basis of
        ker D; sum_j A_j / (lambda_j - z) = K (diag(lams) - z)^{-1} K^*,
        each A_j = K_j K_j^* factored at its minimal rank, K = [K_1, K_2,
        ...] and lams holding the pole of each column.  Computed on first
        use and kept: the function is frozen.
        """
        cols, lams = [], []
        for l, A in self.poles:
            w, V, keep = _psd_eig(A)
            if keep.any():
                cols.append(V[:, keep] * np.sqrt(w[keep]))
                lams += [l] * int(keep.sum())
        K = np.hstack(cols) if cols else np.zeros((self.dim, 0), dtype=complex)
        w, V, keep = _psd_eig(self.D)
        return V[:, keep], w[keep], V[:, ~keep], K, np.array(lams, dtype=float)

    @classmethod
    def scalar(cls, c: float = 0.0, d: float = 0.0,
               poles: Sequence[tuple[float, float]] = ()) -> "RationalPickFunction":
        return cls(np.array([[c]], dtype=complex), np.array([[d]], dtype=complex),
                   tuple((l, np.array([[a]], dtype=complex)) for l, a in poles))

    @classmethod
    def mobius(cls, a: float, b: float, c: float,
               d: float) -> "RationalPickFunction":
        """z -> (a z + b)/(c z + d), a, b, c, d real with ad - bc = 1 on the
        scale |ad| + |bc|."""
        ad, bc = a * d, b * c
        if abs(ad - bc - 1.0) > 1e-12 * (abs(ad) + abs(bc)):
            raise ValueError("coefficients must satisfy ad - bc = 1")
        # a/c + (1/c^2)/(-d/c - z) for c != 0, else b/d + a^2 z
        if c == 0.0:
            return cls.scalar(b / d, a ** 2)
        return cls.scalar(a / c, 0.0, [(-d / c, 1.0 / c ** 2)])


def pick_eval(F: RationalPickFunction, z) -> NDArray[np.complex128]:
    """F(z) for a number z, or the stack of F at every point of an array z.

    An array of shape s gives shape s + (n, n); raises ZeroDivisionError if
    any point is a pole.  A view of the entry-major values of _entries.
    """
    return np.moveaxis(_entries(F, z)[0], (0, 1), (-2, -1))


def _entries(F, z, shifts: Sequence[complex] = (0.0,)) -> NDArray[np.complex128]:
    """F(z) - c for every shift c, entry-major: shape (k, n, n) + z.shape.

    Each matrix entry is one contiguous array over the points.  For a
    RationalPickFunction this is one matrix product: the coefficient rows
    [C - c, D, A_1, ..., A_p] of every entry and shift times the basis
    rows [1, z, 1/(lambda_j - z)]; raises ZeroDivisionError if any point is
    a pole.  A callable is called once and its (..., n, n) stack moved.
    """
    z = np.asarray(z, dtype=complex)
    shifts = np.asarray(shifts, dtype=complex)
    if not isinstance(F, RationalPickFunction):
        M = np.moveaxis(np.asarray(F(z), dtype=complex), (-2, -1), (0, 1))
        I = np.eye(M.shape[0]).reshape(M.shape[:2] + (1,) * z.ndim)
        return M - shifts.reshape((-1, 1, 1) + (1,) * z.ndim) * I
    n, p = F.dim, len(F.poles)
    basis = np.empty((p + 2,) + z.shape, dtype=complex)
    basis[0] = 1.0
    basis[1] = z
    for j, (l, _) in enumerate(F.poles):
        gap = l - z
        if np.any(gap == 0):
            raise ZeroDivisionError(f"evaluation at the pole {l}")
        basis[j + 2] = 1.0 / gap
    coef = np.empty((shifts.size, n, n, p + 2), dtype=complex)
    coef[..., 0] = F.C - shifts[:, None, None] * np.eye(n)
    coef[..., 1] = F.D
    for j, (_, A) in enumerate(F.poles):
        coef[..., j + 2] = A
    values = coef.reshape(-1, p + 2) @ basis.reshape(p + 2, -1)
    return values.reshape((shifts.size, n, n) + z.shape)


def _hermitian(M: NDArray[np.complex128]) -> NDArray[np.complex128]:
    return (M + np.swapaxes(M.conj(), -1, -2)) / 2


def is_regular(F) -> bool:
    """True iff Spec F(z) lies in the open upper half-plane for Im z > 0.

    If F(z) v = w v with w real, then Im <F(z) v, v> = 0 puts v in
    ker B^*, B = [V s^{1/2}, K] from F._state_space, and F(z) v = C v; so F
    is regular iff no eigenvector of C lies in ker B^* (the
    Popov-Belevitch-Hautus test, _pbh_smin at every eigenvalue of C).
    Raises TypeError for anything but a RationalPickFunction.
    """
    if not isinstance(F, RationalPickFunction):
        raise TypeError("is_regular decides RationalPickFunction instances, "
                        f"not {type(F).__name__}")
    return bool(_pbh_smin(F, np.linalg.eigh(F.C)[0]).min() > RANK_TOL)


def _pbh_smin(F: RationalPickFunction, mu: NDArray) -> NDArray[np.float64]:
    """Smallest singular value of [(C - mu) / max(|C|, |mu|); B^*] at each
    real mu, one stacked SVD: at most RANK_TOL iff F(z) v = mu v for all z
    for some v != 0.  Each block on its own scale: every direction of D and
    of each residue that the rank rule counts is a unit row of B^*."""
    V, _, _, K, _ = F._state_space
    below = np.hstack([V, K / np.linalg.norm(K, axis=0)]).conj().T
    scale = np.maximum(np.linalg.norm(F.C), np.abs(mu))
    top = ((F.C - mu[:, None, None] * np.eye(F.dim))
           / np.where(scale > 0, scale, 1.0)[:, None, None])
    stack = np.concatenate([top, below + np.zeros((mu.size, 1, 1))], axis=1)
    return np.linalg.svd(stack, compute_uv=False)[:, -1]


def _psd_eig(A: NDArray[np.complex128]):
    """Eigenpairs of the Hermitian part of a PSD matrix, with the mask of
    those spanning its range: the module's one rank rule, eigenvalues
    above RANK_TOL times the largest."""
    w, V = np.linalg.eigh(_hermitian(A))
    return w, V, w > RANK_TOL * float(np.abs(w).max(initial=0.0))


def degree_rank(F: RationalPickFunction) -> int:
    """deg F = rk(D) + sum_j rk(A_j), the columns of F._state_space."""
    _, s, _, _, lams = F._state_space
    return s.size + lams.size


# -- winding-number degree computations --------------------------------------

# the disc-model circle every contour starts on; a planned contour has
# _PLANNED_SAMPLES uniform points, doubled until there are _TERM_SAMPLES
# per term of its plan (see _winding_with_features); one radius of the
# shrink schedule has _SHRINK_SAMPLES
_RADIUS = 1.25
_PLANNED_SAMPLES = 512
_TERM_SAMPLES = 32
_SHRINK_SAMPLES = 512
_MAX_SHRINKS = 16
_AGREEMENTS = 3


def _det(M: NDArray[np.complex128]) -> NDArray[np.complex128]:
    """Determinant of every matrix of an entry-major stack, shape (n, n, m).

    For n <= 3 LAPACK's per-matrix overhead costs far more than the
    arithmetic, so these are closed forms: the entry itself for n = 1
    (exact), ad - bc for n = 2, and for n = 3 one step of LU with LAPACK's
    partial pivoting (the first row of largest |re| + |im| in column 0)
    followed by ad - bc on the 2x2 Schur complement; both have errors of
    the order of pivoted LU's.  The unpivoted 3x3 cofactor formula does
    not: on zD + C with rank-1 D at |z| = 1e8 it loses all but one digit
    where LU keeps eight.  n >= 4 stays on np.linalg.det.
    """
    n = M.shape[0]
    if n == 1:
        return M[0, 0]
    if n == 2:
        return M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if n > 3:
        return np.linalg.det(np.moveaxis(M, (0, 1), (-2, -1)))
    g = np.abs(M[:, 0].real) + np.abs(M[:, 0].imag)
    # pivot row 1 or 2; LAPACK's swap then leaves rows (0, 2) or (1, 0)
    # below it, an odd permutation either way
    two = g[2] > np.maximum(g[0], g[1])
    one = (g[1] > g[0]) & ~two
    top = np.where(two, M[2], np.where(one, M[1], M[0]))
    r = np.where(one, M[0], M[1])
    s = np.where(two, M[0], M[2])
    piv = np.where(one | two, -top[0], top[0])
    # a zero pivot means a zero column 0: multipliers 0 and determinant 0
    div = np.where(top[0] == 0, 1.0, top[0])
    lr, ls = r[0] / div, s[0] / div
    return piv * ((r[1] - lr * top[1]) * (s[2] - ls * top[2])
                  - (r[2] - lr * top[2]) * (s[1] - ls * top[1]))


def _deflated(F: RationalPickFunction, mu: complex):
    """F(z) - mu as the Schur complement of a pencil, its ker D block
    eliminated where invertible: (A, S, Wp, V1, e1, Z), V1 and Z in C^n.

    In the coordinates [C^n, poles] of F._state_space the pencil is
    H0 + z H1, H0 = [[C - mu, K], [K^*, -diag(lams)]], H1 = diag(D, I) =
    W diag(S) W^* with W = [V, poles].  On ker H1 = U, H0 = U^* C U - mu
    has eigenvalues c - mu, c real and known to RANK_TOL on the scale
    max(|C|, |mu|), not the poles'; off the real line c - mu is exact.  Z
    takes the c - mu zero within that rounding, V1 the rest (e1 their
    c - mu), and eliminating V1 leaves A + z diag(S) = Wp^* (H0 + z H1) Wp,
    Wp = W - V1 diag(e1)^{-1} V1^* H0 W.
    """
    V, s, U, K, lams = F._state_space
    n, d, r = F.dim, s.size, lams.size
    # slices, not np.block, which takes some 15 us a call on blocks this small
    H0 = np.zeros((n + r, n + r), dtype=complex)
    H0[:n, :n], H0[:n, n:], H0[n:, :n] = F.C - mu * np.eye(n), K, K.conj().T
    H0[n:, n:] = -np.diag(lams)
    W = np.zeros((n + r, d + r), dtype=complex)
    W[:n, :d], W[n:, d:] = V, np.eye(r)
    c, Y = np.linalg.eigh(_hermitian(U.conj().T @ F.C @ U))
    zero = ((np.abs(c - mu) <= RANK_TOL * max(np.linalg.norm(F.C), abs(mu)))
            & (mu.imag == 0))
    V1, Z, e1 = U @ Y[:, ~zero], U @ Y[:, zero], (c - mu)[~zero]
    R = V1.conj().T @ H0[:n] @ W
    Wp = W.copy()
    Wp[:n] -= V1 @ (R / e1[:, None])
    A = W.conj().T @ H0 @ W - (R.conj().T / e1) @ R
    return A, np.append(s, np.ones(r)), Wp, V1, e1, Z


def _mirror_roots(F: RationalPickFunction, lam: complex) -> NDArray[np.complex128]:
    """All z with det(F(z) - conj(lam)) = 0, in the lower half-plane: at
    mu = conj(lam) _deflated leaves no Z, so these are the rk D + sum rk A_j
    eigenvalues of -S^{-1/2} A S^{-1/2}."""
    A, S = _deflated(F, np.conj(lam))[:2]
    g = 1.0 / np.sqrt(S)
    return np.linalg.eigvals(-(g[:, None] * A * g))


def _contour_plan(F: RationalPickFunction,
                  lam: complex) -> tuple[float, list[tuple[float, float]], int]:
    """Safe circle radius, the angular features needing dense sampling, and
    the number of mirror roots.

    The winding formulas are valid on circles below the disc-model images of
    the mirror solutions det(F(z) - conj(lam)) = 0; halving the gap to the
    closest of them keeps the contour inside the annulus of validity.  Each
    near-circle mirror root sits opposite a reflected zero at the reciprocal
    modulus, pinching the contour in an angular window comparable to the
    remaining margin, and the determinant also has fixed poles on the circle
    at the images of the function's poles and of infinity; all of these are
    returned as (angle, length scale) pairs.  Every mirror root counts;
    one within rounding of the unit circle raises DegenerateCurveError.
    There are rk D + sum rk A_j = deg F roots by construction, so each
    winding count on the contour must equal their number.
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
    return rs, feats, ws.size


@cache
def _level_grids(n0: int):
    """The function-independent grids of a planned contour, built once per
    process: n0 uniform angles on [0, 2 pi) and the 201 unit sinh offsets
    of a feature window.  Shared, so read-only."""
    span = np.arcsinh(60.0)
    uniform = np.linspace(0.0, 2.0 * np.pi, n0 + 1)[:-1]
    unit = np.sinh(np.linspace(-span, span, 201))
    uniform.flags.writeable = unit.flags.writeable = False
    return uniform, unit


def _winding_with_features(fn, kinds: Sequence[bool], rs: float,
                           feats: Sequence[tuple[float, float]],
                           terms: int) -> list[int]:
    """Winding of each curve of fn on the circle of radius rs, one per kind.

    fn(w, kinds) gives one array of curve values per kind (see
    _curve_sampler).  The contour is sampled once: N uniform points, N =
    _PLANNED_SAMPLES doubled until N >= _TERM_SAMPLES * terms, terms =
    2 deg F + #poles + 1 from the plan, and 201 points on the sinh window
    theta +- 60 d of each feature (theta, d).  Each curve is closed by its
    first sample, as the circle is: F evaluated again at 2 pi differs by
    rounding, which beside a pole on the circle breaks CurveSample's
    closure tolerance.  A non-finite or excluded curve raises
    DegenerateCurveError; a refused step, winding_number's
    UnderSampledCurveError.

    Why 32 points per term suffice.  Each curve is rational in w, and its
    zeros and poles are the mirror roots, their reflections 1/conj(w_k) and
    the images of the poles and of infinity, at most 2 deg F of them with
    multiplicity.  A uniform step h = 2 pi/N turns the argument of a factor
    w - a by at most rs h/delta, delta the distance of a from the circle,
    and rs <= 1.25.  A root of modulus >= 2 and its reflection, of modulus
    <= 1/2, are no features and have delta >= 1/2, so together such
    factors turn one step by at most 2 deg F * 2 rs h = 10 pi deg F/N <
    5 pi/32 < 0.5 rad.  Every other zero or pole is a feature: near it the
    circle is its tangent line, on which a point at distance d turns the
    argument by less than atan(1/60) < 1/60 rad beyond +-60 d, and farther
    away the first bound holds again.  So a step turns well under the pi/2 at which
    winding_number refuses, and no full turn can hide between two samples.

    One level, since finer ones never helped: on the pick-degree inputs,
    the tests' weak-residue families W8 and W11 and some 900 random
    functions, no curve it refused was accepted on any of four finer
    levels that each doubled both grids.
    """
    n0 = _PLANNED_SAMPLES
    while n0 < _TERM_SAMPLES * terms:
        n0 *= 2
    uniform, unit = _level_grids(n0)
    t = sorted_unique(np.concatenate(
        [uniform] + [np.mod(theta + d * unit, 2.0 * np.pi) for theta, d in feats]))
    counts = []
    for vals in fn(rs * np.exp(1j * t), kinds):
        if not np.all(np.isfinite(vals)):
            raise DegenerateCurveError("curve degenerated; singular contour point")
        vals = np.append(vals, vals[0])
        # the median modulus; np.median would import numpy.ma
        mods = np.sort(np.abs(vals))
        mid = (mods.size - 1) // 2, mods.size // 2
        scale = float(0.5 * mods[mid[0]] + 0.5 * mods[mid[1]])
        try:
            curve = CurveSample(vals, 1e-13 * scale)
        except ValueError as exc:
            raise DegenerateCurveError(str(exc)) from exc
        counts.append(winding_number(curve))
    return counts


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
    cause = "" if last_error is None else f": {last_error}"
    raise RuntimeError(
        f"winding count failed to stabilize down to r = {r:.6f}{cause}")


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


# circle points per stacked evaluation: a block's entry-major stack of
# F(z) - lam and F(z) - conj(lam) is 0.6 MB for 3x3 matrices, however many
# samples (up to 2^20) a winding count takes, and the seed-1 pick-degree task
# list run in one process peaks at 87.2-87.4 MB RSS; blocks of 8192 left a
# pick-degree round's peak RSS 3 MB higher
_SAMPLE_BLOCK = 2048


def _curve_sampler(F, lam: complex):
    """fn(w, kinds): one array of curve values per kind at the circle points w.

    Kind True is det phi_lam(F(z)), kind False det(F(z) - conj(lam)), with
    z = cayley_inverse(w).  F is evaluated in blocks of _SAMPLE_BLOCK
    points, one stacked _entries call per block for all kinds, which gives
    F(z) - conj(lam) and, when kind True is asked for, F(z) - lam, and
    det(F(z) - conj(lam)) is computed once per block: it is the second
    curve and the denominator of
    det phi_lam(M) = det(M - lam) / det(M - conj(lam)).
    """
    def block(w, kinds):
        shifts = (np.conj(lam), lam) if True in kinds else (np.conj(lam),)
        M = _entries(F, cayley_inverse(w), shifts)
        below = _det(M[0])
        # a NaN or infinite quotient fails the caller's finiteness check,
        # which raises DegenerateCurveError; numpy need not warn first
        with np.errstate(invalid="ignore", divide="ignore"):
            return [_det(M[1]) / below if blaschke else below
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
        rs, feats, roots = _contour_plan(F, lam)
        counts = _winding_with_features(fn, kinds, rs, feats,
                                        2 * roots + len(F.poles) + 1)
        # inside the contour kind True has deg F zeros (the reflected ones)
        # and no pole, kind False deg F poles (the images of the poles and
        # of infinity) and no zero
        if counts != [roots if k else -roots for k in kinds]:
            raise DegenerateCurveError(
                f"winding counts {counts} disagree with the {roots} mirror "
                "root(s) of the contour plan")
        return counts
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
    evaluation of F per block of circle points, the contour each call
    alone would sample, so the counts are those of the two calls.  A
    callable gets one radius-shrink schedule per count.
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
    return sum(int(_psd_eig(P)[2].sum()) for _, P in phi.factors)


# -- composition --------------------------------------------------------------

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
    """The (location, residue) pairs in ascending order, the residues at
    equal locations summed in turn: the constructor's rule for one pole.
    Distinct poles that rounded to one double lower the degree, which
    compose_scalar checks."""
    poles = sorted(poles, key=lambda p: p[0])
    return tuple((l, reduce(np.add, [A for _, A in run]))
                 for l, run in groupby(poles, key=lambda p: p[0]))


def _resolvent(G: RationalPickFunction, n: float) -> RationalPickFunction:
    """(n - G)^{-1}, itself a rational Pick function, in closed form.

    (n - G(z))^{-1} is -P^* (H0 + z H1)^{-1} P for the pencil of
    _deflated(G, n), P the embedding of the first dim coordinates, and the
    deflation splits it exactly:
    - the eliminated V1 gives the constant -V1 diag(e1)^{-1} V1^*;
    - Z pairs with the range through Bz = Wp^* H0 Z.  Each pair is an
      index-2 infinite eigenvalue and gives the linear term; this is how
      n at an eigenvalue of C on ker D, or g(inf) at a pole of F, shows;
    - the remaining Hermitian-definite pencil, on ker Bz^*, has the real
      poles as its eigenvalues and the residues V V^* from its
      eigenvectors, equal eigenvalues merged into one pole.
    No root finding and no evaluation of G: the poles are the real roots
    of det(G - n), and for a simple root zeta each residue equals
    V (V^* G'(zeta) V)^{-1} V^* with V spanning ker(G(zeta) - n).  Raises
    ValueError when det(G - n) vanishes identically, which needs a nonempty
    Z and is _pbh_smin at n, each block on its own scale (Bz mixes C with
    the residues).  Otherwise Bz x = 0 would put Z x in ker B^* and
    ker(C - n), so the last columns of Bz's complete QR span ker Bz^*.
    """
    dim = G.dim
    A, s, Wp, V1, e1, Z = _deflated(G, n)
    A = _hermitian(A)
    C = -(V1 / e1) @ V1.conj().T
    D = np.zeros((dim, dim), dtype=complex)
    # the finite part's basis in the coordinates of Wp (complex, so that
    # every eigh below is the complex LAPACK routine the degree path has
    # already loaded: a real one mapped 0.5 MB more), and its image under P^*
    Q2 = np.eye(s.size, dtype=complex)
    X = Wp[:dim]
    p = Z.shape[1]
    if p:
        if _pbh_smin(G, np.array([n]))[0] <= RANK_TOL:
            raise ValueError(f"det(G(z) - {n:g}) vanishes identically: "
                             "(n - G)^{-1} is undefined")
        # H0 Z = [C - n; K^*] Z, Z lying in the first dim coordinates
        Bz = Wp.conj().T @ np.vstack([G.C - n * np.eye(dim),
                                      G._state_space[3].conj().T]) @ Z
        # in the basis [Q2, S^{-1} Bz, Z] of the W' + Z block (S = diag(s)),
        # where Q2 spans ker Bz^*, the pencil's inverse splits into the
        # finite part on Q2 plus a constant and the linear term on Z
        Q2 = np.linalg.qr(Bz, mode="complete")[0][:, p:]
        SB = Bz / s[:, None]
        Gi = np.linalg.inv(Bz.conj().T @ SB)
        T = Gi @ SB.conj().T @ A
        Yt = Wp[:dim] @ SB @ Gi
        D = _hermitian(Z @ Gi @ Z.conj().T)
        C = C - Yt @ Z.conj().T - Z @ Yt.conj().T + Z @ (T @ SB @ Gi) @ Z.conj().T
        X = X - Z @ T
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
    c + d G + sum_i b_i (n_i - G)^{-1}: sums of _resolvent terms.  Raises
    TypeError for anything but a RationalPickFunction, ValueError for a
    non-scalar f or g and when some det(G - n_i) vanishes identically, and
    RuntimeError when its degree breaks the law deg f deg F deg g.
    """
    for h in (f, F, g):
        if not isinstance(h, RationalPickFunction):
            raise TypeError("compose_scalar composes RationalPickFunction "
                            f"instances, not {type(h).__name__}")
    if f.dim != 1 or g.dim != 1:
        raise ValueError("outer compositions must be scalar")
    G = _sum(F.C, [(F.D, g)] + [(A, _resolvent(g, l)) for l, A in F.poles])
    comp = _sum(f.C[0, 0].real * np.eye(F.dim),
                [(f.D[0, 0].real, G)]
                + [(A[0, 0].real, _resolvent(G, l)) for l, A in f.poles])
    deg, law = degree_rank(comp), degree_rank(f) * degree_rank(F) * degree_rank(g)
    if deg != law:
        raise RuntimeError(f"the composition has degree {deg}, not deg f deg F "
                           f"deg g = {law}: distinct poles may have rounded "
                           "to one double")
    return comp


def boundary_unitary(F: RationalPickFunction, t: float, x: float
                     ) -> NDArray[np.complex128]:
    """exp(i t F(x)) for real x away from the poles; unitary since F(x) = F(x)*."""
    w, U = np.linalg.eigh(_hermitian(pick_eval(F, float(x))))
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
    # a spec of the wrong shape (a list for a dict, a number for a matrix,
    # a missing key), or a dim no int holds (1e400 parses as inf), is an
    # input error like any other
    try:
        n = int(spec["dim"])
        C = _decode_matrix(spec["C"])
        D = _decode_matrix(spec["D"])
        if C.shape != (n, n) or D.shape != (n, n):
            raise ValueError("matrix dimensions disagree with dim")
        poles = tuple((float(p["lambda"]), _decode_matrix(p["A"]))
                      for p in spec.get("poles", []))
    except (LookupError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed Pick JSON: {exc}") from exc
    return RationalPickFunction(C, D, poles)


def dump_pick(F: RationalPickFunction) -> dict:
    return {
        "dim": F.dim,
        "C": _encode_matrix(F.C),
        "D": _encode_matrix(F.D),
        "poles": [{"lambda": l, "A": _encode_matrix(A)} for l, A in F.poles],
    }
