"""Finite positive Borel measures on [0, inf] and their scalar transforms.

A measure is stored as atoms at 0 and infinity, a finite list of interior
atoms, and piecewise densities on subintervals of (0, inf).  The transforms
implemented here are

    psi_big(nu, p)  = (1/pi) int (1+l^2)/(p^2+l^2) dnu(l)   (l = inf -> 1)
    psi_small(mu,p) = (1/pi) int l/(l^2+p^2) dmu(l)
    phi_mu(mu, t)   = int exp(-l |t|) dmu(l)
    w_map(mu)       = the measure with d(W mu)(l) = l/(1+l^2) dmu(l)

and they satisfy psi_big(w_map(mu)) = psi_small(mu) and the Fourier
relation F1(psi_small(mu)) = phi_mu with (F1 f)(t) = int exp(-itx) f(x) dx.
"""
from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .numerics import QuadratureConfig, integrate_batched, sorted_unique

# the name perfbench/tracing.py rebinds; ROADMAP item 13 deletes it
quad = None

__all__ = [
    "DensityPiece",
    "BoundaryMeasure",
    "total_mass",
    "psi_big",
    "psi_small",
    "phi_mu",
    "w_map",
    "load_measure",
    "dump_measure",
    "lebesgue_cauchy_measure",
]

# the empty table of BoundaryMeasure.cached
_NO_KEYS = np.empty(0)

_EXPR_NAMESPACE = {
    "sqrt": np.sqrt, "exp": np.exp, "log": np.log, "abs": np.abs,
    "sin": np.sin, "cos": np.cos, "arctan": np.arctan, "atan": np.arctan,
    "pi": np.pi, "e": np.e,
}


def _compile_expr(expr: str) -> Callable:
    try:
        code = compile(expr, "<density>", "eval")
    except SyntaxError as exc:
        raise ValueError(f"density expression {expr!r}: {exc.msg}") from exc
    for name in code.co_names:
        if name not in _EXPR_NAMESPACE and name not in ("lam", "x"):
            raise ValueError(f"disallowed name {name!r} in density expression")

    # the namespace is numpy's, so lam may be a float or an ndarray
    def f(lam):
        return eval(code, {"__builtins__": {}},
                    {**_EXPR_NAMESPACE, "lam": lam, "x": lam})

    return f


def _on_nodes(fn: Callable, lam: np.ndarray) -> np.ndarray:
    try:
        v = np.asarray(fn(lam), dtype=float)
    except (TypeError, ValueError):
        # a conditional expression ("1 if lam < 2 else 0.5") or a callable
        # written for floats: node by node
        v = np.array([float(fn(l)) for l in lam.ravel().tolist()])
        v = v.reshape(lam.shape)
    # a constant expression or weight returns a scalar for every lam
    return np.broadcast_to(v, lam.shape)


@dataclass(frozen=True)
class DensityPiece:
    """Nonnegative density on an interval (a, b) of (0, inf).

    kind is "closed-form" (expr: a formula in `lam`, or a Python callable)
    or "table" (samples: rows of (lam, value), linearly interpolated).
    A piece evaluates an ndarray of lam (a float is returned for a float)
    in one call where the expr and weight allow it (numpy arithmetic does)
    and node by node where they do not.
    """

    a: float
    b: float
    kind: str = "closed-form"
    expr: str | Callable[[float], float] | None = None
    samples: Sequence[Sequence[float]] | None = None
    # scale lets w_map and friends reweight a piece without recompiling
    weight: Callable[[float], float] | None = None

    def __post_init__(self):
        if not (0.0 < self.a < self.b):
            raise ValueError("density interval must satisfy 0 < a < b")
        if self.kind not in ("closed-form", "table"):
            raise ValueError(f"unknown density kind {self.kind!r}")
        if self.kind == "closed-form":
            if self.expr is None:
                raise ValueError("closed-form density needs an expr")
            fn = self.expr if callable(self.expr) else _compile_expr(self.expr)
            log_kinks = ()
        else:
            if self.samples is None:
                raise ValueError("table density needs samples")
            # a private copy: the interpolant is built once, so rows the
            # caller changes later must not reach dump_measure either
            object.__setattr__(self, "samples",
                               tuple(tuple(row) for row in self.samples))
            pts = np.asarray(self.samples, dtype=float)
            if not (np.isfinite(pts).all() and (pts[:, 1] >= 0).all()):
                raise ValueError("table samples must be finite, with "
                                 "nonnegative density values")
            pts = pts[np.argsort(pts[:, 0], kind="stable")]
            # np.interp: interp1d's values at a quarter of its cost per float
            fn = partial(np.interp, xp=pts[:, 0], fp=pts[:, 1],
                         left=0.0, right=0.0)
            x = pts[:, 0]
            log_kinks = tuple(np.log(x[(self.a < x) & (x < self.b)]).tolist())
        object.__setattr__(self, "_fn", fn)
        object.__setattr__(self, "_log_kinks", log_kinks)

    def __call__(self, lam):
        # the weight is read only where the density is not 0: a reweighted
        # measure is 0 there too, however large the weight (t_map's grows
        # like l^3 where a density has already underflowed to 0)
        lam = np.asarray(lam, dtype=float)
        v = _on_nodes(self._fn, lam)
        if self.weight is not None:
            out = np.zeros(lam.shape)
            live = v != 0.0
            out[live] = v[live] * _on_nodes(self.weight, lam[live])
            v = out
        return v if lam.ndim else float(v)

    @property
    def log_kinks(self) -> tuple[float, ...]:
        """v = log l, ascending, of the points of (a, b) where the density is
        not smooth: a table's sample abscissae, breakpoints of every
        integral in v.  Computed once, when the piece is built."""
        return self._log_kinks

    def reweighted(self, w: Callable[[float], float]) -> "DensityPiece":
        old = self.weight
        new = w if old is None else (lambda lam: old(lam) * w(lam))
        return DensityPiece(self.a, self.b, self.kind, self.expr,
                            self.samples, new)


@dataclass(frozen=True)
class BoundaryMeasure:
    """Finite positive Borel measure on [0, inf].

    Immutable, so that _cache, the one store of quantities derived from the
    measure (psi_big values, boundary phase, axis values of F_nu), can
    never go stale; cached is its one reader and writer.
    """

    atom0: float = 0.0
    atom_inf: float = 0.0
    atoms: tuple[tuple[float, float], ...] = ()
    density: tuple[DensityPiece, ...] = ()
    # one table per derived quantity, keyed by its argument ("psi" by p^2,
    # "phase" by |x|, "axis" by lam): name -> (keys, values)
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        object.__setattr__(self, "atoms",
                           tuple((float(l), float(w)) for l, w in self.atoms))
        object.__setattr__(self, "density", tuple(self.density))
        locs = [l for l, _ in self.atoms]
        if any(l <= 0 or not math.isfinite(l) for l in locs):
            raise ValueError("atom locations must lie in (0, inf)")
        if len(set(locs)) != len(locs):
            raise ValueError("atom locations must be distinct")
        # NaN fails every comparison, so "w < 0" alone would let it through
        weights = [self.atom0, self.atom_inf] + [w for _, w in self.atoms]
        if not all(math.isfinite(w) and w >= 0 for w in weights):
            raise ValueError("atom weights must be finite and nonnegative")

    def cached(self, name: str, keys,
               compute: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Values of the derived quantity name at the float array keys.

        The keys not in the table name yet go to compute in one call, as
        one sorted array without repeats, and compute returns their values;
        it is not called when every key is cached.  The result has the
        shape of keys.  A table is a pair of arrays, the sorted keys and
        their values: a lookup is one searchsorted, and the new keys of a
        call go in with one sorted_unique and one sort.
        """
        keys = np.asarray(keys, dtype=float)
        flat = keys.ravel()
        known, values = self._cache.get(name, (_NO_KEYS, _NO_KEYS))
        at = np.searchsorted(known, flat)
        missing = (flat[known[np.minimum(at, known.size - 1)] != flat]
                   if known.size else flat)
        if missing.size:
            todo = sorted_unique(missing)
            new = np.asarray(compute(todo), dtype=float)
            order = np.argsort(np.concatenate([known, todo]), kind="stable")
            known = np.concatenate([known, todo])[order]
            values = np.concatenate([values, new])[order]
            self._cache[name] = (known, values)
            at = np.searchsorted(known, flat)
        return values[at].reshape(keys.shape)

    # -- generic integration -------------------------------------------------

    def integrate(
        self,
        fn: Callable[[np.ndarray], np.ndarray],
        cfg: QuadratureConfig,
        at_zero=None,
        at_inf=None,
        log_cut: float | None = None,
    ) -> np.ndarray:
        """Integral of the vector-valued fn against the measure.

        fn maps an ndarray of n points l to a new (n, m) float array, the
        m components of the integrand, which is scaled in place by the
        points' weights: this is _weighted_integral with those rows.  The
        interior atoms are one numpy sum; each density piece is one
        integrate_batched pass in v = log l (_piece_integral) under cfg's
        componentwise tolerances.  at_zero / at_inf are the m integrand
        values at the endpoint atoms, required only when that atom carries
        mass.  Raises QuadratureError when a pass spends its panel budget
        and ValueError on a non-finite integrand or a density whose
        integrand has not decayed at the cut l = e^log_cut (by default
        _LOG_LAM_MAX, the largest that keeps l^2 finite).
        """
        def rows(lam, w):
            out = fn(lam)
            out *= w[:, None]
            if not np.isfinite(out).all():
                raise ValueError(_NOT_FINITE)
            return out

        return _weighted_integral(self, rows, cfg, at_zero, at_inf, log_cut)

    @property
    def is_zero(self) -> bool:
        return (self.atom0 == 0 and self.atom_inf == 0 and not self.atoms
                and not self.density)

    def scaled(self, c: float) -> "BoundaryMeasure":
        if c < 0:
            raise ValueError("scale factor must be nonnegative")
        return BoundaryMeasure(
            c * self.atom0, c * self.atom_inf,
            [(l, c * w) for l, w in self.atoms],
            [p.reweighted(lambda lam, c=c: c) for p in self.density],
        )

    def __add__(self, other: "BoundaryMeasure") -> "BoundaryMeasure":
        merged = dict(self.atoms)
        for l, w in other.atoms:
            merged[l] = merged.get(l, 0.0) + w
        return BoundaryMeasure(
            self.atom0 + other.atom0, self.atom_inf + other.atom_inf,
            sorted(merged.items()), self.density + other.density,
        )


_NOT_FINITE = "integral against the measure is not finite"


def _weighted_integral(nu: BoundaryMeasure, rows: Callable, cfg, at_zero,
                       at_inf, log_cut) -> np.ndarray:
    """BoundaryMeasure.integrate for an integrand given by its weighted rows.

    rows maps n points l and their n weights w to the new (n, m) array of
    w_i times the m integrand components at l_i, and raises ValueError
    where that is not finite.  A density pass gives it the weights
    w = d(l) l of its nodes in v = log l (_piece_integral), so an
    integrand may fold them into an n-vector before it forms the n x m
    rows; the interior atoms come with unit weights, and their masses are
    one product.
    """
    total = 0.0
    if nu.atoms:
        locs, weights = np.array(nu.atoms, dtype=float).T
        total = weights @ rows(locs, np.ones(locs.size))
    for mass, value, name in ((nu.atom0, at_zero, "at_zero"),
                              (nu.atom_inf, at_inf, "at_inf")):
        if mass > 0:
            if value is None:
                raise ValueError(f"measure has an endpoint atom; "
                                 f"supply {name}")
            total = total + mass * np.asarray(value, dtype=float)
    for piece in nu.density:
        total = total + _piece_integral(piece, rows, cfg, log_cut)
    if not np.ndim(total):
        # no term had the integrand's shape: its zero, from no nodes
        total = total + rows(_NO_KEYS, _NO_KEYS).sum(axis=0)
    if not np.isfinite(total).all():
        raise ValueError(_NOT_FINITE)
    return total


def _scalar_integral(nu: BoundaryMeasure, fn: Callable, **ends) -> float:
    """int fn dnu for a numpy fn of l, as a one-component integrate under
    _PSI_QUADRATURE, so total_mass, psi_small and phi_mu meet psi_big's
    tolerance."""
    return float(nu.integrate(lambda lam: fn(lam)[:, None], _PSI_QUADRATURE,
                              **ends)[0])


def total_mass(nu: BoundaryMeasure) -> float:
    return _scalar_integral(nu, np.ones_like, at_zero=1.0, at_inf=1.0)


# psi_big's density passes, and the scalar integrals against a measure.
# At relative 1e-10 the honest |Kronrod - Gauss| estimate left a Cauchy
# density's long tail panel 1.6e-13 off, where QUADPACK landed within
# 1e-15; relative 1e-12 per p matches that at next to no extra cost.
# abs_tol only keeps the componentwise test defined where a piece's
# integral is 0.  Keys go in chunks of _PSI_CHUNK, so a pass holds at most
# that many components whatever the array's size.
_PSI_QUADRATURE = QuadratureConfig(abs_tol=1e-300, rel_tol=1e-12,
                                   max_subdivisions=2000)
_PSI_CHUNK = 256
# densities are cut at lam = e^300, where lam^2 nears overflow; a finite
# measure has next to no mass there
_LOG_LAM_MAX = 300.0


def _first_edges(lo: float, hi: float, kinks) -> list[float]:
    """The first panel edges inside (lo, hi) of a pass in v = log l: 0,
    the kinks, and the graded points +-2^k, k >= 0, that lie in a stretch
    between those edges wider than max(1, 2^k / 2), the graded panel that
    ends at +-2^k.

    psi_big's kernel (1+l^2)/(p^2+l^2) and densities such as
    c/(b^2+l^2) are analytic in the strip |Im v| < pi/2, so panels about 1
    wide resolve them near their scales v = log p, log b, and away from
    those scales they decay, so a panel may widen with |v|.  The graded
    partition starts there: psi_big on the Cauchy density at 7 p from 1e-3
    to 1e3 takes 3 passes, where bisecting [log a, 0] and [0, _LOG_LAM_MAX]
    took 9.  A table's kinks, finer than the grading, get no graded point.
    """
    # plain floats: on a 64-row table's few dozen edges, numpy's per-call
    # overhead made this 5 times slower
    fixed = sorted({lo, hi, *(v for v in (0.0, *kinks) if lo < v < hi)})
    graded = []
    g = 1.0
    while g < max(-lo, hi):
        for v in (-g, g):
            if lo < v < hi:
                at = bisect.bisect(fixed, v)
                if fixed[at] - fixed[at - 1] > max(1.0, g / 2):
                    graded.append(v)
        g *= 2.0
    return sorted(fixed[1:-1] + graded)


def _piece_integral(piece: DensityPiece, rows: Callable,
                    cfg: QuadratureConfig, log_cut: float | None = None):
    """int g(l) piece(l) dl for the integrand g whose weighted rows, the
    (n, m) array w_i g(l_i), rows(l, w) gives (_weighted_integral), in one
    adaptive Gauss-Kronrod pass in v = log l, dl = l dv: the density is
    evaluated once per node for all m components, the weights are w =
    piece(l) l, and a negative value of a closed-form density raises
    ValueError there.  The first panels are _first_edges': v = 0 (where
    1 + l^2 turns from 1 to l^2), the table kinks and the graded points
    +-2^k.  The piece is cut at l = e^log_cut (default _LOG_LAM_MAX), and
    ValueError says the integral diverges when the integrand there is
    above some component's tolerance."""
    cut = _LOG_LAM_MAX if log_cut is None else log_cut
    lo = math.log(piece.a)
    hi = min(math.log(piece.b), cut)
    if lo >= hi:
        return 0.0

    # a table's samples were checked when it was built; a formula's sign
    # shows only at its nodes
    signed = piece.kind == "closed-form"

    def f(v):
        lam = np.exp(v)
        d = piece(lam)
        if signed and (d < 0.0).any():
            raise ValueError(
                f"the density on ({piece.a:g}, {piece.b:g}) is negative at "
                f"l = {lam[np.argmax(d < 0.0)]:g}")
        return rows(lam, d * lam)

    value = integrate_batched(f, lo, hi, cfg,
                              _first_edges(lo, hi, piece.log_kinks))
    if hi < math.log(piece.b):
        edge = np.abs(f(np.array([hi]))[0])
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value))
        if not (edge <= tol).all():
            raise ValueError(
                f"the integral against the density on ({piece.a:g}, "
                f"{piece.b:g}) diverges: its integrand has not decayed at "
                f"the cut l = e^{cut:g}")
    return value


def _psi_kernel(p2: np.ndarray) -> Callable:
    """The weighted rows (l, w) -> w (1+l^2)/(p2_j+l^2), an (n, m) array
    for n nodes and m keys (_weighted_integral).

    The weight goes into the numerator w (1+l^2), an n-vector, and so does
    the finiteness test: every denominator is positive where p2 > 0 or
    l^2 > 0, so an entry is finite exactly when its numerator is.
    """
    def rows(lam, w):
        lam2 = lam * lam
        num = w * (1.0 + lam2)
        if not (np.isfinite(num).all() and (p2.all() or lam2.all())):
            raise ValueError(_NOT_FINITE)
        return num[:, None] / (p2 + lam2[:, None])
    return rows


def _psi_values(nu: BoundaryMeasure, p2: np.ndarray) -> np.ndarray:
    """psi_big at the flat keys p2 = p^2, one integrate call per chunk of
    at most _PSI_CHUNK keys (an empty p2 is one empty chunk).  The atom at
    0 contributes atom0 / p^2, and ValueError says so where that overflows
    (p^2 may underflow to 0)."""
    if nu.atom0 > 0:
        with np.errstate(divide="ignore", over="ignore"):
            if not np.isfinite(nu.atom0 * (1.0 / p2)).all():
                raise ValueError("psi_big overflows: the atom at 0 "
                                 "contributes atom0 / p^2, which is not "
                                 "finite at the smallest p")
    # sorted keys make each chunk a narrow band of p, whose kernels change
    # on the same stretch of v
    chunks = [p2[start:start + _PSI_CHUNK]
              for start in range(0, max(p2.size, 1), _PSI_CHUNK)]
    return np.concatenate([
        _weighted_integral(nu, _psi_kernel(keys), _PSI_QUADRATURE,
                           1.0 / keys if nu.atom0 > 0 else None, 1.0, None)
        for keys in chunks]) / np.pi


def psi_big(nu: BoundaryMeasure, p):
    """(1/pi) int (1+l^2)/(p^2+l^2) dnu(l), the l = inf integrand being 1.

    p is a float (a float is returned) or an array-like (an array of the
    same shape).  The values come from BoundaryMeasure.integrate as
    computed, the atoms one numpy sum and each density piece one adaptive
    Gauss-Kronrod pass in v = log l (integrate_batched) whose components
    are the p of a chunk of at most _PSI_CHUNK keys, from the graded first
    panels of _first_edges; no clamp pulls them into mass min(1, 1/p^2)
    <= pi psi_big <= mass max(1, 1/p^2).  The values are cached on nu,
    keyed by p^2, and all uncached p of a call are integrated at once, in
    sorted chunks.  Raises QuadratureError when a pass spends its panel
    budget and ValueError when p is 0 or NaN, atom0 / p^2 overflows, or
    the mass diverges.
    """
    p = np.asarray(p, dtype=float)
    if not p.all():
        raise ValueError("psi_big is undefined at p = 0")
    if np.isnan(p).any():
        raise ValueError("psi_big is undefined at p = nan")
    # a p^2 that overflows is the key inf, whose kernel is 0: the p -> inf
    # limit
    with np.errstate(over="ignore"):
        p2 = p * p
    v = nu.cached("psi", p2, partial(_psi_values, nu))
    return v if p.ndim else float(v)


def psi_small(mu: BoundaryMeasure, p: float) -> float:
    """(1/pi) int l/(l^2+p^2) dmu(l) for mu supported on (0, inf)."""
    if p == 0:
        raise ValueError("psi_small is undefined at p = 0")
    if mu.atom_inf > 0:
        raise ValueError("psi_small requires no atom at infinity")
    p2 = p * p
    return _scalar_integral(mu, lambda lam: lam / (lam * lam + p2),
                            at_zero=0.0) / np.pi


def phi_mu(mu: BoundaryMeasure, t: float) -> float:
    """int exp(-l |t|) dmu(l) for mu supported on [0, inf)."""
    if mu.atom_inf > 0:
        raise ValueError("phi_mu requires no atom at infinity")
    a = abs(t)
    return _scalar_integral(mu, lambda lam: np.exp(-lam * a), at_zero=1.0)


def w_map(mu: BoundaryMeasure) -> BoundaryMeasure:
    """The measure with d(W mu)(l) = l/(1+l^2) dmu(l)."""
    if mu.atom0 > 0 or mu.atom_inf > 0:
        raise ValueError("w_map requires a measure supported on (0, inf)")
    return BoundaryMeasure(
        0.0, 0.0,
        [(l, w * l / (1.0 + l * l)) for l, w in mu.atoms],
        [p.reweighted(lambda lam: lam / (1.0 + lam * lam)) for p in mu.density],
    )


def lebesgue_cauchy_measure() -> BoundaryMeasure:
    """The measure with density 2/(1+l^2) on (0, inf); total mass pi."""
    return BoundaryMeasure(density=[
        DensityPiece(1e-12, np.inf, "closed-form", "2/(1+lam**2)")
    ])


# -- JSON serialization ------------------------------------------------------

def load_measure(source) -> BoundaryMeasure:
    """Build a measure from a JSON dict, JSON string, or file path."""
    if isinstance(source, dict):
        spec = source
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        spec = json.loads(source)
    else:
        with open(source) as fh:
            spec = json.load(fh)
    # a spec of the wrong shape (a list for a dict, a number for a list,
    # a missing key) is an input error like any other
    try:
        pieces = []
        for d in spec.get("density", []):
            a, b = map(float, d["interval"])
            kind = d.get("kind", "closed-form")
            pieces.append(DensityPiece(
                a, b, kind,
                expr=d.get("expr"), samples=d.get("samples"),
            ))
        return BoundaryMeasure(
            atom0=float(spec.get("atom0", 0.0)),
            atom_inf=float(spec.get("atomInf", 0.0)),
            atoms=[tuple(pair) for pair in spec.get("atoms", [])],
            density=pieces,
        )
    except (LookupError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed measure JSON: {exc}") from exc


def dump_measure(nu: BoundaryMeasure) -> dict:
    """Inverse of load_measure for measures with serializable densities."""
    out = {
        "atom0": nu.atom0,
        "atomInf": nu.atom_inf,
        "atoms": [[l, w] for l, w in nu.atoms],
        "density": [],
    }
    for p in nu.density:
        if p.weight is not None or callable(p.expr):
            raise ValueError("density piece is not serializable")
        d = {"interval": [p.a, "inf" if np.isinf(p.b) else p.b], "kind": p.kind}
        if p.kind == "closed-form":
            d["expr"] = p.expr
        else:
            d["samples"] = [list(row) for row in p.samples]
        out["density"].append(d)
    return out
