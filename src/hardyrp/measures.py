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

import json
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

import numpy as np
# the benchmark's tracer wraps every module's quad binding, this one included
from scipy.integrate import quad  # noqa: F401

from .numerics import QuadratureConfig, integrate_batched

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
    code = compile(expr, "<density>", "eval")
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
    A piece evaluates a float, or an ndarray of lam in one call where the
    expr and weight allow it (numpy arithmetic does) and node by node where
    they do not.
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
        else:
            if self.samples is None:
                raise ValueError("table density needs samples")
            # a private copy: the interpolant is built once, so rows the
            # caller changes later must not reach dump_measure either
            object.__setattr__(self, "samples",
                               tuple(tuple(row) for row in self.samples))
            pts = np.asarray(self.samples, dtype=float)
            pts = pts[np.argsort(pts[:, 0], kind="stable")]
            # np.interp: interp1d's values at a quarter of its cost per float
            fn = partial(np.interp, xp=pts[:, 0], fp=pts[:, 1],
                         left=0.0, right=0.0)
        object.__setattr__(self, "_fn", fn)

    def __call__(self, lam):
        # the weight is read only where the density is not 0: a reweighted
        # measure is 0 there too, however large the weight (t_map's grows
        # like l^3 where a density has already underflowed to 0)
        if isinstance(lam, np.ndarray):
            v = _on_nodes(self._fn, lam)
            if self.weight is None:
                return v
            out = np.zeros(lam.shape)
            live = v != 0.0
            out[live] = v[live] * _on_nodes(self.weight, lam[live])
            return out
        v = float(self._fn(lam))
        if self.weight is not None and v:
            v *= self.weight(lam)
        return v

    @property
    def kinks(self) -> tuple[float, ...]:
        """The points of (a, b) where the density is not smooth: a table's
        sample abscissae, every integral's breakpoints."""
        if self.kind != "table":
            return ()
        return tuple(l for l, _ in self.samples if self.a < l < self.b)

    def reweighted(self, w: Callable[[float], float]) -> "DensityPiece":
        old = self.weight
        new = w if old is None else (lambda lam: old(lam) * w(lam))
        return DensityPiece(self.a, self.b, self.kind, self.expr,
                            self.samples, new)


@dataclass(frozen=True)
class BoundaryMeasure:
    """Finite positive Borel measure on [0, inf].

    Immutable, so that _cache, the one store of quantities derived from the
    measure (psi_big values, mass, boundary phase, axis values of F_nu), can
    never go stale; cached is its one reader and writer.
    """

    atom0: float = 0.0
    atom_inf: float = 0.0
    atoms: tuple[tuple[float, float], ...] = ()
    density: tuple[DensityPiece, ...] = ()
    # one table per derived quantity, keyed by its argument ("psi" by p^2,
    # "phase" by |x|, "axis" by lam, "mass" by 0): name -> (keys, values)
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        if self.atom0 < 0 or self.atom_inf < 0:
            raise ValueError("atom weights must be nonnegative")
        object.__setattr__(self, "atoms",
                           tuple((float(l), float(w)) for l, w in self.atoms))
        object.__setattr__(self, "density", tuple(self.density))
        locs = [l for l, _ in self.atoms]
        if any(l <= 0 or not math.isfinite(l) for l in locs):
            raise ValueError("atom locations must lie in (0, inf)")
        if len(set(locs)) != len(locs):
            raise ValueError("atom locations must be distinct")
        if any(w < 0 for _, w in self.atoms):
            raise ValueError("atom weights must be nonnegative")

    def cached(self, name: str, keys,
               compute: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Values of the derived quantity name at the float array keys.

        The keys not in the table name yet go to compute in one call, as
        one sorted array without repeats, and compute returns their values;
        it is not called when every key is cached.  The result has the
        shape of keys.  A table is a pair of arrays, the sorted keys and
        their values: a lookup is one searchsorted, and the new keys of a
        call go in with one np.unique and one sort.
        """
        keys = np.asarray(keys, dtype=float)
        flat = keys.ravel()
        known, values = self._cache.get(name, (_NO_KEYS, _NO_KEYS))
        at = np.searchsorted(known, flat)
        missing = (flat[known[np.minimum(at, known.size - 1)] != flat]
                   if known.size else flat)
        if missing.size:
            todo = np.unique(missing)
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
        m components of the integrand, which the density passes scale in
        place.  The interior atoms are one numpy sum; each density piece is
        one integrate_batched pass in v = log l (_piece_integral) under
        cfg's componentwise tolerances.  at_zero / at_inf are the m
        integrand values at the endpoint atoms, required only when that
        atom carries mass.  Raises QuadratureError when a pass spends its
        panel budget and ValueError on a non-finite integrand or a density
        whose integrand has not decayed at the cut l = e^log_cut (by
        default _LOG_LAM_MAX, the largest that keeps l^2 finite).
        """
        locs, weights = np.array(self.atoms, dtype=float).reshape(-1, 2).T
        total = weights @ fn(locs)
        for mass, value, name in ((self.atom0, at_zero, "at_zero"),
                                  (self.atom_inf, at_inf, "at_inf")):
            if mass > 0:
                if value is None:
                    raise ValueError(f"measure has an endpoint atom; "
                                     f"supply {name}")
                total = total + mass * np.asarray(value, dtype=float)
        for piece in self.density:
            total = total + _piece_integral(piece, fn, cfg, log_cut)
        if not np.isfinite(total).all():
            raise ValueError("integral against the measure is not finite")
        return total

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


def _scalar_integral(nu: BoundaryMeasure, fn: Callable, **ends) -> float:
    """int fn dnu for a numpy fn of l, as a one-component integrate under
    _PSI_QUADRATURE (the psi tolerance, so the mass of the envelope clamp
    is as accurate as the values it clamps)."""
    return float(nu.integrate(lambda lam: fn(lam)[:, None], _PSI_QUADRATURE,
                              **ends)[0])


def total_mass(nu: BoundaryMeasure) -> float:
    return _scalar_integral(nu, np.ones_like, at_zero=1.0, at_inf=1.0)


def _atom_sum(nu: BoundaryMeasure, p2):
    """pi psi_big(nu, p) without the density pieces, for float or array p2."""
    total = nu.atom0 / p2 + nu.atom_inf
    return total + sum(w * (1.0 + l * l) / (p2 + l * l) for l, w in nu.atoms)


def _mass(nu: BoundaryMeasure) -> float:
    return float(nu.cached("mass", 0.0, lambda _: [total_mass(nu)]))


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


def _clamped_psi(nu: BoundaryMeasure, p2: np.ndarray,
                 total: np.ndarray) -> np.ndarray:
    """psi_big = total / pi, with total (pi psi_big) pulled into its
    envelope: the kernel lies between min(1, 1/p^2) and max(1, 1/p^2), so
    the true value does too, and residual quadrature noise at extreme p is
    pulled back in."""
    mass = _mass(nu)
    return np.clip(total, mass * np.minimum(1.0, 1.0 / p2),
                   mass * np.maximum(1.0, 1.0 / p2)) / np.pi


def _piece_integral(piece: DensityPiece, fn: Callable,
                    cfg: QuadratureConfig, log_cut: float | None = None):
    """int fn(l) piece(l) dl, fn(l) a new (n, m) array for n nodes l, in one
    adaptive Gauss-Kronrod pass in v = log l, dl = l dv: the density is
    evaluated once per node for all m components.  v = 0 (where 1 + l^2
    turns from 1 to l^2) and the table kinks are initial panel edges.  The
    piece is cut at l = e^log_cut (default _LOG_LAM_MAX), and ValueError
    says the integral diverges when the integrand there is above some
    component's tolerance."""
    cut = _LOG_LAM_MAX if log_cut is None else log_cut
    lo = math.log(piece.a)
    hi = min(math.log(piece.b), cut)
    if lo >= hi:
        return 0.0

    def f(v):
        lam = np.exp(v)
        out = fn(lam)
        out *= (piece(lam) * lam)[:, None]
        if not np.isfinite(out).all():
            raise ValueError("integrand against the measure is not finite")
        return out

    breaks = [0.0, *(math.log(k) for k in piece.kinks)]
    value = integrate_batched(f, lo, hi, cfg, breaks)
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
    """l -> (1+l^2)/(p2_i+l^2), an (n, m) array for n nodes and m keys."""
    def fn(lam):
        lam2 = lam * lam
        return (1.0 + lam2)[:, None] / (p2 + lam2[:, None])
    return fn


def _psi_values(nu: BoundaryMeasure, p2: np.ndarray) -> np.ndarray:
    """psi_big of a density measure at the sorted keys p2 = p^2."""
    out = []
    # sorted keys make each chunk a narrow band of p, whose kernels change
    # on the same stretch of v
    for start in range(0, p2.size, _PSI_CHUNK):
        keys = p2[start:start + _PSI_CHUNK]
        total = _atom_sum(nu, keys)
        for piece in nu.density:
            total = total + _piece_integral(piece, _psi_kernel(keys),
                                            _PSI_QUADRATURE)
        out.append(_clamped_psi(nu, keys, total))
    return np.concatenate(out)


def psi_big(nu: BoundaryMeasure, p):
    """(1/pi) int (1+l^2)/(p^2+l^2) dnu(l), the l = inf integrand being 1.

    p is a float (a float is returned) or an ndarray (an array of the same
    shape); a float is a one-element array.  The result is clamped into the
    envelope mass min(1, 1/p^2) <= pi psi_big <= mass max(1, 1/p^2).  On a
    measure without density pieces it is one closed-form numpy sum (not
    cached).  With density pieces the values are cached on nu, keyed by
    p^2, and all uncached p of a call are integrated at once: per piece one
    adaptive Gauss-Kronrod pass in v = log l (integrate_batched) whose
    components are the p of a chunk of at most _PSI_CHUNK sorted keys, with
    the table kinks as initial panel edges.  Raises QuadratureError when a
    pass spends its panel budget and ValueError when p = 0 or the mass
    diverges.
    """
    if not isinstance(p, np.ndarray):
        return float(psi_big(nu, np.array([float(p)]))[0])
    p = np.asarray(p, dtype=float)
    if not p.all():
        raise ValueError("psi_big is undefined at p = 0")
    if nu.density:
        return nu.cached("psi", p * p, partial(_psi_values, nu))
    p2 = p * p
    return _clamped_psi(nu, p2, _atom_sum(nu, p2))


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

def _parse_bound(v) -> float:
    if isinstance(v, str):
        if v.lower() in ("inf", "infinity"):
            return np.inf
        return float(v)
    return float(v)


def load_measure(source) -> BoundaryMeasure:
    """Build a measure from a JSON dict, JSON string, or file path."""
    if isinstance(source, dict):
        spec = source
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        spec = json.loads(source)
    else:
        with open(source) as fh:
            spec = json.load(fh)
    pieces = []
    for d in spec.get("density", []):
        a, b = (_parse_bound(v) for v in d["interval"])
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
