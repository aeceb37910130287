"""Computational model of the Hardy space of the upper half-plane.

Elements are represented two ways: symbolically as finite combinations of
reproducing (Szegö) kernels, for closed-form inner products, and numerically
as values on a fixed boundary grid, for anything involving a multiplier
symbol.  The grid uses tangent-substitution Gauss-Legendre panels, symmetric
about 0 and excluding 0, so that symbols discontinuous only at the origin
(sign-type) integrate to high order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "szego",
    "KernelCombination",
    "BoundaryGrid",
    "SymbolFunction",
    "boundary_nodes",
    "inner",
    "apply_S",
    "apply_theta",
    "cayley",
    "cayley_inverse",
    "cayley_gamma",
]


def szego(w: complex, z) -> complex:
    """Reproducing kernel Q_w(z) = (1/2pi) i/(z - conj(w)), Im w > 0."""
    if np.imag(w) <= 0:
        raise ValueError("kernel anchor must lie in the open upper half-plane")
    return (0.5j / np.pi) / (np.asarray(z) - np.conj(w))


@dataclass(frozen=True)
class KernelCombination:
    """Finite combination sum_k c_k Q_{z_k} with anchors in the upper half-plane."""

    terms: tuple[tuple[complex, complex], ...]

    def __init__(self, terms: Sequence[tuple[complex, complex]]):
        terms = tuple((complex(c), complex(z)) for c, z in terms)
        if any(z.imag <= 0 for _, z in terms):
            raise ValueError("anchors must lie in the open upper half-plane")
        object.__setattr__(self, "terms", terms)

    def __call__(self, z):
        z = np.asarray(z)
        out = np.zeros(z.shape, dtype=complex)
        for c, zk in self.terms:
            out = out + c * szego(zk, z)
        return out if out.shape else complex(out)

    def __add__(self, other: "KernelCombination") -> "KernelCombination":
        return KernelCombination(self.terms + other.terms)

    def scaled(self, c: complex) -> "KernelCombination":
        return KernelCombination([(c * ck, zk) for ck, zk in self.terms])


def inner(f: KernelCombination, g: KernelCombination) -> complex:
    """Closed-form inner product <f, g> from the reproducing property.

    <Q_a, Q_b> = Q_b(a), antilinear in the first argument.
    """
    total = 0.0 + 0.0j
    for cj, aj in f.terms:
        for dk, bk in g.terms:
            total += np.conj(cj) * dk * szego(bk, aj)
    return complex(total)


_NODES_PER_PANEL = 8


def boundary_nodes(n: int = 4096
                   ) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Symmetric quadrature nodes and weights for integrals over R.

    Built from x = tan(theta): composite Gauss-Legendre panels of
    _NODES_PER_PANEL nodes on each half (0, pi/2), mirrored to the negative
    axis.  Returns (x, w) with sum w_j F(x_j) ~ int_R F(x) dx; no node sits
    at 0.
    """
    half = n // 2
    if half % _NODES_PER_PANEL:
        raise ValueError(f"n/2 must be a multiple of {_NODES_PER_PANEL}")
    panels = half // _NODES_PER_PANEL
    t, gw = np.polynomial.legendre.leggauss(_NODES_PER_PANEL)
    edges = np.linspace(0.0, np.pi / 2.0, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    h = 0.5 * np.diff(edges)
    theta = (mid[:, None] + h[:, None] * t[None, :]).ravel()
    wts = (h[:, None] * gw[None, :]).ravel()
    x_pos = np.tan(theta)
    w_pos = wts * (1.0 + x_pos ** 2)
    x = np.concatenate([-x_pos[::-1], x_pos])
    w = np.concatenate([w_pos[::-1], w_pos])
    return x, w


@dataclass
class BoundaryGrid:
    """Complex values on the symmetric boundary quadrature grid."""

    x: NDArray[np.float64]
    weights: NDArray[np.float64]
    values: NDArray[np.complex128]

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        self.values = np.asarray(self.values, dtype=complex)
        if not (self.x.shape == self.weights.shape == self.values.shape):
            raise ValueError("grid arrays must share a shape")
        if not np.allclose(self.x, -self.x[::-1], rtol=0, atol=1e-14):
            raise ValueError("grid must be symmetric about 0")
        if np.any(self.x == 0.0):
            raise ValueError("grid must exclude 0")

    @classmethod
    def from_function(cls, fn: Callable, n: int = 4096) -> "BoundaryGrid":
        x, w = boundary_nodes(n)
        return cls(x, w, np.asarray(fn(x), dtype=complex))

    def reflected(self) -> "BoundaryGrid":
        """Values of x -> f(-x) on the same grid."""
        return BoundaryGrid(self.x, self.weights, self.values[::-1])

    def integral(self) -> complex:
        return complex(np.sum(self.weights * self.values))

    def inner(self, other: "BoundaryGrid") -> complex:
        if not np.array_equal(self.x, other.x):
            raise ValueError("grids are incompatible")
        return complex(np.sum(self.weights * np.conj(self.values) * other.values))

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.weights * np.abs(self.values) ** 2)))


@dataclass
class SymbolFunction:
    """Bounded measurable multiplier on the real line.

    fn is vectorized over numpy arrays of real points.  The flat symmetry
    h(-x)* = h(x) is checked on demand by flat_defect, not enforced
    pointwise.
    """

    fn: Callable[[NDArray[np.float64]], NDArray[np.complex128]]
    name: str = "symbol"

    def __call__(self, x):
        return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=complex)

    @classmethod
    def i_sgn(cls) -> "SymbolFunction":
        return cls(lambda x: 1j * np.sign(x), name="i*sgn")

    @classmethod
    def constant(cls, c: complex) -> "SymbolFunction":
        c = complex(c)
        return cls(lambda x, c=c: np.full(np.shape(x), c, dtype=complex),
                   name=f"const({c})")

    def negated(self) -> "SymbolFunction":
        return SymbolFunction(lambda x: -self.fn(x), name=f"-({self.name})")

    def flat_defect(self, x: NDArray[np.float64]) -> float:
        """max |h(-x)* - h(x)| over the probe points."""
        return float(np.max(np.abs(np.conj(self(-x)) - self(x))))

    def unimodular_defect(self, x: NDArray[np.float64]) -> float:
        return float(np.max(np.abs(np.abs(self(x)) - 1.0)))


def apply_S(t: float, f) -> BoundaryGrid:
    """The unitary group (S_t f)(x) = exp(itx) f(x) on boundary grids."""
    g = f if isinstance(f, BoundaryGrid) else BoundaryGrid.from_function(f)
    return BoundaryGrid(g.x, g.weights, np.exp(1j * t * g.x) * g.values)


def apply_theta(h: SymbolFunction, f: BoundaryGrid) -> BoundaryGrid:
    """The reflection (theta_h f)(x) = h(x) f(-x)."""
    r = f.reflected()
    return BoundaryGrid(f.x, f.weights, h(f.x) * r.values)


def cayley(z):
    """Conformal map of the upper half-plane onto the unit disc, i -> 0."""
    z = np.asarray(z, dtype=complex)
    out = (z - 1j) / (z + 1j)
    return out if out.shape else complex(out)


def cayley_inverse(w):
    """Inverse of cayley: w -> i (1+w)/(1-w)."""
    w = np.asarray(w, dtype=complex)
    out = 1j * (1.0 + w) / (1.0 - w)
    return out if out.shape else complex(out)


def cayley_gamma(f: Callable) -> Callable:
    """Unitary pullback from the disc Hardy space to the half-plane one.

    (Gamma f)(x) = f((x-i)/(x+i)) / (sqrt(pi) (x+i)).
    """

    def gamma_f(x):
        x = np.asarray(x, dtype=complex)
        return f(cayley(x)) / (np.sqrt(np.pi) * (x + 1j))

    return gamma_f
