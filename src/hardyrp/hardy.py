"""Computational model of the Hardy space of the upper half-plane.

Elements are finite combinations of reproducing (Szegö) kernels, with
closed-form inner products; every kernel value, here and in the Gram
sections of hankel, is an entry of the one kernel matrix _kernels.
Multiplier symbols are vectorized callables on the real line, and the
Cayley transform relates the half-plane to the disc.  Boundary integrals
that involve a symbol are computed by hankel._boundary_pairing, one
adaptive pass in log|x|.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "szego",
    "KernelCombination",
    "SymbolFunction",
    "inner",
    "cayley",
    "cayley_inverse",
    "cayley_gamma",
]


def _anchor_array(anchors) -> NDArray[np.complex128]:
    """The kernel anchors as a complex array; ValueError unless each one is
    finite and lies in the open upper half-plane."""
    z = np.asarray(anchors, dtype=complex)
    if not (np.isfinite(z) & (z.imag > 0)).all():
        raise ValueError("kernel anchors must be finite and lie in the open "
                         "upper half-plane")
    return z


def _kernels(z: NDArray[np.complex128], x) -> NDArray[np.complex128]:
    """Q_{z_j}(x_i) = (1/2pi) i/(x_i - conj(z_j)): the points x_i in rows
    (any shape) and the anchors z_j in the last axis.  The one evaluation of
    the Szegö kernel; the anchors are checked by the caller."""
    return (0.5j / np.pi) / (np.asarray(x)[..., None] - np.conj(z))


def szego(w: complex, z) -> complex:
    """Reproducing kernel Q_w(z) = (1/2pi) i/(z - conj(w)), Im w > 0."""
    out = _kernels(_anchor_array([w]), z)[..., 0]
    return out if out.shape else complex(out)


@dataclass(frozen=True)
class KernelCombination:
    """Finite combination sum_k c_k Q_{z_k} with anchors in the upper half-plane."""

    terms: tuple[tuple[complex, complex], ...]

    def __init__(self, terms: Sequence[tuple[complex, complex]]):
        terms = tuple((complex(c), complex(z)) for c, z in terms)
        object.__setattr__(self, "terms", terms)
        # the coefficients and anchors as arrays, for _kernels
        object.__setattr__(self, "_coeffs",
                           np.array([c for c, _ in terms], dtype=complex))
        object.__setattr__(self, "_anchors",
                           _anchor_array([z for _, z in terms]))

    def __call__(self, z):
        out = _kernels(self._anchors, z) @ self._coeffs
        return out if out.shape else complex(out)

    def __add__(self, other: "KernelCombination") -> "KernelCombination":
        return KernelCombination(self.terms + other.terms)

    def scaled(self, c: complex) -> "KernelCombination":
        return KernelCombination([(c * ck, zk) for ck, zk in self.terms])


def inner(f: KernelCombination, g: KernelCombination) -> complex:
    """Closed-form inner product <f, g> from the reproducing property.

    <Q_a, g> = g(a), antilinear in the first argument.
    """
    return complex(np.conj(f._coeffs) @ g(f._anchors))


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
