import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyrp.hardy import (
    BoundaryGrid,
    KernelCombination,
    SymbolFunction,
    apply_S,
    apply_theta,
    boundary_nodes,
    cayley,
    cayley_gamma,
    cayley_inverse,
    inner,
    szego,
)

upper = st.builds(complex, st.floats(-3.0, 3.0), st.floats(0.1, 4.0))


class TestSzego:
    def test_value(self):
        # Q_w(z) = i/(2 pi (z - conj(w)))
        assert abs(szego(1j, 2j) - 0.5j / (np.pi * 3j)) < 1e-15

    @given(w=upper)
    @settings(max_examples=50, deadline=None)
    def test_norm_squared(self, w):
        # <Q_w, Q_w> = 1/(4 pi Im w)
        assert abs(szego(w, w) - 1.0 / (4 * np.pi * w.imag)) < 1e-12

    def test_rejects_lower_half_plane_anchor(self):
        with pytest.raises(ValueError):
            szego(-1j, 2j)

    @given(a=upper, b=upper)
    @settings(max_examples=50, deadline=None)
    def test_inner_product_symmetry(self, a, b):
        f = KernelCombination([(1.0, a)])
        g = KernelCombination([(1.0, b)])
        assert abs(inner(f, g) - np.conj(inner(g, f))) < 1e-12

    @given(w=upper, z=upper)
    @settings(max_examples=50, deadline=None)
    def test_reproducing_on_combinations(self, w, z):
        # <Q_w, f> = f(w)
        f = KernelCombination([(0.7 + 0.1j, z), (1.0, 2j)])
        qw = KernelCombination([(1.0, w)])
        assert abs(inner(qw, f) - f(w)) < 1e-12


class TestBoundaryGrid:
    def test_grid_integrates_cauchy_kernel(self):
        x, w = boundary_nodes(2048)
        val = np.sum(w / (1.0 + x * x))
        assert abs(val - np.pi) < 1e-12

    def test_nodes_are_built_once_and_read_only(self):
        x, w = boundary_nodes(1024)
        x2, w2 = boundary_nodes(1024)
        assert x is x2 and w is w2
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w *= 2.0
        assert boundary_nodes(2048)[0].size == 2048

    def test_grid_norm_matches_closed_form(self):
        g = BoundaryGrid.from_function(lambda x: szego(1j, x))
        assert abs(g.norm() ** 2 - 1.0 / (4 * np.pi)) < 1e-12

    def test_boundary_inner_matches_kernel_algebra(self):
        a, b = 0.5 + 1j, -1.0 + 2j
        ga = BoundaryGrid.from_function(lambda x: szego(a, x))
        gb = BoundaryGrid.from_function(lambda x: szego(b, x))
        assert abs(ga.inner(gb) - szego(b, a)) < 1e-12

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            BoundaryGrid(np.array([1.0, 2.0]), np.ones(2), np.ones(2))

    def test_reflection_is_involutive(self):
        g = BoundaryGrid.from_function(lambda x: szego(1j, x) + x * 0j)
        assert np.array_equal(g.reflected().reflected().values, g.values)


class TestSymbolsAndOperators:
    def test_apply_s_is_isometric(self):
        g = BoundaryGrid.from_function(lambda x: szego(2j, x))
        assert abs(apply_S(0.7, g).norm() - g.norm()) < 1e-14

    def test_theta_i_sgn_involutive(self):
        h = SymbolFunction.i_sgn()
        g = BoundaryGrid.from_function(lambda x: szego(1j, x))
        twice = apply_theta(h, apply_theta(h, g))
        assert np.abs(twice.values - g.values).max() < 1e-14

    def test_i_sgn_flat_symmetric(self):
        h = SymbolFunction.i_sgn()
        x = np.linspace(0.1, 5.0, 11)
        x = np.concatenate([-x[::-1], x])
        assert h.flat_defect(x) == 0.0
        assert h.unimodular_defect(x) == 0.0

    def test_negated_flips_values(self):
        h = SymbolFunction.i_sgn().negated()
        assert h(np.array([2.0]))[0] == -1j


class TestCayley:
    @given(z=upper)
    @settings(max_examples=50, deadline=None)
    def test_inverse(self, z):
        assert abs(cayley_inverse(cayley(z)) - z) < 1e-10

    @given(z=upper)
    @settings(max_examples=50, deadline=None)
    def test_maps_into_disc(self, z):
        assert abs(cayley(z)) < 1.0

    def test_gamma_isometry_on_constants(self):
        # the constant 1 on the disc pulls back to 1/(sqrt(pi)(x+i)),
        # whose boundary L2 norm is 1
        f = cayley_gamma(lambda w: np.ones(np.shape(w), dtype=complex))
        g = BoundaryGrid.from_function(f)
        assert abs(g.norm() - 1.0) < 1e-12

    def test_gamma_orthogonality_of_disc_monomials(self):
        f0 = cayley_gamma(lambda w: np.ones(np.shape(w), dtype=complex))
        f1 = cayley_gamma(lambda w: np.asarray(w, dtype=complex))
        g0 = BoundaryGrid.from_function(f0)
        g1 = BoundaryGrid.from_function(f1)
        assert abs(g0.inner(g1)) < 1e-12
        assert abs(g1.norm() - 1.0) < 1e-12
