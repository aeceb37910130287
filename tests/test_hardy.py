import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyrp.hankel import _boundary_pairing
from hardyrp.hardy import (
    KernelCombination,
    SymbolFunction,
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

    @pytest.mark.parametrize("z", [complex(np.inf, 1.0), complex(np.nan, 1.0),
                                   complex(1.0, np.inf), complex(1.0, np.nan)])
    def test_combination_rejects_non_finite_anchor(self, z):
        # "Im z <= 0" is false for each, so only finiteness refuses them
        with pytest.raises(ValueError, match="anchors must be finite"):
            KernelCombination([(1.0, 2j), (1.0, z)])

    def test_combination_and_inner_match_the_term_sums(self):
        # one kernel matrix against the term-by-term sums, written out; the
        # order of summation changed, so agreement is to a few ulps
        terms = [(0.7 + 0.1j, 2j), (-1.3, 0.5 + 0.2j), (0.4j, -2.0 + 3.0j),
                 (2.0 - 1.0j, 1e-3 + 1e-2j), (1.0, 40.0 + 1j)]
        other = [(1.0 - 0.5j, 1j), (0.3, -0.7 + 0.9j)]

        def q(w, z):
            return 1j / (2.0 * math.pi * (z - w.conjugate()))

        z = np.array([[1j, 0.5 + 2j, -3.0 + 0.1j], [7.0, -1.0, 1e-4j]])
        f, g = KernelCombination(terms), KernelCombination(other)
        want = np.array([[sum(c * q(w, x) for c, w in terms) for x in row]
                         for row in z])
        assert np.abs(f(z) - want).max() <= 1e-14 * np.abs(want).max()
        assert abs(f(1j) - want[0, 0]) <= 1e-14 * abs(want[0, 0])
        ip = sum((c.conjugate() * d * q(b, a) for c, a in terms
                  for d, b in other), 0j)
        assert abs(inner(f, g) - ip) <= 1e-14 * abs(ip)
        assert KernelCombination([])(z).tolist() == np.zeros(z.shape).tolist()
        assert inner(KernelCombination([]), g) == 0

    def test_combination_sum_and_scaling(self):
        f = KernelCombination([(0.7 + 0.1j, 2j), (-1.3, 0.5 + 0.2j)])
        g = KernelCombination([(1.0 - 0.5j, 1j)])
        z = np.array([1j, -3.0 + 0.1j, 7.0])
        assert (f + g).terms == f.terms + g.terms
        assert np.abs((f + g)(z) - (f(z) + g(z))).max() <= 1e-15
        assert f.scaled(2j).terms == ((-0.2 + 1.4j, 2j), (-2.6j, 0.5 + 0.2j))
        assert np.abs(f.scaled(2j)(z) - 2j * f(z)).max() <= 1e-15

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


class TestSymbolsAndOperators:
    def test_i_sgn_flat_symmetric(self):
        h = SymbolFunction.i_sgn()
        x = np.linspace(0.1, 5.0, 11)
        x = np.concatenate([-x[::-1], x])
        assert h.flat_defect(x) == 0.0
        assert h.unimodular_defect(x) == 0.0

    def test_negated_flips_values(self):
        h = SymbolFunction.i_sgn().negated()
        assert h(np.array([2.0]))[0] == -1j

    def test_constant(self):
        h = SymbolFunction.constant(0.6 - 0.8j)
        assert h(np.array([-2.0, 0.0, 3.0])).tolist() == [0.6 - 0.8j] * 3
        assert h.name == "const((0.6-0.8j))"
        assert h.unimodular_defect(np.array([1.0, 2.0])) < 1e-15


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
        norm2 = _boundary_pairing(lambda x: np.abs(f(x))[:, None] ** 2, [1.0])
        assert abs(norm2[0] - 1.0) < 1e-12

    def test_gamma_orthogonality_of_disc_monomials(self):
        f0 = cayley_gamma(lambda w: np.ones(np.shape(w), dtype=complex))
        f1 = cayley_gamma(lambda w: np.asarray(w, dtype=complex))
        inner01, norm2 = _boundary_pairing(lambda x: np.stack(
            [np.conj(f0(x)) * f1(x), np.abs(f1(x)) ** 2], axis=1), [1.0])
        assert abs(inner01) < 1e-12
        assert abs(norm2 - 1.0) < 1e-12
