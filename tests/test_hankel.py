import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

import hardyrp.symbols
from hardyrp.hankel import (
    HankelGram,
    certify_positive,
    compactness_check,
    default_anchors,
    fixed_point_check,
    fixed_point_deviation,
    gram_from_measure,
    gram_from_symbol,
    os_isometry_check,
    pencil_eigenvalues,
    phi_from_psi,
    rp_certify,
    rp_matrix,
    symbol_from_measure,
)
from hardyrp.hardy import KernelCombination, SymbolFunction, boundary_nodes, szego
from hardyrp.measures import BoundaryMeasure, DensityPiece, lebesgue_cauchy_measure
from hardyrp.numerics import eig_hermitian
from hardyrp.symbols import h_nu_symbol, t_map


def two_lebesgue() -> BoundaryMeasure:
    return BoundaryMeasure(density=[DensityPiece(1e-12, np.inf, expr="2")])


def random_atomic(rng: np.random.Generator, k: int = 2) -> BoundaryMeasure:
    locs = rng.uniform(0.3, 3.0, size=k)
    while len(set(np.round(locs, 6))) < k:
        locs = rng.uniform(0.3, 3.0, size=k)
    return BoundaryMeasure(atoms=[(float(l), float(w)) for l, w in
                                  zip(locs, rng.uniform(0.2, 2.0, size=k))])


class TestGram:
    def test_anchor_validation(self):
        with pytest.raises(ValueError):
            HankelGram((1j, -1j), np.zeros((2, 2)), np.eye(2))

    def test_non_hermitian_rejected(self):
        G = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            HankelGram((1j, 2j), G, np.eye(2))

    def test_rank_one_atom_saturates_norm(self):
        # mu = 4 pi delta_1 has a single eigenfunction of eigenvalue 1
        mu = BoundaryMeasure(atoms=[(1.0, 4.0 * math.pi)])
        g = gram_from_measure(mu, default_anchors(10))
        w = pencil_eigenvalues(g)
        assert 1.0 - 1e-4 <= w[-1] <= 1.0 + 1e-6
        assert abs(w[-2]) <= 1e-8

    def test_zero_measure_gives_zero_gram(self):
        g = gram_from_measure(BoundaryMeasure(), default_anchors(6))
        assert np.abs(g.G).max() == 0.0

    def test_measure_vs_symbol_lebesgue(self):
        # 2 Lebesgue on (0, inf) is the form of the i sgn symbol
        anchors = default_anchors(8)
        gm = gram_from_measure(two_lebesgue(), anchors)
        gs = gram_from_symbol(SymbolFunction.i_sgn(), anchors)
        scale = np.abs(gm.G).max()
        assert np.abs(gm.G - gs.G).max() < 1e-6 * scale

    def test_lower_half_plane_symbol_vanishes(self):
        # 1/(x - i) extends boundedly to the lower half-plane (pole at +i)
        g = gram_from_symbol(lambda x: 1.0 / (x - 1j), default_anchors(8))
        assert np.abs(g.G).max() < 1e-8

    def test_hankel_shift_relation(self):
        # <Q_w, H S_t Q_z> = <S_t Q_w, H Q_z>
        x, w = boundary_nodes(2048)
        hv = SymbolFunction.i_sgn()(x)
        pairs = [(1j, 2j), (0.5 + 1j, 1j), (2j, -1 + 1j),
                 (0.3 + 0.7j, 0.5 + 0.5j), (1 + 1j, 3j)]
        for t in (0.3, 1.0):
            for zw, zz in pairs:
                qw, qz = szego(zw, x), szego(zz, x)
                lhs = np.sum(w * np.conj(qw) * hv
                             * (np.exp(1j * t * -x) * szego(zz, -x)))
                rhs = np.sum(w * np.conj(np.exp(1j * t * x) * qw) * hv
                             * szego(zz, -x))
                assert abs(lhs - rhs) < 1e-6 * max(abs(lhs), 1e-12)

    def test_norm_bounded_by_symbol_sup(self):
        anchors = default_anchors(9)
        for h in (SymbolFunction.i_sgn(),
                  h_nu_symbol(BoundaryMeasure(atoms=[(1.0, 1.0)]))):
            g = gram_from_symbol(h, anchors)
            w = pencil_eigenvalues(g)
            assert np.abs(w).max() <= 1.0 + 1e-6

    @pytest.mark.parametrize("seed", range(3))
    def test_measure_operator_consistency(self, seed):
        # gram of T nu equals gram of the symbol h_nu
        nu = random_atomic(np.random.default_rng(40 + seed))
        anchors = default_anchors(6)
        gm = gram_from_measure(t_map(nu), anchors)
        gs = gram_from_symbol(h_nu_symbol(nu), anchors, n=2048)
        scale = max(np.abs(gm.G).max(), 1e-12)
        assert np.abs(gm.G - gs.G).max() < 1e-6 * scale


class TestSymbolFromMeasure:
    def test_two_lebesgue_is_i_sgn(self):
        mu = two_lebesgue()
        for p in (0.5, 2.0, -1.0):
            assert abs(symbol_from_measure(mu, p) - 1j * np.sign(p)) < 1e-6

    def test_zero_measure(self):
        assert symbol_from_measure(BoundaryMeasure(), 1.0) == 0.0

    def test_single_atom(self):
        mu = BoundaryMeasure(atoms=[(1.0, 1.0)])
        p = 0.7
        assert abs(symbol_from_measure(mu, p)
                   - 1j * p / (math.pi * (1 + p * p))) < 1e-12

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            symbol_from_measure(two_lebesgue(), 0.0)


class TestCertify:
    def test_i_sgn_positive(self):
        g = gram_from_symbol(SymbolFunction.i_sgn(), default_anchors(8))
        res = certify_positive(g)
        assert res.psd and res.min_eig >= -1e-10
        assert res.norm_lower_bound <= 1.0 + 1e-6

    def test_negated_symbol_fails(self):
        g = gram_from_symbol(SymbolFunction.i_sgn().negated(),
                             default_anchors(8))
        res = certify_positive(g)
        assert not res.psd
        assert res.min_eig <= -1e-4

    def test_random_h_nu_positive(self):
        nu = random_atomic(np.random.default_rng(7), k=3)
        g = gram_from_symbol(h_nu_symbol(nu), default_anchors(8), n=2048)
        assert certify_positive(g).psd

    def test_zero_gram_positive_with_zero_norm(self):
        anchors = default_anchors(5)
        g = gram_from_measure(BoundaryMeasure(), anchors)
        res = certify_positive(g)
        assert res.psd and res.norm_lower_bound == 0.0

    def test_clustered_anchors_rejected(self):
        anchors = (1j, 1j + 1e-9)
        g = gram_from_measure(BoundaryMeasure(atoms=[(1.0, 1.0)]), anchors)
        with pytest.raises(ValueError):
            pencil_eigenvalues(g)

    def test_json_payload(self):
        g = gram_from_measure(BoundaryMeasure(atoms=[(1.0, 1.0)]),
                              default_anchors(6))
        d = certify_positive(g).to_json()
        assert set(d) == {"psd", "min_eig", "norm_lower_bound"}


class TestCompactness:
    def test_atom_is_compact(self):
        assert compactness_check(BoundaryMeasure(atoms=[(1.0, 1.0)]))

    def test_flat_density_near_zero_is_not(self):
        mu = BoundaryMeasure(density=[DensityPiece(1e-12, 1.0, expr="1")])
        assert not compactness_check(mu)

    def test_linear_density_near_zero_is(self):
        mu = BoundaryMeasure(density=[DensityPiece(1e-12, 1.0, expr="lam")])
        assert compactness_check(mu)


class TestReflectionPositivity:
    def test_lebesgue_certifies(self):
        ok, mn = rp_certify(lebesgue_cauchy_measure(), (0.5, 1.0, 2.0))
        assert ok and mn >= -1e-8

    def test_exponential_correlation_psd(self):
        # phi(t) = e^{-t} is the single-atom correlation function
        A = rp_matrix(lambda t: math.exp(-t), (0.0, 1.0, 2.0))
        w, _ = eig_hermitian(A.astype(complex))
        assert w.min() >= -1e-12

    def test_cosine_counterexample(self):
        A = rp_matrix(math.cos, (0.0, math.pi / 2, math.pi))
        w, _ = eig_hermitian(A.astype(complex))
        assert w.min() < -0.5

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            rp_matrix(math.cos, (0.0, -1.0))

    def test_zero_measure_rejected(self):
        with pytest.raises(ValueError):
            rp_certify(BoundaryMeasure(), (0.0, 1.0))

    def test_phi_matches_atom_closed_form(self):
        # nu = pi delta_1 gives psi_big = 2/(1+p^2), whose cosine transform
        # is phi(t) = 2 pi e^{-|t|}
        nu = BoundaryMeasure(atoms=[(1.0, math.pi)])
        for t in (0.0, 0.7, 2.0):
            want = 2.0 * math.pi * math.exp(-t)
            assert abs(phi_from_psi(nu, t) - want) < 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_random_atomic_certifies(self, seed):
        nu = random_atomic(np.random.default_rng(60 + seed))
        ok, mn = rp_certify(nu, (0.0, 0.5, 1.0, 2.0))
        assert ok, mn


class TestOSIsometry:
    def test_lebesgue_kernel_at_i(self):
        nu = lebesgue_cauchy_measure()
        q = KernelCombination([(1.0, 1j)])
        lhs, rhs, dev = os_isometry_check(nu, q, q)
        want = 1.0 / (2.0 * math.pi ** 2)
        assert abs(rhs - want) < 1e-6 * want
        assert dev < 1e-6

    def test_lebesgue_raises_no_integration_warning(self):
        q = KernelCombination([(1.0, 1j)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            _, _, dev = os_isometry_check(lebesgue_cauchy_measure(), q, q, n=64)
        assert dev < 1e-6

    def test_empty_combination(self):
        nu = lebesgue_cauchy_measure()
        assert os_isometry_check(nu, KernelCombination([]),
                                 KernelCombination([(1.0, 1j)])) == (0, 0, 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_measures_and_combos(self, seed):
        rng = np.random.default_rng(80 + seed)
        nu = random_atomic(rng)
        f = KernelCombination([(complex(rng.normal(), rng.normal()),
                                complex(rng.uniform(-1, 1), rng.uniform(0.5, 2)))
                               for _ in range(2)])
        g = KernelCombination([(complex(rng.normal(), rng.normal()),
                                complex(rng.uniform(-1, 1), rng.uniform(0.5, 2)))
                               for _ in range(2)])
        _, _, dev = os_isometry_check(nu, f, g)
        assert dev < 1e-6


class TestFixedPoint:
    def test_single_atom(self):
        mu = BoundaryMeasure(atoms=[(1.0, 1.0)])
        assert fixed_point_check(mu, default_anchors(6)) <= 1e-5

    def test_two_atoms(self):
        mu = BoundaryMeasure(atoms=[(1.0, 1.0), (2.0, 1.0)])
        assert fixed_point_check(mu, default_anchors(6)) <= 1e-5

    def test_atom_at_infinity_has_no_fixed_point(self):
        nu = BoundaryMeasure(atom_inf=math.pi)
        assert fixed_point_deviation(nu, default_anchors(6)) >= 0.01

    def test_zero_measure_rejected(self):
        with pytest.raises(ValueError):
            fixed_point_check(BoundaryMeasure(), default_anchors(6))

    def test_phase_shared_with_os_check(self, monkeypatch):
        # both checks read the boundary phase from the measure's one cache;
        # counted in phase points, as the engine takes them in batches
        points = []
        phase = hardyrp.symbols.boundary_phase_difference
        monkeypatch.setattr(
            hardyrp.symbols, "boundary_phase_difference",
            lambda K, x: points.append(np.size(x)) or phase(K, x))
        nu = BoundaryMeasure(atoms=[(1.0, 1.0), (2.0, 0.5)])
        f = KernelCombination([(1.0, 1j)])
        os_isometry_check(nu, f, f, n=64)
        assert sum(points) == 32    # one per |x| of the 64-node grid
        fixed_point_deviation(nu, default_anchors(6), n=64)
        assert sum(points) == 32
