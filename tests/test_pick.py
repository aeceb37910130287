import numpy as np
import pytest

from hardyrp.pick import (
    BlaschkePotapovProduct,
    MobiusTransform,
    RationalPickFunction,
    blaschke_factor,
    boundary_unitary,
    bp_degree,
    bp_eval,
    compose_scalar,
    default_probes,
    degree_rank,
    degree_winding,
    dump_pick,
    is_pick,
    is_regular,
    load_pick,
    multiplicity_winding,
    pick_eval,
)


def worked_example() -> RationalPickFunction:
    # F(z) = [[1, 1], [1, z]]
    return RationalPickFunction(
        np.array([[1, 1], [1, 0]], dtype=complex),
        np.array([[0, 0], [0, 1]], dtype=complex),
    )


def random_pick(rng: np.random.Generator, dim: int,
                n_poles: int) -> RationalPickFunction:
    def psd(rank):
        B = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        return B @ B.conj().T

    C = rng.normal(size=(dim, dim))
    C = (C + C.T) / 2 + 0j
    D = psd(rng.integers(0, dim + 1))
    locs = np.sort(rng.uniform(-5, 5, size=n_poles))
    poles = tuple((float(l), psd(rng.integers(1, dim + 1))) for l in locs)
    return RationalPickFunction(C, D, poles)


class TestConstruction:
    def test_non_hermitian_c_rejected(self):
        with pytest.raises(ValueError):
            RationalPickFunction(np.array([[0, 1], [0, 0]], dtype=complex),
                                 np.zeros((2, 2)))

    def test_indefinite_d_rejected(self):
        with pytest.raises(ValueError):
            RationalPickFunction(np.zeros((2, 2)), -np.eye(2))

    def test_duplicate_poles_rejected(self):
        A = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            RationalPickFunction(np.zeros((2, 2)), np.zeros((2, 2)),
                                 ((1.0, A), (1.0, A)))

    def test_eval_at_pole_raises(self):
        F = RationalPickFunction.scalar(0.0, 0.0, [(2.0, 1.0)])
        with pytest.raises(ZeroDivisionError):
            pick_eval(F, 2.0)

    def test_json_round_trip(self):
        F = random_pick(np.random.default_rng(3), 2, 2)
        F2 = load_pick(dump_pick(F))
        z = 0.3 + 1.1j
        assert np.abs(pick_eval(F, z) - pick_eval(F2, z)).max() < 1e-14


class TestPickAndRegular:
    def test_worked_example_is_pick_and_regular(self):
        F = worked_example()
        assert is_pick(F)
        assert is_regular(F)

    def test_constant_hermitian_is_pick_not_regular(self):
        F = RationalPickFunction(np.eye(2, dtype=complex), np.zeros((2, 2)))
        assert is_pick(F)
        assert not is_regular(F)

    def test_negated_pick_rejected(self):
        F = worked_example()
        assert not is_pick(lambda z: -pick_eval(F, z))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_functions_are_pick(self, seed):
        rng = np.random.default_rng(seed)
        F = random_pick(rng, int(rng.integers(1, 4)), int(rng.integers(0, 3)))
        assert is_pick(F)

    def test_default_probes_cover_whole_grid(self):
        z = default_probes()
        assert len(z) == 224
        assert np.sum(np.isclose(z.real, -100.0)) == 16


class TestDegree:
    def test_worked_example_all_methods(self):
        F = worked_example()
        assert degree_rank(F) == 1
        assert multiplicity_winding(F) == 1
        assert degree_winding(F) == 1

    def test_off_axis_parameter(self):
        F = worked_example()
        lam = 1 + 2j
        assert multiplicity_winding(F, lam=lam) == 1
        assert degree_winding(F, lam=lam) == 1

    def test_rank_counts_pole_residues(self):
        A1 = np.array([[2, 1], [1, 1]], dtype=complex)       # rank 2
        A2 = np.outer([1, 1j], [1, -1j])                     # rank 1
        F = RationalPickFunction(np.zeros((2, 2)), np.zeros((2, 2)),
                                 ((0.0, A1), (3.0, A2)))
        assert degree_rank(F) == 3
        assert multiplicity_winding(F) == 3
        assert degree_winding(F) == 3

    @pytest.mark.parametrize("seed", range(8))
    def test_triple_agreement_random(self, seed):
        rng = np.random.default_rng(100 + seed)
        F = random_pick(rng, int(rng.integers(1, 4)), int(rng.integers(0, 4)))
        d = degree_rank(F)
        assert multiplicity_winding(F) == d
        assert degree_winding(F) == d


class TestBlaschkePotapov:
    def factorization(self):
        # phi_i applied to the worked example equals u (phi_omega P + 1 - P)
        omega = 0.5 + 1.5j
        u = np.diag([-1j, 1.0])
        P = np.array([[1 / 3, -(1 + 1j) / 3], [-(1 - 1j) / 3, 2 / 3]])
        return BlaschkePotapovProduct(u, ((omega, P),))

    def test_projection_validated(self):
        with pytest.raises(ValueError):
            BlaschkePotapovProduct(np.eye(2),
                                   ((1j, np.array([[1, 1], [0, 0]])),))

    def test_degree_is_projection_rank(self):
        assert bp_degree(self.factorization()) == 1

    def test_matches_transformed_example(self):
        from hardyrp.pick import _matrix_blaschke
        F = worked_example()
        phi = self.factorization()
        z = np.array([2 + 1.3j, -1 + 0.5j, 3j])
        lhs = _matrix_blaschke(pick_eval(F, z), 1j)
        assert np.abs(lhs - bp_eval(phi, z)).max() < 1e-12

    def test_unimodular_on_real_axis(self):
        phi = self.factorization()
        M = bp_eval(phi, np.array([-2.0, 0.3, 5.0]))
        assert np.abs(M.conj().swapaxes(-1, -2) @ M - np.eye(2)).max() < 1e-12

    def test_array_is_stack_of_scalar_values(self):
        phi = self.factorization()
        z = np.array([[2 + 1.3j, -1 + 0.5j], [3j, 0.7]])
        M = bp_eval(phi, z)
        assert M.shape == (2, 2, 2, 2)
        assert bp_eval(phi, 3j).shape == (2, 2)
        for idx in np.ndindex(z.shape):
            assert np.abs(M[idx] - bp_eval(phi, z[idx])).max() < 1e-15

    def test_pole_in_array_rejected(self):
        phi = self.factorization()
        with pytest.raises(ZeroDivisionError):
            bp_eval(phi, np.array([1j, 0.5 - 1.5j]))

    def test_scalar_blaschke_modulus(self):
        w = 1 + 2j
        assert abs(abs(blaschke_factor(w, 3.0)) - 1.0) < 1e-14
        assert abs(blaschke_factor(w, w)) == 0.0


class TestComposition:
    def test_mobius_normalization(self):
        with pytest.raises(ValueError):
            MobiusTransform(2.0, 0.0, 0.0, 1.0)

    def test_mobius_as_pick_agrees(self):
        m = MobiusTransform(0.0, 1.0, -1.0, 0.0)   # z -> -1/z
        F = m.as_pick()
        for z in (1j, 2 + 1j):
            assert abs(pick_eval(F, z)[0, 0] - m(z)) < 1e-14
        assert degree_rank(F) == 1

    def test_degree_multiplicative(self):
        f = MobiusTransform(0.0, 1.0, -1.0, 0.0).as_pick()      # degree 1
        F = worked_example()                                     # degree 1
        g = RationalPickFunction.scalar(0.0, 1.0, [(1.0, 1.0)])  # degree 2
        comp = compose_scalar(f, F, g)
        assert multiplicity_winding(comp) == 2

    def test_mobius_conjugation_preserves_degree(self):
        m = MobiusTransform(1.0, 1.0, 0.0, 1.0)                  # z -> z + 1
        F = worked_example()
        comp = compose_scalar(m.as_pick(), F, m.as_pick())
        assert multiplicity_winding(comp) == degree_rank(F)

    def test_eigenvalue_ordering_deterministic(self):
        F = worked_example()
        f = MobiusTransform(1.0, 0.0, 0.0, 1.0).as_pick()
        comp = compose_scalar(f, F, f)
        z = 0.7 + 0.9j
        assert np.abs(comp(z) - pick_eval(F, z)).max() < 1e-10


def degree3_pick() -> RationalPickFunction:
    # rank 1 in D and at each of two poles
    v = np.array([1.0, 1j])
    return RationalPickFunction(
        np.array([[0.5, 1.0], [1.0, -0.5]], dtype=complex),
        np.diag([1.0, 0.0]).astype(complex),
        ((-1.0, np.outer(v, v.conj())), (2.0, np.diag([0.0, 1.0]).astype(complex))),
    )


def conjugated_example():
    # f o F o g with f, g the Moebius shifts z -> z - 1 and z -> z + 1
    m = MobiusTransform(1.0, 1.0, 0.0, 1.0)
    minv = MobiusTransform(1.0, -1.0, 0.0, 1.0)
    return compose_scalar(minv.as_pick(), worked_example(), m.as_pick())


class TestArrayProtocol:
    zs = (np.linspace(-3.0, 3.0, 64)
          + 1j * np.geomspace(0.05, 5.0, 64)[::-1])

    @pytest.mark.parametrize("seed", range(3))
    def test_pick_eval_stack_equals_points(self, seed):
        F = random_pick(np.random.default_rng(seed), 3, 2)
        stack = pick_eval(F, self.zs)
        assert stack.shape == (64, 3, 3)
        for z, M in zip(self.zs, stack):
            assert np.abs(M - pick_eval(F, complex(z))).max() < 1e-12
        assert np.array_equal(F(self.zs), stack)

    def test_compose_stack_equals_points(self):
        # f(M) = c + sum_j a_j (l_j - M)^{-1} needs no eigendecomposition
        c, f_poles = 0.3, [(-1.0, 0.7), (1.5, 1.2)]
        f = RationalPickFunction.scalar(c, 0.0, f_poles)
        g = RationalPickFunction.scalar(-0.2, 0.0, [(0.5, 0.9)])
        F = degree3_pick()
        comp = compose_scalar(f, F, g)
        stack = comp(self.zs)
        assert stack.shape == (64, 2, 2)
        for z, M in zip(self.zs, stack):
            assert np.abs(M - comp(complex(z))).max() < 1e-12
            G = pick_eval(F, complex(pick_eval(g, complex(z))[0, 0]))
            ref = c * np.eye(2) + sum(a * np.linalg.inv(l * np.eye(2) - G)
                                      for l, a in f_poles)
            assert np.abs(M - ref).max() < 1e-12 * max(1.0, np.abs(ref).max())

    def test_pole_in_array_raises(self):
        F = RationalPickFunction.scalar(0.0, 0.0, [(2.0, 1.0)])
        with pytest.raises(ZeroDivisionError):
            pick_eval(F, np.array([1j, 2.0, 3 + 1j]))

    def test_identity_mobius_composition_is_pick_eval(self):
        F = degree3_pick()
        e = MobiusTransform(1.0, 0.0, 0.0, 1.0).as_pick()
        comp = compose_scalar(e, F, e)
        assert np.abs(comp(self.zs) - pick_eval(F, self.zs)).max() < 1e-10

    def test_scalar_point_gives_one_matrix(self):
        F = degree3_pick()
        assert pick_eval(F, 0.5 + 1j).shape == (2, 2)
        assert pick_eval(F, 0.5).shape == (2, 2)
        assert conjugated_example()(0.5 + 1j).shape == (2, 2)

    def test_probes_judged_on_their_own_scale(self):
        # Im F(i) = diag(1, -1e-9) fails at its own scale 1, though it
        # would pass against the scale 1e4 of the other probes
        F = lambda z: np.where(np.asarray(z)[..., None, None] == 1j,
                               np.diag([1j, -1e-9j]), np.diag([1e4j, 1e4j]))
        assert is_pick(F, [2j, 3j])
        assert not is_pick(F, [1j, 2j])


class TestCallableBranch:
    @pytest.mark.parametrize("make", [worked_example, degree3_pick])
    def test_wrapped_rational_counts_degree(self, make):
        F = make()
        wrapped = lambda z: F(z)
        d = degree_rank(F)
        assert multiplicity_winding(wrapped) == d
        assert degree_winding(wrapped) == d

    def test_composition_called_once_per_block(self):
        comp = conjugated_example()
        calls = []

        def counted(z):
            calls.append(np.size(z))
            return comp(z)

        assert multiplicity_winding(counted) == 1
        assert degree_winding(counted) == 1
        assert len(calls) < 100
        assert max(calls) > 1


class TestBoundaryUnitary:
    @pytest.mark.parametrize("t,x", [(0.0, 1.0), (0.7, 2.0), (-1.3, -0.5)])
    def test_unitary(self, t, x):
        U = boundary_unitary(worked_example(), t, x)
        assert np.abs(U.conj().T @ U - np.eye(2)).max() < 1e-12

    def test_group_law(self):
        F = worked_example()
        x = 1.5
        U = boundary_unitary(F, 0.3, x) @ boundary_unitary(F, 0.4, x)
        assert np.abs(U - boundary_unitary(F, 0.7, x)).max() < 1e-12
