import mpmath
import numpy as np
import pytest

import hardyrp.pick
from hardyrp.numerics import DegenerateCurveError, UnderSampledCurveError
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
    winding_counts,
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


def irregular_pick(rng: np.random.Generator) -> RationalPickFunction:
    """A random Pick function whose D and residues all vanish on one
    eigenvector of C."""
    dim = int(rng.integers(1, 5))
    C = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    C = (C + C.conj().T) / 2
    _, E = np.linalg.eigh(C)
    v = E[:, int(rng.integers(dim))]
    P = np.eye(dim) - np.outer(v, v.conj())

    def psd(rank):
        B = P @ (rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank)))
        return B @ B.conj().T

    D = psd(int(rng.integers(0, dim + 1)))
    locs = np.sort(rng.uniform(-5, 5, size=int(rng.integers(0, 4))))
    return RationalPickFunction(
        C, D, tuple((float(l), psd(int(rng.integers(1, dim + 1)))) for l in locs))


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
        # an eigenvector of C in ker D and in the kernel of every residue
        # is an eigenvector of every F(z), with a real eigenvalue
        for seed in range(60):
            F = irregular_pick(np.random.default_rng(seed))
            assert is_pick(F)
            assert not is_regular(F)

    @pytest.mark.parametrize("b", [1.0, 0.1, 0.05, 1e-3])
    def test_coupled_example_regular_for_every_coupling(self, b):
        # [[0, b], [b, z]]: a real eigenvalue m of F(z) would make
        # z - m = b^2 / (-m) real, impossible for Im z > 0 and b != 0
        F = RationalPickFunction(np.array([[0, b], [b, 0]], dtype=complex),
                                 np.diag([0.0, 1.0]).astype(complex))
        assert is_regular(F)

    def test_uncoupled_example_not_regular(self):
        F = RationalPickFunction(np.zeros((2, 2)), np.diag([0.0, 1.0]))
        assert not is_regular(F)

    def test_callable_rejected(self):
        F = worked_example()
        with pytest.raises(TypeError):
            is_regular(lambda z: pick_eval(F, z))

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


class TestWindingCounts:
    @pytest.mark.parametrize("lam", [1j, 2 + 0.5j])
    @pytest.mark.parametrize("seed", range(8))
    def test_one_pass_equals_separate_counts(self, seed, lam):
        rng = np.random.default_rng(100 + seed)
        F = random_pick(rng, int(rng.integers(1, 4)), int(rng.integers(0, 4)))
        assert winding_counts(F, lam=lam) == (multiplicity_winding(F, lam=lam),
                                              degree_winding(F, lam=lam))

    def test_each_curve_refined_on_its_own(self, monkeypatch):
        # refuse level 0 of the second curve (det(F - conj(lam))) only: the
        # first keeps its level-0 count, the second is counted at level 1
        real = hardyrp.pick.winding_number
        sizes = []

        def refusing(curve):
            sizes.append(curve.values.size)
            if len(sizes) == 2:
                raise UnderSampledCurveError("refused for the test")
            return real(curve)

        monkeypatch.setattr(hardyrp.pick, "winding_number", refusing)
        F = degree3_pick()
        assert winding_counts(F) == (3, 3)
        assert len(sizes) == 3
        assert sizes[0] == sizes[1] < sizes[2]

    def test_one_stacked_call_per_block(self, monkeypatch):
        real = hardyrp.pick.pick_eval
        sizes = []

        def counted(F, z):
            sizes.append(np.size(z))
            return real(F, z)

        monkeypatch.setattr(hardyrp.pick, "pick_eval", counted)
        F = worked_example()
        assert winding_counts(F) == (1, 1)
        shared = len(sizes)
        assert multiplicity_winding(F) == 1 and degree_winding(F) == 1
        assert len(sizes) - shared == 2 * shared
        assert 1 < max(sizes) <= hardyrp.pick._SAMPLE_BLOCK

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_block_is_numerical_failure(self, monkeypatch):
        real = hardyrp.pick.pick_eval
        calls = []

        def poisoned(F, z):
            calls.append(None)
            M = real(F, z)
            return M * np.nan if len(calls) == 2 else M

        monkeypatch.setattr(hardyrp.pick, "pick_eval", poisoned)
        with pytest.raises(DegenerateCurveError):
            winding_counts(worked_example())

    def test_callables_count_each_curve(self):
        comp = conjugated_example()
        assert winding_counts(comp) == (1, 1)

    def test_mirror_root_next_to_the_real_line_counted(self):
        # det(F - conj(lam)) = 0 at z = 0.5 + 1e-11 / (0.3 + i), 1e-11 below
        # the real line: the contour passes between it and its reflection
        F = RationalPickFunction.scalar(0.3, 0.0, [(0.5, 1e-11)])
        assert degree_rank(F) == 1
        assert winding_counts(F) == (1, 1)

    @pytest.mark.parametrize("F", [
        # the root -1e11 (0.3 + i) maps 1e-11 outside the unit circle
        RationalPickFunction.scalar(0.3, 1e-11),
        # the root 1000 - 1.8e-12 i maps within rounding of the unit circle
        RationalPickFunction.scalar(0.3, 0.0, [(1e3, 2e-12)]),
    ])
    def test_unresolvable_mirror_root_fails_loudly(self, F):
        # no sampled contour separates the root: the count raises, not (0, 0)
        with pytest.raises(DegenerateCurveError):
            winding_counts(F)


class TestMirrorRoots:
    @pytest.mark.parametrize("block", range(4))
    def test_root_count_and_residual(self, block):
        # D of rank below dim, so the ker D block is eliminated every time
        for seed in range(50 * block, 50 * block + 50):
            rng = np.random.default_rng(seed)
            dim = int(rng.integers(2, 5))
            F = random_pick(rng, dim, int(rng.integers(0, 4)))
            W = rng.normal(size=(dim, int(rng.integers(0, dim))))
            F = RationalPickFunction(F.C, W @ W.T, F.poles)
            lam = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3))
            z = hardyrp.pick._mirror_roots(F, lam)
            assert z.size == degree_rank(F)
            assert np.all(z.imag < 0)
            for root in z:
                s = np.linalg.svd(pick_eval(F, root) - np.conj(lam) * np.eye(dim),
                                  compute_uv=False)
                assert np.prod(s / s[0]) < 1e-10


def _mp_det(M) -> complex:
    with mpmath.workdps(50):
        rows = [[mpmath.mpc(complex(e)) for e in row] for row in M]
        return complex(mpmath.det(mpmath.matrix(rows)))


class TestSmallDeterminants:
    @pytest.mark.parametrize("n", [1, 2])
    def test_closed_forms_as_accurate_as_lu(self, n):
        # zD + C + A/(l - z) - i with rank-1 D: at |z| = 1e8 the leading
        # z^2 terms of ad - bc cancel; near the pole A/(l - z) dominates
        from hardyrp.pick import _det
        rng = np.random.default_rng(7)
        mags = np.r_[np.geomspace(1.0, 1e8, 9), np.nan]
        closed, lu = [], []
        for _ in range(12):
            B = rng.normal(size=(n, 1)) + 1j * rng.normal(size=(n, 1))
            C = rng.normal(size=(n, n))
            A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            l = rng.uniform(-3.0, 3.0)
            z = mags[:-1] * np.exp(2j * np.pi * rng.uniform(size=9))
            z = np.r_[z, l + 1e-10 * np.exp(2j * np.pi * rng.uniform())]
            zz = z[:, None, None]
            M = (zz * (B @ B.conj().T) + (C + C.T) / 2
                 + (A @ A.conj().T) / (l - zz) - 1j * np.eye(n))
            ref = np.array([_mp_det(m) for m in M])
            closed.append(np.abs(_det(M) - ref) / np.abs(ref))
            lu.append(np.abs(np.linalg.det(M) - ref) / np.abs(ref))
        # worst error per |z| over the functions (the last column: at 1e-10
        # from the pole); pointwise the rounding of either method is noise
        worst_closed = np.max(closed, axis=0)
        worst_lu = np.maximum(np.max(lu, axis=0), np.finfo(float).eps)
        assert np.all(worst_closed <= 10.0 * worst_lu)

    @pytest.mark.parametrize("n", [3, 4])
    def test_larger_matrices_stay_on_lu(self, n):
        from hardyrp.pick import _det
        rng = np.random.default_rng(n)
        M = rng.normal(size=(50, n, n)) + 1j * rng.normal(size=(50, n, n))
        assert np.array_equal(_det(M), np.linalg.det(M))


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
        assert isinstance(comp, RationalPickFunction)
        assert degree_rank(comp) == 2
        assert multiplicity_winding(comp) == 2

    def test_mobius_conjugation_preserves_degree(self):
        m = MobiusTransform(1.0, 1.0, 0.0, 1.0)                  # z -> z + 1
        F = worked_example()
        comp = compose_scalar(m.as_pick(), F, m.as_pick())
        assert degree_rank(comp) == degree_rank(F)
        assert multiplicity_winding(comp) == degree_rank(F)

    def test_identity_composition_returns_F(self):
        F = degree3_pick()
        e = MobiusTransform(1.0, 0.0, 0.0, 1.0).as_pick()
        comp = compose_scalar(e, F, e)
        assert np.abs(comp.C - F.C).max() < 1e-14
        assert np.abs(comp.D - F.D).max() < 1e-14
        assert [l for l, _ in comp.poles] == [l for l, _ in F.poles]
        for (_, A), (_, B) in zip(comp.poles, F.poles):
            assert np.abs(A - B).max() < 1e-14

    @pytest.mark.parametrize("which", range(3))
    def test_callables_rejected(self, which):
        args = [RationalPickFunction.scalar(0.0, 1.0), worked_example(),
                RationalPickFunction.scalar(0.0, 1.0)]
        h = args[which]
        args[which] = lambda z: h(z)
        with pytest.raises(TypeError):
            compose_scalar(*args)

    def test_matrix_outer_function_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            compose_scalar(worked_example(), worked_example(),
                           RationalPickFunction.scalar(0.0, 1.0))


def assert_pick_equal(F: RationalPickFunction, C, D, poles) -> None:
    """F has the constant C, the linear term D and exactly these poles."""
    assert np.abs(F.C - np.asarray(C)).max() < 1e-12
    assert np.abs(F.D - np.asarray(D)).max() < 1e-12
    assert len(F.poles) == len(poles)
    for (l, A), (m, B) in zip(F.poles, poles):
        assert abs(l - m) < 1e-12
        assert np.abs(A - np.asarray(B)).max() < 1e-12


IDENTITY = RationalPickFunction.scalar(0.0, 1.0)          # z
MINUS_INV = RationalPickFunction.scalar(0.0, 0.0, [(0.0, 1.0)])   # -1/z


class TestCompositionSpecialCases:
    """Closed forms for the compositions a generic root-and-residue
    construction misses: each is exact up to roundoff."""

    def test_outer_pole_over_linear_term(self):
        # -1/F for F = [[0, 1], [1, z]]: D_G != 0 and the outer pole 0 is
        # the eigenvalue of C on ker D, so a linear term appears:
        # -F^{-1} = [[z, -1], [-1, 0]]
        F = RationalPickFunction(np.array([[0, 1], [1, 0]], dtype=complex),
                                 np.diag([0.0, 1.0]).astype(complex))
        comp = compose_scalar(MINUS_INV, F, IDENTITY)
        assert_pick_equal(comp, [[0, -1], [-1, 0]], np.diag([1.0, 0.0]), [])
        assert degree_rank(comp) == 1

    def test_outer_pole_at_eigenvalue_of_constant(self):
        # G = diag(0, 1) - I/z, D_G = 0, and 0 is an eigenvalue of C_G:
        # -G^{-1} = diag(z, z/(1 - z)) = diag(0, -1) + z diag(1, 0)
        #           + diag(0, 1)/(1 - z)
        G = RationalPickFunction(np.diag([0.0, 1.0]).astype(complex),
                                 np.zeros((2, 2)), ((0.0, np.eye(2)),))
        comp = compose_scalar(MINUS_INV, G, IDENTITY)
        assert_pick_equal(comp, np.diag([0.0, -1.0]), np.diag([1.0, 0.0]),
                          [(1.0, np.diag([0.0, 1.0]))])
        assert degree_rank(comp) == degree_rank(G) == 2

    def test_inner_value_at_infinity_on_a_pole(self):
        # F = diag(-1/w, w) and g = -1/z, with g(inf) = 0 a pole of F:
        # F(g(z)) = diag(z, -1/z)
        F = RationalPickFunction(np.zeros((2, 2)), np.diag([0.0, 1.0]),
                                 ((0.0, np.diag([1.0, 0.0])),))
        comp = compose_scalar(IDENTITY, F, MINUS_INV)
        assert_pick_equal(comp, np.zeros((2, 2)), np.diag([1.0, 0.0]),
                          [(0.0, np.diag([0.0, 1.0]))])
        assert degree_rank(comp) == 2

    def test_coinciding_poles_merge(self):
        # f(w) = -1/w - 1/(w - 1) on F = diag(z, z + 1): both resolvents
        # have a pole at 0, in different components
        f = RationalPickFunction.scalar(0.0, 0.0, [(0.0, 1.0), (1.0, 1.0)])
        F = RationalPickFunction(np.diag([0.0, 1.0]).astype(complex), np.eye(2))
        comp = compose_scalar(f, F, IDENTITY)
        assert_pick_equal(comp, np.zeros((2, 2)), np.zeros((2, 2)),
                          [(-1.0, np.diag([0.0, 1.0])), (0.0, np.eye(2)),
                           (1.0, np.diag([1.0, 0.0]))])
        assert degree_rank(comp) == 4

    def test_identically_singular_resolvent_raises(self):
        # F = diag(z, 1) has the constant eigenvalue 1: det(F - 1) = 0
        F = RationalPickFunction(np.diag([0.0, 1.0]).astype(complex),
                                 np.diag([1.0, 0.0]).astype(complex))
        f = RationalPickFunction.scalar(0.0, 0.0, [(1.0, 1.0)])
        with pytest.raises(ValueError, match="vanishes identically"):
            compose_scalar(f, F, IDENTITY)

    def test_inner_residues_are_a_over_g_prime(self):
        # F(w) = A/(l - w): the poles of F o g sit at the roots of g = l,
        # with residues A/g'(zeta)
        A = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
        F = RationalPickFunction(np.zeros((2, 2)), np.zeros((2, 2)), ((0.5, A),))
        a, m = (0.7, 1.3), (-1.0, 2.0)
        g = RationalPickFunction.scalar(0.2, 0.4, list(zip(m, a)))
        comp = compose_scalar(IDENTITY, F, g)
        assert len(comp.poles) == 3
        for zeta, R in comp.poles:
            assert abs(pick_eval(g, zeta)[0, 0] - 0.5) < 1e-12
            gp = 0.4 + sum(ak / (mk - zeta) ** 2 for mk, ak in zip(m, a))
            assert np.abs(R - A / gp).max() < 1e-12

    @pytest.mark.parametrize("seed", range(40))
    def test_resolvent_matches_inverse(self, seed):
        rng = np.random.default_rng(seed)
        G = random_pick(rng, int(rng.integers(1, 4)), int(rng.integers(0, 3)))
        n = float(rng.normal())
        R = hardyrp.pick._resolvent(G, n)
        assert degree_rank(R) == degree_rank(G)
        for z in (1j, 0.3 + 2j, -1.7 + 0.1j, 5 + 0.5j):
            ref = np.linalg.inv(n * np.eye(G.dim) - pick_eval(G, z))
            assert np.abs(R(z) - ref).max() <= 1e-10 * max(1.0, np.abs(ref).max())


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
