import itertools
import json
import re

import mpmath
import numpy as np
import pytest

import hardyrp.cli
import hardyrp.pick
from hardyrp.numerics import DegenerateCurveError, UnderSampledCurveError
from hardyrp.pick import (
    BlaschkePotapovProduct,
    RationalPickFunction,
    blaschke_factor,
    boundary_unitary,
    bp_degree,
    bp_eval,
    compose_scalar,
    degree_rank,
    degree_winding,
    dump_pick,
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


def weak_family(lo: float, hi: float) -> list[RationalPickFunction]:
    """600 functions with zero D, |C| from 1 to 1e5 and rank-1 residues of
    size 10^U(lo, hi): (-11.5, -8) is the family W8, (-14, -11) W11.  Many
    of their mirror roots lie within a few ulps of the real line."""
    rng = np.random.default_rng(0)
    family = []
    for _ in range(600):
        n = rng.integers(1, 4)
        X = rng.standard_normal((n, n))
        C = (X + X.T) / 2
        C *= 10 ** rng.uniform(0, 5) / np.linalg.norm(C)
        poles = []
        for l in np.sort(rng.uniform(-5, 5, rng.integers(1, 4))):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v /= np.linalg.norm(v)
            poles.append((l, 10 ** rng.uniform(lo, hi) * np.outer(v, v.conj())))
        family.append(RationalPickFunction(C, np.zeros((n, n)), tuple(poles)))
    return family


def matrix_blaschke(M, lam):
    """phi_lam(M) = (M - lam)(M - conj(lam))^{-1} for a stack of matrices,
    by a linear solve: a reference independent of bp_eval."""
    mT = lambda X: np.swapaxes(X, -1, -2)
    I = np.eye(M.shape[-1])
    return mT(np.linalg.solve(mT(M - np.conj(lam) * I), mT(M - lam * I)))


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

    def test_negative_residue_rejected(self):
        with pytest.raises(ValueError, match="residue must be positive"):
            RationalPickFunction(np.zeros((2, 2)), np.zeros((2, 2)),
                                 ((1.0, -np.eye(2)),))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["C", "D", "residue", "pole"])
    def test_non_finite_rejected(self, where, bad):
        C, D, A = np.zeros((2, 2)), np.eye(2), np.eye(2)
        loc = 1.0
        if where == "pole":
            loc = bad
        else:
            M = {"C": C, "D": D, "residue": A}[where]
            M[1, 1] = bad
        name = "pole locations" if where == "pole" else where
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RationalPickFunction(C, D, ((loc, A),))

    @pytest.mark.parametrize("make, message", [
        (lambda: RationalPickFunction.scalar(0.0, 0.0, [(0.0, -1e-11)]),
         "residue must be positive semidefinite"),
        (lambda: RationalPickFunction.scalar(0.0, -1e-11),
         "D must be positive semidefinite"),
        (lambda: RationalPickFunction(np.array([[0.0, 1e-11], [0.0, 0.0]]),
                                      np.zeros((2, 2))),
         "C must be Hermitian"),
    ], ids=["residue", "D", "C"])
    def test_tiny_matrix_judged_on_its_own_scale(self, make, message):
        # no absolute floor: a 1e-11 violation is as wrong as a 1e5 one
        with pytest.raises(ValueError, match=message):
            make()

    def test_zero_matrices_accepted(self):
        F = RationalPickFunction(np.zeros((2, 2)), np.zeros((2, 2)),
                                 ((1.0, np.zeros((2, 2))),))
        assert degree_rank(F) == 0

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
        assert is_regular(F)

    def test_constant_hermitian_is_pick_not_regular(self):
        F = RationalPickFunction(np.eye(2, dtype=complex), np.zeros((2, 2)))
        assert not is_regular(F)
        # an eigenvector of C in ker D and in the kernel of every residue
        # is an eigenvector of every F(z), with a real eigenvalue
        for seed in range(60):
            F = irregular_pick(np.random.default_rng(seed))
            assert not is_regular(F)

    @pytest.mark.parametrize("c_scale,b_scale", [(1e5, 1e-5), (1e-5, 1e5),
                                                 (1e5, 1.0), (1.0, 1e-5)])
    def test_irregular_at_every_block_scale(self, c_scale, b_scale):
        # C and B are judged each on its own scale: rescaling one of them
        # leaves the shared eigenvector, and irregularity, in place
        for seed in range(60):
            F = irregular_pick(np.random.default_rng(seed))
            G = RationalPickFunction(
                c_scale * F.C, b_scale ** 2 * F.D,
                tuple((l, b_scale ** 2 * A) for l, A in F.poles))
            assert not is_regular(G), seed

    @pytest.mark.parametrize("c,a", [(1e5, 1e-9), (0.0, 1e-9), (1e-9, 1e5)])
    def test_scalar_judged_on_its_own_scale(self, c, a):
        # every nonconstant scalar Pick function is regular, however small
        # its residue against C
        assert is_regular(RationalPickFunction.scalar(c, 0.0, [(0.0, a)]))

    @pytest.mark.parametrize("d", [1.0, 1e16, 1e20])
    def test_linear_term_hides_no_residue(self, d):
        # diag(d z, 1 + 1/(3 - z)) has two nonconstant entries, however far
        # the linear term outweighs the residue
        F = RationalPickFunction(np.diag([0.0, 1.0]), np.diag([d, 0.0]),
                                 ((3.0, np.diag([0.0, 1.0])),))
        assert is_regular(F)

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

    def test_one_rank_rule(self):
        # D = 1e-13 is rank 1 relative to itself: the realization that
        # is_regular and the contour plan read keeps it, as degree_rank does
        F = RationalPickFunction.scalar(0.3, 1e-13)
        assert F._state_space is F._state_space
        assert degree_rank(F) == 1
        assert hardyrp.pick._mirror_roots(F, 1j).size == 1
        assert is_regular(F)

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

    def test_refusal_on_the_planned_contour_raises(self, monkeypatch, tmp_path):
        # refuse the second curve (det(F - conj(lam))) only: the contour is
        # sampled once, so the refusal is the answer, exit 3 from the CLI
        real = hardyrp.pick.winding_number
        sizes = []

        def refusing(curve):
            sizes.append(curve.values.size)
            if len(sizes) % 2 == 0:
                raise UnderSampledCurveError("refused for the test")
            return real(curve)

        monkeypatch.setattr(hardyrp.pick, "winding_number", refusing)
        F = degree3_pick()
        with pytest.raises(UnderSampledCurveError, match="refused for the test"):
            winding_counts(F)
        assert len(sizes) == 2 and sizes[0] == sizes[1]
        path = tmp_path / "F.json"
        path.write_text(json.dumps(dump_pick(F)))
        assert hardyrp.cli.run(["degree", "--pick", str(path),
                                "--method", "winding"]) == 3
        assert len(sizes) == 4

    def test_one_stacked_call_per_block(self, monkeypatch):
        real = hardyrp.pick._entries
        sizes = []

        def counted(F, z, shifts=(0.0,)):
            sizes.append(np.size(z))
            return real(F, z, shifts)

        monkeypatch.setattr(hardyrp.pick, "_entries", counted)
        F = worked_example()
        assert winding_counts(F) == (1, 1)
        shared = len(sizes)
        assert multiplicity_winding(F) == 1 and degree_winding(F) == 1
        assert len(sizes) - shared == 2 * shared
        assert 1 < max(sizes) <= hardyrp.pick._SAMPLE_BLOCK

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_block_is_numerical_failure(self, monkeypatch):
        # NaN at one point of the first block, which every contour has
        real = hardyrp.pick._entries
        calls = []

        def poisoned(F, z, shifts=(0.0,)):
            calls.append(None)
            M = real(F, z, shifts)
            if len(calls) == 1:
                M[..., 0] = np.nan
            return M

        monkeypatch.setattr(hardyrp.pick, "_entries", poisoned)
        with pytest.raises(DegenerateCurveError):
            winding_counts(worked_example())

    @pytest.mark.parametrize("dim", [3, 4])
    def test_lapack_determinants_only_from_4x4(self, dim, monkeypatch):
        real = np.linalg.det
        calls = []

        def spy(M):
            calls.append(M.shape)
            return real(M)

        monkeypatch.setattr(np.linalg, "det", spy)
        F = random_pick(np.random.default_rng(dim), dim, 2)
        assert winding_counts(F) == (degree_rank(F),) * 2
        if dim == 3:
            assert calls == []
        else:
            assert calls and all(shape[-2:] == (4, 4) for shape in calls)

    @pytest.mark.parametrize("block", range(4))
    def test_regular_3x3_counts_equal_rank(self, block):
        # 200 regular 3x3 functions: D + sum A_j positive definite
        for seed in range(50 * block, 50 * block + 50):
            rng = np.random.default_rng(1000 + seed)
            while True:
                F = random_pick(rng, 3, int(rng.integers(0, 4)))
                total = F.D + sum((A for _, A in F.poles), np.zeros((3, 3)))
                if np.linalg.eigvalsh(total).min() > 0.05:
                    break
            assert winding_counts(F) == (degree_rank(F),) * 2

    def test_callables_count_each_curve(self):
        comp = conjugated_example()
        assert winding_counts(comp) == (1, 1)

    def test_mirror_root_next_to_the_real_line_counted(self):
        # det(F - conj(lam)) = 0 at z = 0.5 + 1e-11 / (0.3 + i), 1e-11 below
        # the real line: the contour passes between it and its reflection
        F = RationalPickFunction.scalar(0.3, 0.0, [(0.5, 1e-11)])
        assert degree_rank(F) == 1
        assert winding_counts(F) == (1, 1)

    def test_mirror_root_just_outside_the_circle_counted(self):
        # the root -1e11 (0.3 + i) maps 1.8e-11 outside the unit circle; a
        # contour 9e-12 outside it, closed by its first sample, counts it
        F = RationalPickFunction.scalar(0.3, 1e-11)
        assert winding_counts(F) == (1, 1) == (degree_rank(F),) * 2

    def test_unresolvable_mirror_root_fails_loudly(self):
        # the root 1000 - 1.8e-12 i maps within rounding of the unit circle:
        # no sampled contour separates it, so the count raises, not (0, 0)
        F = RationalPickFunction.scalar(0.3, 0.0, [(1e3, 2e-12)])
        with pytest.raises(DegenerateCurveError):
            winding_counts(F)

    def test_far_linear_term_counted(self):
        # F(z) = -100 + 0.001 z: the mirror root 1e5 - 1e3 i maps 2e-7
        # outside the circle, 2e-5 rad from the image of infinity on it
        assert winding_counts(RationalPickFunction.scalar(-100.0, 0.001)) == (1, 1)

    def test_wide_scale_family_counts_the_degree_or_raises(self):
        # C, D and residues over eight decades, poles over six
        rng = np.random.default_rng(77)
        counted = 0
        for _ in range(600):
            n = int(rng.integers(1, 4))
            X = rng.standard_normal((n, n))
            C = (X + X.T) / 2 * 10 ** rng.uniform(-4, 4)
            W = rng.standard_normal((n, int(rng.integers(0, n + 1))))
            D = W @ W.T * 10 ** rng.uniform(-4, 4)
            poles = []
            for l in np.sort(10 ** rng.uniform(-3, 3, rng.integers(0, 4))
                             * rng.choice([-1, 1])):
                B = rng.standard_normal((n, int(rng.integers(1, n + 1))))
                poles.append((float(l), B @ B.T * 10 ** rng.uniform(-4, 4)))
            F = RationalPickFunction(C, D, tuple(poles))
            try:
                counts = winding_counts(F)
            except (DegenerateCurveError, UnderSampledCurveError):
                continue
            assert counts == (degree_rank(F),) * 2
            counted += 1
        assert counted >= 570


    @pytest.mark.parametrize("lo, hi", [(-11.5, -8.0), (-14.0, -11.0)],
                             ids=["W8", "W11"])
    def test_weak_families_count_the_degree_or_raise(self, lo, hi):
        counted = 0
        for F in weak_family(lo, hi):
            try:
                counts = winding_counts(F)
            except (DegenerateCurveError, UnderSampledCurveError):
                continue
            assert counts == (degree_rank(F),) * 2
            counted += 1
        assert counted >= 100

    def test_count_below_the_root_count_raises(self):
        # W11's function 328: a residue of 3.4e-14 against |C| = 21.8, whose
        # mirror root maps one ulp outside the unit circle; both curves
        # wind 0 times around the contour, short of its one mirror root
        F = weak_family(-14.0, -11.0)[328]
        assert degree_rank(F) == 1
        with pytest.raises(DegenerateCurveError, match="1 mirror root"):
            winding_counts(F)


# the first degree input of the pick-degree benchmark, seed 1
BENCHMARK_INPUT = """{"dim": 2,
 "C": [[[-1.2732170480659186, 0.0], [-0.12221770677815094, 0.0]],
       [[-0.12221770677815094, 0.0], [0.37408722038710385, 0.0]]],
 "D": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
 "poles": [{"lambda": -2.637270608125197,
            "A": [[[0.7405446042613174, 0.0],
                   [0.37186132346698164, -0.33234632422296556]],
                  [[0.37186132346698164, 0.33234632422296556],
                   [0.3358810822249407, 0.0]]]},
           {"lambda": 2.5212667623518095,
            "A": [[[0.7398687559616122, 0.0],
                   [-1.181886397096731, 1.8659838789154313]],
                  [[-1.181886397096731, -1.8659838789154313],
                   [6.594076655762583, 0.0]]]}]}"""


class TestContourSize:
    @staticmethod
    def spy(monkeypatch):
        """Record the uniform points and the circle points of every level a
        winding pass samples."""
        uniform, points = [], []
        grids, sampler = hardyrp.pick._level_grids, hardyrp.pick._curve_sampler

        def level_grids(n0):
            out = grids(n0)
            uniform.append(out[0].size)
            return out

        def curve_sampler(F, lam):
            fn = sampler(F, lam)

            def counted(w, kinds):
                points.append(w.size)
                return fn(w, kinds)
            return counted

        monkeypatch.setattr(hardyrp.pick, "_level_grids", level_grids)
        monkeypatch.setattr(hardyrp.pick, "_curve_sampler", curve_sampler)
        return uniform, points

    @staticmethod
    def terms(F) -> int:
        return 2 * degree_rank(F) + len(F.poles) + 1

    def test_benchmark_input_gets_the_base_grid(self, monkeypatch):
        F = load_pick(BENCHMARK_INPUT)
        assert self.terms(F) == 7
        _, feats, _ = hardyrp.pick._contour_plan(F, 1j)
        uniform, points = self.spy(monkeypatch)
        assert winding_counts(F) == (2, 2)
        assert uniform == [512]
        # 201 points per feature window, of which a window centred on a
        # uniform angle shares one
        assert 512 + 200 * len(feats) < points[0] <= 512 + 201 * len(feats)

    @pytest.mark.parametrize("seed", range(3))
    def test_many_terms_get_32_uniform_points_each(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        while True:
            F = random_pick(rng, 3, 3)
            if 16 < self.terms(F) and is_regular(F):
                break
        uniform, _ = self.spy(monkeypatch)
        assert winding_counts(F) == (degree_rank(F),) * 2
        assert uniform[0] >= 32 * self.terms(F)
        assert uniform[0] < 64 * self.terms(F)

    def test_dim6_with_8_poles_counts_its_degree(self, monkeypatch):
        F = random_pick(np.random.default_rng(1), 6, 8)
        deg = degree_rank(F)
        assert deg == 33
        uniform, _ = self.spy(monkeypatch)
        assert winding_counts(F) == (deg, deg)
        assert uniform[0] == 4096 >= 32 * self.terms(F)

    def test_pole_of_order_6_next_to_the_contour_counts(self):
        # degree 30; the image of infinity, a pole of order 6 of the second
        # curve, lies 2e-7 from the contour, where a second evaluation at
        # 2 pi differed from the first sample by more than the closure
        # tolerance
        F = random_pick(np.random.default_rng(0), 6, 8)
        deg = degree_rank(F)
        assert deg == 30
        assert winding_counts(F) == (deg, deg)

    def test_level_grids_built_once(self):
        assert hardyrp.pick._level_grids(512) is hardyrp.pick._level_grids(512)
        uniform, unit = hardyrp.pick._level_grids(512)
        assert uniform.size == 512 and unit.size == 201
        assert not uniform.flags.writeable and not unit.flags.writeable

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


    def test_constant_far_above_lam(self):
        # c = 0.3 on ker D lies within RANK_TOL |C| = 10 of conj(lam) = -1j,
        # but off the real line c - conj(lam) is exact and still eliminated
        F = RationalPickFunction(np.diag([1e10, 0.3]), np.diag([1.0, 0.0]),
                                 ((1.0, np.ones((2, 2))),))
        z = hardyrp.pick._mirror_roots(F, 1j)
        assert z.size == 2 and np.all(z.imag < 0)
        for root in z:
            s = np.linalg.svd(pick_eval(F, root) + 1j * np.eye(2), compute_uv=False)
            assert s[-1] < 1e-10 * s[0]


def _mp_det(M) -> complex:
    with mpmath.workdps(50):
        rows = [[mpmath.mpc(complex(e)) for e in row] for row in M]
        return complex(mpmath.det(mpmath.matrix(rows)))


class TestSmallDeterminants:
    @pytest.mark.parametrize("n", [1, 2, 3])
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
            entry_major = np.ascontiguousarray(np.moveaxis(M, 0, -1))
            closed.append(np.abs(_det(entry_major) - ref) / np.abs(ref))
            lu.append(np.abs(np.linalg.det(M) - ref) / np.abs(ref))
        # worst error per |z| over the functions (the last column: at 1e-10
        # from the pole); pointwise the rounding of either method is noise
        worst_closed = np.max(closed, axis=0)
        worst_lu = np.maximum(np.max(lu, axis=0), np.finfo(float).eps)
        assert np.all(worst_closed <= 10.0 * worst_lu)

    def test_3x3_pivots_and_zero_column(self):
        # every pivot row, and a zero first column (determinant exactly 0)
        from hardyrp.pick import _det
        M = np.zeros((4, 3, 3), dtype=complex)
        for k in range(3):
            M[k] = np.roll(np.diag([4.0, 2.0 + 1j, 3.0]), k, axis=0) + 0.5
        M[3] = [[0, 1, 2], [0, 3, 1j], [0, 2, 5]]
        got = _det(np.moveaxis(M, 0, -1))
        assert np.allclose(got, np.linalg.det(M), rtol=1e-14, atol=0)
        assert got[3] == 0

    @pytest.mark.parametrize("n", [4, 5])
    def test_larger_matrices_stay_on_lu(self, n):
        from hardyrp.pick import _det
        rng = np.random.default_rng(n)
        M = rng.normal(size=(50, n, n)) + 1j * rng.normal(size=(50, n, n))
        assert np.array_equal(_det(np.moveaxis(M, 0, -1)), np.linalg.det(M))


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
        F = worked_example()
        phi = self.factorization()
        z = np.array([2 + 1.3j, -1 + 0.5j, 3j])
        lhs = matrix_blaschke(pick_eval(F, z), 1j)
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
            RationalPickFunction.mobius(2.0, 0.0, 0.0, 1.0)
        # at |ad| + |bc| = 2e12 a relative error of 1e-10 in d is 100
        with pytest.raises(ValueError):
            RationalPickFunction.mobius(1e6, 1e6, 1e6,
                                        (1.0 + 1e12) / 1e6 * (1.0 + 1e-10))

    def test_mobius_normalization_judged_on_its_scale(self):
        # ad - bc = 1 rounds on the scale |ad| + |bc|, up to 1e12 here
        rng = np.random.default_rng(0)
        for _ in range(1000):
            a, b, c = rng.choice([-1.0, 1.0], 3) * 10 ** rng.uniform(-6, 6, 3)
            m = RationalPickFunction.mobius(a, b, c, (1.0 + b * c) / a)
            assert degree_rank(m) == 1

    def test_mobius_as_pick_agrees(self):
        a, b, c, d = 0.0, 1.0, -1.0, 0.0
        F = RationalPickFunction.mobius(a, b, c, d)   # z -> -1/z
        for z in (1j, 2 + 1j):
            want = (a * z + b) / (c * z + d)
            assert abs(pick_eval(F, z)[0, 0] - want) < 1e-14
        assert degree_rank(F) == 1

    def test_degree_multiplicative(self):
        f = RationalPickFunction.mobius(0.0, 1.0, -1.0, 0.0)     # degree 1
        F = worked_example()                                     # degree 1
        g = RationalPickFunction.scalar(0.0, 1.0, [(1.0, 1.0)])  # degree 2
        comp = compose_scalar(f, F, g)
        assert isinstance(comp, RationalPickFunction)
        assert degree_rank(comp) == 2
        assert multiplicity_winding(comp) == 2

    def test_mobius_conjugation_preserves_degree(self):
        m = RationalPickFunction.mobius(1.0, 1.0, 0.0, 1.0)      # z -> z + 1
        F = worked_example()
        comp = compose_scalar(m, F, m)
        assert degree_rank(comp) == degree_rank(F)
        assert multiplicity_winding(comp) == degree_rank(F)

    def test_identity_composition_returns_F(self):
        F = degree3_pick()
        e = RationalPickFunction.mobius(1.0, 0.0, 0.0, 1.0)
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

    def test_far_pole_keeps_the_constant(self):
        # -1/F for F = 1 + 1/(0 - z) + 1/(1e9 - z): F(inf) = 1, so the
        # constant is -1; the far pole must not make C - n = 1 look singular
        F = RationalPickFunction.scalar(1.0, 0.0, [(0.0, 1.0), (1e9, 1.0)])
        comp = compose_scalar(MINUS_INV, F, IDENTITY)
        assert abs(comp.C[0, 0] + 1.0) < 1e-9
        z = np.array([1j, 0.3 + 2j, -1.7 + 0.1j, 5 + 0.5j])
        ref = -1.0 / F(z)[:, 0, 0]
        assert np.abs(comp(z)[:, 0, 0] - ref).max() <= 1e-12 * np.abs(ref).min()
        assert degree_rank(comp) == 2

    def test_spread_poles_compose(self):
        # F with C = 0 and poles over twenty decades: det(F - 0) does not
        # vanish identically, and -1/F = z/4 + ... has degree 3
        F = RationalPickFunction.scalar(0.0, 0.0,
                                        [(1e-10, 1.0), (1.0, 2.0), (1e10, 1.0)])
        comp = compose_scalar(MINUS_INV, F, IDENTITY)
        assert abs(comp.D[0, 0] - 0.25) < 1e-12
        assert degree_rank(comp) == 3 and is_regular(comp)

    def test_far_pole_keeps_near_poles_apart(self):
        # f = 1/(0 - w) + 1/(1e-4 - w) on F = 1 + 1/(0 - z) + 1/(1e9 - z):
        # f o F has poles near 1, 1.0001, 1e9 + 1 and 1e9 + 1.0001, pairs
        # 1e-4 apart that a merge scaled by the far pole would join
        f = RationalPickFunction.scalar(0.0, 0.0, [(0.0, 1.0), (1e-4, 1.0)])
        F = RationalPickFunction.scalar(1.0, 0.0, [(0.0, 1.0), (1e9, 1.0)])
        comp = compose_scalar(f, F, IDENTITY)
        assert degree_rank(comp) == 4
        z = np.array([1j, 0.3 + 2j, -1.7 + 0.1j, 5 + 0.5j, 1 + 1e-3j])
        w = F(z)[:, 0, 0]
        ref = 1.0 / (0.0 - w) + 1.0 / (1e-4 - w)
        assert np.all(np.abs(comp(z)[:, 0, 0] - ref) <= 1e-12 * np.abs(ref))

    def test_far_pole_keeps_tiny_poles_apart(self):
        # the identity composition of poles at 1e-6, 2e-6 and 1e10: a merge
        # scaled by the far pole joined the two near ones
        F = RationalPickFunction.scalar(0.0, 0.0,
                                        [(1e-6, 1.0), (2e-6, 1.0), (1e10, 1.0)])
        comp = compose_scalar(IDENTITY, F, IDENTITY)
        assert len(comp.poles) == 3 and degree_rank(comp) == 3
        z = np.array([1e-6 + 1e-7j, 1j, 3 + 0.5j])
        ref = F(z)[:, 0, 0]
        assert np.all(np.abs(comp(z)[:, 0, 0] - ref) <= 1e-14 * np.abs(ref))

    def test_poles_on_one_double_break_the_law_loudly(self):
        # on z + 1/(1e10 - z) the two roots near 1e10 + 1e-10 of
        # f = 1/(0 - w) + 1/(1e-3 - w) differ by 1e-23, one double: the
        # result has degree 3, where deg f deg F = 4
        f = RationalPickFunction.scalar(0.0, 0.0, [(0.0, 1.0), (1e-3, 1.0)])
        F = RationalPickFunction.scalar(0.0, 1.0, [(1e10, 1.0)])
        with pytest.raises(RuntimeError, match=r"degree 3.* = 4"):
            compose_scalar(f, F, IDENTITY)

    def test_wide_scale_family_keeps_the_composition_law(self):
        # 400 compositions f o F with poles from 1e-8 to 1e10 in modulus:
        # each has degree deg f deg F, or raises where poles met on a double
        R = RationalPickFunction
        rng = np.random.default_rng(0)

        def scal(k):
            locs = np.sort(rng.choice([-1, 1], k) * 10 ** rng.uniform(-8, 10, k))
            return R.scalar(float(rng.normal()), float(rng.uniform(0, 1) < 0.3),
                            [(float(l), float(10 ** rng.uniform(-3, 3)))
                             for l in locs])

        raised = 0
        for _ in range(400):
            n = int(rng.integers(1, 3))
            poles = []
            for l in np.sort(10 ** rng.uniform(-8, 10, int(rng.integers(1, 4)))
                             * rng.choice([-1, 1])):
                v = rng.normal(size=n) + 1j * rng.normal(size=n)
                poles.append((float(l), np.outer(v, v.conj())))
            X = rng.normal(size=(n, n))
            F = R((X + X.T) / 2, np.zeros((n, n)), tuple(poles))
            f = scal(int(rng.integers(1, 3)))
            try:
                comp = compose_scalar(f, F, IDENTITY)
            except RuntimeError:
                raised += 1
                continue
            assert degree_rank(comp) == degree_rank(f) * degree_rank(F)
        # the guard refuses only the few whose poles met on a double
        assert raised < 20

    def test_linear_term_hides_no_residue(self):
        # det(F - 1) = 1e20 z / (z - 3) for F = diag(1e20 z, 1 + 1/(3 - z)):
        # (1 - F)^{-1} exists although the residue is 1e-20 of D
        F = RationalPickFunction(np.diag([0.0, 1.0]), np.diag([1e20, 0.0]),
                                 ((3.0, np.diag([0.0, 1.0])),))
        comp = compose_scalar(RationalPickFunction.scalar(0.0, 0.0, [(1.0, 1.0)]),
                              F, IDENTITY)
        assert degree_rank(comp) == 2
        z = np.array([1j, 0.3 + 2j, -1.7 + 0.1j, 5 + 0.5j])
        ref = np.linalg.inv(np.eye(2) - F(z))
        big = lambda M: np.abs(M).max(axis=(1, 2))
        assert np.all(big(comp(z) - ref) <= 1e-12 * big(ref))

    def test_tiny_distinct_poles_stay_apart(self):
        # poles 4e-13 apart are far outside the rounding of the pencils
        # they come from, so the identity composition keeps both
        F = RationalPickFunction.scalar(0.0, 0.0, [(1e-13, 1.0), (5e-13, 1.0)])
        comp = compose_scalar(IDENTITY, F, IDENTITY)
        assert_pick_equal(comp, [[0.0]], [[0.0]],
                          [(1e-13, [[1.0]]), (5e-13, [[1.0]])])
        assert abs(comp.poles[0][0] - 1e-13) < 1e-28
        assert degree_rank(comp) == 2

    @pytest.mark.parametrize("seed", range(40))
    def test_resolvent_matches_inverse(self, seed):
        # G itself and H(z) = c G(a z + b) over eighteen decades of a and c:
        # the resolvent at c n is (n - G)^{-1} / c there, and -1/H is Pick
        # of H's degree, whatever the scale of H's poles against its constant
        rng = np.random.default_rng(seed)
        G = random_pick(rng, int(rng.integers(1, 4)), int(rng.integers(0, 3)))
        n, shift = float(rng.normal()), float(rng.normal())
        deg, regular = degree_rank(G), is_regular(G)
        z = np.array([1j, 0.3 + 2j, -1.7 + 0.1j, 5 + 0.5j])
        inv = np.linalg.inv(n * np.eye(G.dim) - pick_eval(G, z))
        big = lambda M: np.abs(M).max(axis=(1, 2))
        scales = itertools.product((1e-9, 1e-3, 1e3, 1e9), repeat=2)
        for a, b, c in [(1.0, 0.0, 1.0)] + [(a, shift, c) for a, c in scales]:
            H = RationalPickFunction(
                c * (G.C + b * G.D), c * a * G.D,
                tuple(((l - b) / a, c / a * A) for l, A in G.poles))
            assert degree_rank(H) == deg and is_regular(H) == regular
            w = (z - b) / a
            R = hardyrp.pick._resolvent(H, c * n)
            assert degree_rank(R) == deg
            assert np.all(big(R(w) - inv / c)
                          <= 1e-10 * np.maximum(1.0, big(inv)) / c)
            ref = -np.linalg.inv(pick_eval(H, w))
            comp = compose_scalar(MINUS_INV, H, IDENTITY)
            assert np.all(big(comp(w) - ref) <= 1e-10 * big(ref))
            try:
                counts = winding_counts(H)
            except (DegenerateCurveError, UnderSampledCurveError):
                continue
            assert counts == (deg, deg)


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
    m = RationalPickFunction.mobius(1.0, 1.0, 0.0, 1.0)
    minv = RationalPickFunction.mobius(1.0, -1.0, 0.0, 1.0)
    return compose_scalar(minv, worked_example(), m)


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
        e = RationalPickFunction.mobius(1.0, 0.0, 0.0, 1.0)
        comp = compose_scalar(e, F, e)
        assert np.abs(comp(self.zs) - pick_eval(F, self.zs)).max() < 1e-10

    def test_scalar_point_gives_one_matrix(self):
        F = degree3_pick()
        assert pick_eval(F, 0.5 + 1j).shape == (2, 2)
        assert pick_eval(F, 0.5).shape == (2, 2)
        assert conjugated_example()(0.5 + 1j).shape == (2, 2)


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

    def test_failed_confirmation_restarts_the_shrink(self):
        # w^2 counts 2 at r = 1.25, 1.125 and 1.0625, the confirmation at
        # r = 1.0039 counts 3, and the shrink from there settles on 3
        radii = []

        def curve(w):
            radii.append(abs(w[0]))
            return w ** (2 if abs(w[0]) > 1.01 else 3)

        assert hardyrp.pick._winding_on_circle(curve) == 3
        assert radii[:4] == [1.25, 1.125, 1.0625, 1.00390625]

    def test_failed_radius_breaks_the_streak(self):
        radii = []

        def curve(w):
            radii.append(abs(w[0]))
            if abs(w[0]) == 1.125:
                raise ZeroDivisionError("a pole on the circle")
            return w ** 2

        assert hardyrp.pick._winding_on_circle(curve) == 2
        assert radii == [1.25, 1.125, 1.0625, 1.03125, 1.015625,
                         1.0009765625]

    def test_give_up_names_no_error_when_none_was_raised(self):
        # the count cycles through 5, 4, 2, 3 as r halves toward 1
        def curve(w):
            return w ** int(1 + 1 / (abs(w[0]) - 1) % 5)

        with pytest.raises(RuntimeError) as info:
            hardyrp.pick._winding_on_circle(curve)
        assert str(info.value) == ("winding count failed to stabilize down "
                                   "to r = 1.000002")


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


INPUT_CHECKS = {
    "D of the wrong shape": (
        lambda: RationalPickFunction(np.eye(2), np.eye(3)), "D must be 2x2"),
    "dim against the matrices": (
        lambda: load_pick({"dim": 2, "C": [[[1, 0]]], "D": [[[0, 0]]]}),
        "matrix dimensions disagree with dim"),
    "u not unitary": (lambda: BlaschkePotapovProduct(2.0 * np.eye(1)),
                      "u must be unitary"),
    "omega below the axis": (
        lambda: BlaschkePotapovProduct(np.eye(1), ((-1j, np.eye(1)),)),
        "factor zeros must lie in the upper half-plane"),
}


@pytest.mark.parametrize("call, says", INPUT_CHECKS.values(),
                         ids=INPUT_CHECKS.keys())
def test_input_checks(call, says):
    with pytest.raises(ValueError, match=re.escape(says)):
        call()
