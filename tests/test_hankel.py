import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest

import hardyrp.hankel
import hardyrp.hardy
import hardyrp.measures
import hardyrp.symbols
from hardyrp.hankel import (
    _FORM_QUADRATURE,
    _boundary_pairing,
    _phi_kernel,
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
from hardyrp.hardy import KernelCombination, SymbolFunction, szego
from hardyrp.measures import BoundaryMeasure, DensityPiece, lebesgue_cauchy_measure
from hardyrp.symbols import h_nu_symbol, t_map


def two_lebesgue() -> BoundaryMeasure:
    return BoundaryMeasure(density=[DensityPiece(1e-12, np.inf, expr="2")])


def table_measure(n: int = 64) -> BoundaryMeasure:
    """n samples of 1.3/(1+l^2), geometrically spaced on [0.1, 10]."""
    rows = [[float(l), 1.3 / (1.0 + float(l) ** 2)]
            for l in np.geomspace(0.1, 10.0, n)]
    return BoundaryMeasure(density=[DensityPiece(0.1, 10.0, "table",
                                                 samples=rows)])


def expo_measure() -> BoundaryMeasure:
    """ROADMAP's expo: an atom at 2 and the density e^{-l} from l = 1e-12."""
    return BoundaryMeasure(atoms=[(2.0, 0.5)], density=[
        DensityPiece(1e-12, np.inf, expr="exp(-lam)")])


def random_atomic(rng: np.random.Generator, k: int = 2) -> BoundaryMeasure:
    locs = rng.uniform(0.3, 3.0, size=k)
    while len(set(np.round(locs, 6))) < k:
        locs = rng.uniform(0.3, 3.0, size=k)
    return BoundaryMeasure(atoms=[(float(l), float(w)) for l, w in
                                  zip(locs, rng.uniform(0.2, 2.0, size=k))])


class TestBoundaryPairing:
    def test_integrates_cauchy_kernel(self):
        val = _boundary_pairing(lambda x: 1.0 / (1.0 + x * x)[:, None], [1.0])
        assert abs(val[0] - np.pi) < 1e-12

    def test_norm_matches_closed_form(self):
        val = _boundary_pairing(lambda x: np.abs(szego(1j, x))[:, None] ** 2,
                                [1.0])
        assert abs(val[0] - 1.0 / (4 * np.pi)) < 1e-12

    def test_inner_matches_kernel_algebra(self):
        a, b = 0.5 + 1j, -1.0 + 2j
        val = _boundary_pairing(
            lambda x: (np.conj(szego(a, x)) * szego(b, x))[:, None], [a, b])
        assert abs(val[0] - szego(b, a)) < 1e-12


class TestGram:
    def test_anchor_validation(self):
        with pytest.raises(ValueError):
            HankelGram((1j, -1j), np.zeros((2, 2)), np.eye(2))

    def test_mass_matrix_is_the_szego_table(self):
        # <Q_{z_j}, Q_{z_k}> = Q_{z_k}(z_j) = i / (2 pi (z_j - conj z_k)),
        # Hermitian, with 1 / (4 pi Im z_j) on the diagonal
        z = np.array(default_anchors(10))
        got = hardyrp.hardy._kernels(z, z)
        want = np.array([[1j / (2.0 * math.pi * (zj - zk.conjugate()))
                          for zk in z] for zj in z])
        assert np.abs(got / want - 1.0).max() <= 1e-15
        assert np.abs(np.diag(got) - 1.0 / (4.0 * math.pi * z.imag)).max() \
            <= 1e-15 * np.abs(np.diag(got)).max()
        assert np.array_equal(got, got.conj().T)
        g = gram_from_measure(BoundaryMeasure(atoms=[(1.0, 1.0)]), z)
        assert np.array_equal(g.M, got)

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

    @pytest.mark.parametrize("measure", [expo_measure, table_measure])
    def test_symbol_of_density_matches_measure(self, measure):
        # the symbol's form, integrated on the boundary, against the
        # measure's; the table density is a control away from l = 0
        mu, anchors = measure(), default_anchors(10)
        gs = gram_from_symbol(lambda x: symbol_from_measure(mu, x), anchors)
        assert np.abs(gs.G - gram_from_measure(mu, anchors).G).max() <= 1e-12

    def test_hankel_shift_relation(self):
        # <f, H S_t g> = <S_t f, H g>, (S_t f)(x) = e^{itx} f(x), for the
        # i sgn symbol, and both equal the form of 2 Lebesgue, where S_t g
        # is e^{-tl} g(il).  f and g are second differences of kernels:
        # e^{itx} oscillates without decaying, and the pass in log|x| meets
        # its tolerance only where the pairing decays faster than 1/x^2
        h, mu = SymbolFunction.i_sgn(), two_lebesgue()
        pairs = [(1j, 2j), (0.5 + 1j, 1j), (2j, -1 + 1j),
                 (0.3 + 0.7j, 0.5 + 0.5j), (1 + 1j, 3j)]
        for t in (0.3, 1.0):
            for zw, zz in pairs:
                f, g = (KernelCombination([(1.0, z), (-2.0, z + 1j),
                                           (1.0, z + 2j)]) for z in (zw, zz))

                def sides(x):
                    fhg = np.conj(f(x)) * h(x) * g(-x)
                    return np.stack([fhg * np.exp(1j * t * -x),
                                     np.conj(np.exp(1j * t * x)) * fhg], axis=1)

                def form(lam):
                    v = np.conj(f(1j * lam)) * np.exp(-t * lam) * g(1j * lam)
                    return np.stack([v.real, v.imag], axis=1)

                lhs, rhs = _boundary_pairing(sides, [zw, zz])
                want = complex(*mu.integrate(form, _FORM_QUADRATURE))
                assert abs(lhs - rhs) < 1e-6 * abs(lhs)
                assert abs(lhs - want) < 1e-6 * abs(want)

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
        gs = gram_from_symbol(h_nu_symbol(nu), anchors)
        scale = max(np.abs(gm.G).max(), 1e-12)
        assert np.abs(gm.G - gs.G).max() < 1e-6 * scale


def mp_gram_entry(zj, zk, rational, segments):
    """int conj(Q_zj(il)) Q_zk(il) rho(l) dl at 20 digits, segment by segment.

    The kernel product is 1/(4 pi^2 (l - al)(l - be)) with al = i zj and
    be = -i conj(zk), both in Re < 0.  rho is either rational(l), integrated
    by mpmath over the breakpoint list `segments`, or piecewise linear, with
    `segments` of (a, b, rho(a), rho(b)) integrated in closed form by
    partial fractions (a double pole when al = be: a diagonal entry on the
    axis)."""
    with mp.workdps(20):
        al, be = 1j * mp.mpc(zj), -1j * mp.conj(mp.mpc(zk))
        if rational is not None:
            return complex(mp.quad(
                lambda l: rational(l) / (4 * mp.pi ** 2 * (l - al) * (l - be)),
                segments))
        total = mp.mpc(0)
        for a, b, da, db in segments:
            a, b, da, db = (mp.mpf(v) for v in (a, b, da, db))
            s = (db - da) / (b - a)
            r = da - s * a
            if al == be:
                F = lambda l: s * mp.log(l - al) - (s * al + r) / (l - al)
            else:
                A = (s * al + r) / (al - be)
                B = (s * be + r) / (be - al)
                F = lambda l: A * mp.log(l - al) + B * mp.log(l - be)
            total += F(b) - F(a)
        return complex(total / (4 * mp.pi ** 2))


def assert_gram_matches(G, anchors, rational=None, segments=()):
    for j, zj in enumerate(anchors):
        for k in range(j, len(anchors)):
            want = mp_gram_entry(zj, anchors[k], rational, segments)
            for got_part, want_part in ((G[j, k].real, want.real),
                                        (G[j, k].imag, want.imag)):
                assert abs(got_part - want_part) <= max(
                    1e-10 * abs(want_part), 1e-14), (j, k)


class TestGramAgainstMpmath:
    """The batched Gram entries (one vector integral, 110 components for
    10 anchors) against QUADPACK-free references."""

    def test_cauchy_density(self):
        eps, beta, c = 1e-12, 1.3, 0.8
        mu = BoundaryMeasure(density=[DensityPiece(
            eps, np.inf, expr=f"{2 * c * beta!r}/({beta * beta!r}+lam**2)")])
        anchors = default_anchors(10)
        G = gram_from_measure(mu, anchors).G
        assert_gram_matches(
            G, anchors, rational=lambda l: 2 * c * beta / (beta ** 2 + l * l),
            segments=[eps, 1e-6, 0.1, 1, 10, 1e3, mp.inf])

    def test_table_density(self):
        mu = table_measure()
        rows = mu.density[0].samples
        anchors = default_anchors(10)
        G = gram_from_measure(mu, anchors).G
        assert_gram_matches(G, anchors, segments=[
            (l0, l1, d0, d1) for (l0, d0), (l1, d1) in zip(rows[:-1], rows[1:])])

    def test_divergent_form_raises(self):
        # l dl on (1, inf) is not a Carleson measure: |Q|^2 l does not decay
        mu = BoundaryMeasure(density=[DensityPiece(1.0, np.inf, expr="lam")])
        with pytest.raises(ValueError, match="diverges"):
            gram_from_measure(mu, default_anchors(4))


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
        with pytest.raises(ValueError):
            symbol_from_measure(two_lebesgue(), np.array([1.0, 0.0]))

    def test_array_is_one_vector_integral(self, monkeypatch):
        mu = table_measure()
        p = np.array([[-3.0, 0.1], [0.7, 11.0]])
        singles = [symbol_from_measure(mu, float(q)) for q in p.ravel()]
        calls = []
        real = BoundaryMeasure.integrate
        monkeypatch.setattr(BoundaryMeasure, "integrate",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        got = symbol_from_measure(mu, p)
        assert len(calls) == 1 and got.shape == p.shape
        # one pass refines its panels for all p, so only the tolerance holds
        assert np.abs(got.ravel() / singles - 1.0).max() <= 1e-10


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
        g = gram_from_symbol(h_nu_symbol(nu), default_anchors(8))
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

    @pytest.mark.parametrize("a, b, c", [
        (0.1, 8.0, 2.0),
        (0.14762440408270266, 10.248919757511272, 0.8882966698824899),
    ])
    def test_table_bands_converge(self, a, b, c):
        # 64 nodes of c/(1+l^2): a band quad that straddles the table's
        # kinks did not converge and warned about roundoff
        lam = np.geomspace(a, b, 64)
        rows = [(float(l), float(c / (1.0 + l * l))) for l in lam]
        mu = BoundaryMeasure(density=[DensityPiece(a, b, "table",
                                                   samples=rows)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compactness_check(mu)


class TestReflectionPositivity:
    def test_lebesgue_certifies(self):
        ok, mn = rp_certify(lebesgue_cauchy_measure(), (0.5, 1.0, 2.0))
        assert ok and mn >= -1e-8

    def test_exponential_correlation_psd(self):
        # phi(t) = e^{-t} is the single-atom correlation function
        A = rp_matrix(lambda t: math.exp(-t), (0.0, 1.0, 2.0))
        w, _ = np.linalg.eigh(A.astype(complex))
        assert w.min() >= -1e-12

    def test_cosine_counterexample(self):
        A = rp_matrix(math.cos, (0.0, math.pi / 2, math.pi))
        w, _ = np.linalg.eigh(A.astype(complex))
        assert w.min() < -0.5

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            rp_matrix(math.cos, (0.0, -1.0))

    @pytest.mark.parametrize("times", [(0.0, math.nan), (math.nan,),
                                       (1.0, math.inf), (-math.inf,)])
    def test_non_finite_times_rejected(self, times):
        # NaN passed "t < 0"; rp_certify then failed in a reshape or in
        # phi_from_psi with words about other inputs
        says = "times must be finite and nonnegative"
        with pytest.raises(ValueError, match=says):
            rp_matrix(math.cos, times)
        for nu in (BoundaryMeasure(atoms=[(1.0, 1.0), (2.0, 1.0)]),
                   two_lebesgue()):
            with pytest.raises(ValueError, match=says):
                rp_certify(nu, times)

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

    def test_certify_calls_phi_once(self, monkeypatch):
        calls = []
        real = hardyrp.hankel.phi_from_psi
        monkeypatch.setattr(hardyrp.hankel, "phi_from_psi",
                            lambda nu, t: calls.append(np.size(t)) or real(nu, t))
        ok, _ = rp_certify(table_measure(), (0.0, 0.5, 1.0, 2.0, 4.0))
        assert ok
        assert calls == [12]        # the distinct sums t_j + t_k

    def test_phi_array_equals_its_floats(self):
        nu = table_measure()
        t = np.array([[0.0, 0.5], [3.0, 8.0]])
        got = phi_from_psi(nu, t)
        assert got.shape == t.shape
        assert isinstance(phi_from_psi(nu, 0.5), float)
        singles = [phi_from_psi(nu, float(s)) for s in t.ravel()]
        assert np.abs(got.ravel() / singles - 1.0).max() <= 1e-12


P_MIN = 1e-16


def mp_phi_kernel(lam, t):
    """int_{p_min}^inf cos(tp)(1+l^2)/(p^2+l^2) dp at 50 digits, as
    (1+l^2) [pi e^{-lt}/(2l) - int_0^{p_min} cos(tp)/(p^2+l^2) dp], the
    short integral by mpmath quadrature with the cosine kept."""
    with mp.workdps(50):
        lam, t, p_min = mp.mpf(lam), mp.mpf(t), mp.mpf(P_MIN)
        lo = min(lam, p_min)
        pts = sorted({mp.mpf(0), p_min, *(lo * 10 ** k for k in
                                          range(int(mp.log10(p_min / lo)) + 1))})
        head = mp.quad(lambda p: mp.cos(t * p) / (p * p + lam * lam), pts)
        return float((1 + lam ** 2) * (mp.pi * mp.exp(-lam * t) / (2 * lam)
                                       - head))


def mp_uniform_atom_phi(a, b, c, lam, w, t):
    """2 int_{p_min}^inf cos(tp) psi_big(p) dp of c on (a, b) plus w at lam,
    psi_big in closed form: mpmath quadrature on [p_min, 1] and quadosc on
    the tail."""
    with mp.workdps(20):
        a, b, c, lam, w, t = (mp.mpf(v) for v in (a, b, c, lam, w, t))

        def psi(p):
            dens = c * ((b - a) + (1 - p ** 2) / p * (mp.atan(b / p)
                                                      - mp.atan(a / p)))
            return (dens + w * (1 + lam ** 2) / (p ** 2 + lam ** 2)) / mp.pi

        f = lambda p: mp.cos(t * p) * psi(p)
        head = mp.quad(f, [mp.mpf(P_MIN), 1e-8, 1e-4, 1e-2, 1])
        return float(2 * (head + mp.quadosc(f, [1, mp.inf], omega=t)))


class TestPhiAgainstMpmath:
    """phi_from_psi by Fubini and the closed-form kernel, against
    QUADPACK-free references."""

    @pytest.mark.parametrize("lam", [1e-20, 1e-16, 1e-12, 1.0, 1e6])
    def test_kernel_identity(self, lam):
        t = np.array([0.0, 1e-3, 8.0])
        got = _phi_kernel(np.array([lam]), t)[0]
        want = np.array([mp_phi_kernel(lam, s) for s in t])
        assert np.abs(got / want - 1.0).max() <= 1e-12

    def test_atom_at_zero(self):
        # psi_big = 0.3/(pi p^2): the parent's quadrature gave phi(0) = 0.0116
        nu = BoundaryMeasure(atom0=0.3)
        t = np.array([0.0, 0.5, 1.0, 3.0])
        got = phi_from_psi(nu, t)
        with mp.workdps(40):
            want = [float(2 / mp.pi * 0.3 * (mp.cos(s * P_MIN) / P_MIN
                                              - s * (mp.pi / 2
                                                     - mp.si(s * P_MIN))))
                    for s in t]
        assert np.abs(got / want - 1.0).max() <= 1e-12

    def test_atom_at_zero_certifies(self):
        ok, _ = rp_certify(BoundaryMeasure(atom0=0.3, atoms=[(1.0, 1.0)]),
                           (0.0, 0.5, 1.0, 2.0, 4.0))
        assert ok

    def test_uniform_plus_atom_density(self):
        a, b, c, lam, w = 0.4, 2.9, 1.1, 1.7, 0.6
        nu = BoundaryMeasure(atoms=[(lam, w)],
                             density=[DensityPiece(a, b, expr=repr(c))])
        t = np.array([0.5, 3.0])
        want = [mp_uniform_atom_phi(a, b, c, lam, w, s) for s in t]
        assert np.abs(phi_from_psi(nu, t) / want - 1.0).max() <= 1e-12

    def test_atom_at_infinity(self):
        # psi_big = 2/(1+p^2) + 1/pi: the constant adds -(2/pi) p_min for t > 0
        nu = BoundaryMeasure(atom_inf=1.0, atoms=[(1.0, math.pi)])
        for t in (0.5, 2.0):
            assert abs(phi_from_psi(nu, t) / (2 * math.pi * math.exp(-t))
                       - 1.0) <= 1e-12


class TestPhiDivergence:
    def test_atom_at_infinity_at_zero(self):
        nu = BoundaryMeasure(atom_inf=1.0, atoms=[(1.0, 1.0)])
        with pytest.raises(ValueError, match="diverges"):
            phi_from_psi(nu, 0.0)
        with pytest.raises(ValueError, match="diverges"):
            rp_certify(nu, (0.0, 1.0))

    def test_lebesgue_at_zero(self):
        # psi_big ~ 1/p at large p, so int psi_big dp diverges
        nu = lebesgue_cauchy_measure()
        with pytest.raises(ValueError, match="diverges"):
            phi_from_psi(nu, np.array([0.0, 1.0]))
        assert math.isfinite(phi_from_psi(nu, 0.5))


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
            warnings.simplefilter("error")
            _, _, dev = os_isometry_check(lebesgue_cauchy_measure(), q, q)
        assert dev < 1e-6

    @pytest.mark.parametrize("measure", [expo_measure, table_measure])
    def test_density_deviates_at_roundoff(self, measure):
        # expo reaches down to l = 1e-12, toward which F_nu grows; the table
        # density is a control away from l = 0
        q = KernelCombination([(1.0, 1j)])
        assert os_isometry_check(measure(), q, q)[2] <= 1e-12

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
        # on a density both checks read the boundary phase from the
        # measure's one cache, and their passes share panels: after an
        # os-check, the fixed-point pass computes fewer phase points than it
        # does alone.  Counted in phase points, as the engine takes them in
        # batches
        points = []
        phase = hardyrp.symbols.boundary_phase_difference
        monkeypatch.setattr(
            hardyrp.symbols, "boundary_phase_difference",
            lambda K, x: points.append(np.size(x)) or phase(K, x))
        f = KernelCombination([(1.0, 1j)])

        def fixed_point_points(after_os_check):
            nu = BoundaryMeasure(atoms=[(1.0, 1.0)],
                                 density=[DensityPiece(0.5, 2.0, expr="1")])
            if after_os_check:
                os_isometry_check(nu, f, f)
            points.clear()
            fixed_point_deviation(nu, default_anchors(6))
            return sum(points)

        alone = fixed_point_points(False)
        assert 0 < fixed_point_points(True) < alone

    def test_atom_only_checks_use_residues(self, monkeypatch):
        # h_nu and F_nu of atoms are rational: both pairings are residue
        # sums, with no boundary pairing, no phase and no quadrature pass, and
        # each check solves the secular equation of its measure once
        calls = []

        def spy(module, name):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, **kwargs: (
                calls.append(name) or real(*args, **kwargs)))

        spy(hardyrp.hankel, "_boundary_pairing")
        spy(hardyrp.symbols, "boundary_phase_difference")
        spy(hardyrp.symbols, "_secular_roots")
        for module in (hardyrp.hankel, hardyrp.measures, hardyrp.symbols):
            spy(module, "integrate_batched")
        f = KernelCombination([(1.0, 1j), (0.5, -1.0 + 2j)])
        atoms = [(0.2, 2.0), (1.0, 1.0), (3.0, 0.5)]
        _, _, dev = os_isometry_check(BoundaryMeasure(atoms=atoms), f, f)
        assert calls == ["_secular_roots"] and dev <= 1e-14
        dev = fixed_point_deviation(BoundaryMeasure(atoms=atoms),
                                    default_anchors(6))
        assert calls == ["_secular_roots"] * 2 and dev <= 1e-14

    def test_endpoint_control_is_half_the_constant(self):
        # F_nu = a for an atom at infinity alone: the form pairs Q_z with
        # the constant as a symmetric principal value, a/2, exactly
        for mass in (math.pi, 0.8, 1e4):
            a = math.sqrt(mass / math.pi)
            dev = fixed_point_deviation(BoundaryMeasure(atom_inf=mass),
                                        default_anchors(6))
            assert dev == a / 2


ENDPOINT_ATOM = BoundaryMeasure(atom0=1.0, atoms=[(1.0, 1.0)])
NO_ANCHORS = "at least one kernel anchor is required"
SYMBOL_POINTS = "the symbol requires finite nonzero p"
INPUT_CHECKS = {
    "anchor count": (lambda: HankelGram((1j, 2j), np.eye(3), np.eye(3)),
                     "Gram matrices must match the anchor count"),
    "mass matrix not Hermitian": (
        lambda: HankelGram((1j, 2j), np.eye(2), [[1, 1], [0, 1]]),
        "mass matrix is not Hermitian"),
    "clustered anchors": (
        lambda: pencil_eigenvalues(gram_from_measure(
            BoundaryMeasure(atoms=[(1.0, 1.0)]), (1j, 1j + 1e-7))),
        "mass matrix is near-singular; re-select anchors"),
    "gram endpoint atom": (lambda: gram_from_measure(ENDPOINT_ATOM, [1j, 2j]),
                           "the form measure must be supported on (0, inf)"),
    "symbol endpoint atom": (lambda: symbol_from_measure(ENDPOINT_ATOM, 1.0),
                             "the form measure must be supported on (0, inf)"),
    "symbol at NaN": (
        lambda: symbol_from_measure(BoundaryMeasure(atoms=[(1.0, 1.0)]),
                                    np.array([1.0, np.nan])),
        SYMBOL_POINTS),
    "symbol at inf on a density": (
        lambda: symbol_from_measure(two_lebesgue(), np.inf), SYMBOL_POINTS),
    "symbol at 0": (
        lambda: symbol_from_measure(two_lebesgue(), 0.0), SYMBOL_POINTS),
    "compactness endpoint atom": (
        lambda: compactness_check(BoundaryMeasure(atom_inf=1.0)),
        "the form measure must be supported on (0, inf)"),
    "phi time too large": (
        lambda: phi_from_psi(BoundaryMeasure(atoms=[(1.0, 1.0)]), 1e9),
        "phi_from_psi needs t p_min <= 1e-8"),
    "os check on zero measure": (
        lambda: os_isometry_check(BoundaryMeasure(),
                                  KernelCombination([(1.0, 1j)]),
                                  KernelCombination([(1.0, 1j)])),
        "the zero measure has no symbol"),
    "rp_certify without times": (
        lambda: rp_certify(BoundaryMeasure(atoms=[(1.0, 1.0)]), []),
        "times must not be empty"),
    "gram infinite anchor": (
        lambda: gram_from_measure(BoundaryMeasure(atoms=[(1.0, 1.0)]),
                                  [complex(np.inf, 1.0), 2j]),
        "kernel anchors must be finite"),
    "gram NaN anchor": (
        lambda: gram_from_measure(BoundaryMeasure(atoms=[(1.0, 1.0)]),
                                  [complex(1.0, np.nan)]),
        "kernel anchors must be finite"),
    "symbol gram infinite anchor": (
        lambda: gram_from_symbol(np.sign, [complex(np.inf, 1.0)]),
        "kernel anchors must be finite"),
    "HankelGram infinite anchor": (
        lambda: HankelGram((complex(1.0, np.inf),), np.eye(1), np.eye(1)),
        "kernel anchors must be finite"),
    "fixed point infinite anchor": (
        lambda: fixed_point_deviation(BoundaryMeasure(atoms=[(1.0, 1.0)]),
                                      [complex(np.inf, 1.0)]),
        "kernel anchors must be finite"),
    "gram without anchors": (
        lambda: gram_from_measure(BoundaryMeasure(atoms=[(1.0, 1.0)]), []),
        NO_ANCHORS),
    "symbol gram without anchors": (
        lambda: gram_from_symbol(np.sign, []), NO_ANCHORS),
    "HankelGram without anchors": (
        lambda: HankelGram((), np.eye(0), np.eye(0)), NO_ANCHORS),
    "fixed point without anchors": (
        lambda: fixed_point_deviation(
            BoundaryMeasure(atoms=[(1.0, 1.0), (2.0, 1.0)]), []),
        NO_ANCHORS),
    "fixed point without anchors on a density": (
        lambda: fixed_point_check(BoundaryMeasure(density=[DensityPiece(
            0.5, 2.0, expr="1")]), ()),
        NO_ANCHORS),
    "fixed point NaN anchor on a density": (
        lambda: fixed_point_check(BoundaryMeasure(density=[DensityPiece(
            0.5, 2.0, expr="1")]), [complex(np.nan, 1.0)]),
        "kernel anchors must be finite"),
}


@pytest.mark.parametrize("call, says", INPUT_CHECKS.values(),
                         ids=INPUT_CHECKS.keys())
def test_input_checks(call, says):
    with pytest.raises(ValueError, match=re.escape(says)):
        call()
