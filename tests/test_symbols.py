import cmath
import dataclasses
import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyrp import hankel, measures, symbols
from hardyrp.hankel import default_anchors, os_isometry_check
from hardyrp.hardy import KernelCombination
from hardyrp.measures import (
    BoundaryMeasure,
    DensityPiece,
    lebesgue_cauchy_measure,
    psi_big,
    total_mass,
)
from hardyrp.symbols import (
    BoundaryModulus,
    boundary_phase_difference,
    f_nu,
    f_nu_axis,
    f_nu_boundary,
    h_nu,
    h_nu_symbol,
    lambda_eval,
    log_integral,
    out_eval,
    out_on_axis,
    t_map,
)

CATALAN4 = 3.6638623767088760


def modulus_cases():
    # (modulus, closed form of its outer function)
    return [
        (BoundaryModulus.power_law(1.0), lambda z: -1j * z),
        (BoundaryModulus.power_law(-1.0), lambda z: 1j / z),
        (BoundaryModulus.power_law(-0.5),
         lambda z: (1 + 1j) / np.sqrt(2 * z)),
        (BoundaryModulus(lambda p: 1 + p * p, (), True, "1+p^2"),
         lambda z: -(z + 1j) ** 2),
        (BoundaryModulus(lambda p: abs(p) / (1 + p * p), (0.0,), True,
                         "|p|/(1+p^2)"),
         lambda z: 1j * z / (z + 1j) ** 2),
        (BoundaryModulus(lambda p: 1 / math.sqrt(1 + p * p), (), True,
                         "1/sqrt(1+p^2)"),
         lambda z: 1j / (z + 1j)),
    ]


class TestOuterEval:
    @pytest.mark.parametrize("case", range(6))
    def test_closed_forms(self, case):
        K, exact = modulus_cases()[case]
        for z in (2j, 0.5 + 1j, -1.5 + 0.3j, 3.0 + 0.1j):
            got = out_eval(1.0, K, z)
            want = exact(z)
            assert abs(got - want) <= 1e-6 * abs(want), (K.name, z)

    def test_log_integral_of_abs(self):
        assert abs(log_integral(BoundaryModulus.power_law(1.0))
                   - CATALAN4) < 1e-8

    def test_refuses_boundary_points(self):
        K = BoundaryModulus.power_law(1.0)
        with pytest.raises(ValueError):
            out_eval(1.0, K, 1.0 + 1e-4j)

    def test_refuses_non_unimodular_constant(self):
        K = BoundaryModulus.power_law(1.0)
        with pytest.raises(ValueError):
            out_eval(2.0, K, 1j)

    def test_axis_formula_agrees(self):
        K = BoundaryModulus(lambda p: 1 + p * p, (), True)
        for lam in (0.5, 1.0, 2.0):
            v = out_on_axis(K, lam)
            w = out_eval(1.0, K, 1j * lam)
            assert abs(v - abs(w)) < 1e-6 * v

    def test_float_only_modulus_on_arrays(self):
        # an fn that rejects arrays is evaluated node by node
        K = BoundaryModulus(lambda p: 1 / math.sqrt(1 + p * p), (), True)
        p = np.array([0.0, 1.0, -3.0])
        assert np.abs(K.log(p) + 0.5 * np.log1p(p * p)).max() < 1e-15
        z = np.array([2j, 0.5 + 1j, -1.5 + 0.3j, 1e-9 + 1e-9j, 1e9j])
        want = 1j / (z + 1j)
        assert np.abs(out_eval(1.0, K, z) / want - 1.0).max() < 1e-12

    def test_array_matches_points(self):
        K = BoundaryModulus(lambda p: abs(p) / (1 + p * p), (0.0,), True)
        z = np.array([[2j, 0.5 + 1j], [-1.5 + 0.3j, 3.0 + 1e-3j]])
        got = out_eval(1.0, K, z)
        assert got.shape == z.shape
        for zj, gj in zip(z.ravel(), got.ravel()):
            assert abs(out_eval(1.0, K, zj) - gj) < 1e-12 * abs(gj)
        lam = np.array([1e-8, 1.0, 1e8])
        axis = out_on_axis(K, lam)
        assert axis.shape == lam.shape
        assert [out_on_axis(K, l) for l in lam] == pytest.approx(axis, 1e-12)

    def test_small_and_large_points(self):
        # the refusal is relative below |z| = 1: 1e-12 (0.6 + 0.8i) is far
        # from the boundary, 1e-12 + 1e-17i is not
        K = BoundaryModulus.power_law(-1.0)
        z = np.array([1e-12 * (0.6 + 0.8j), 1e12 * (-0.6 + 0.8j)])
        assert np.abs(out_eval(1.0, K, z) / (1j / z) - 1.0).max() < 1e-12
        with pytest.raises(ValueError):
            out_eval(1.0, K, 1e-12 + 1e-17j)

    @pytest.mark.parametrize("a", [1.0, -3.0, 0.2])
    def test_non_even_modulus(self, a):
        # |p - a + i| is the modulus of the outer function z - a + i; Out
        # is its multiple that is positive at i
        K = BoundaryModulus(lambda p: np.sqrt((p - a) ** 2 + 1.0), (), False)
        z = np.array([2j, 0.5 + 1j, -1.5 + 0.3j, 3.0 + 1e-3j,
                      1e-6 * (1 + 1j), 1e6 * (-1 + 0.5j)])
        want = (z - a + 1j) * abs(2j - a) / (2j - a)
        assert np.abs(out_eval(1.0, K, z) / want - 1.0).max() < 1e-12
        # log|p - (a - i)| is harmonic in the upper half-plane, so its
        # Poisson integral at i is log|2i - a|
        assert abs(log_integral(K) - 0.5 * math.pi * math.log(4 + a * a)) \
            < 1e-12
        with pytest.raises(ValueError):
            out_on_axis(K, 1.0)

    def test_modulus_multiplicativity(self):
        # Out(K1 K2) = Out(K1) Out(K2)
        K1 = BoundaryModulus.power_law(1.0)
        K2 = BoundaryModulus(lambda p: 1 / math.sqrt(1 + p * p), (), True)
        z = 1.0 + 1.5j
        lhs = out_eval(1.0, K1 * K2, z)
        rhs = out_eval(1.0, K1, z) * out_eval(1.0, K2, z)
        assert abs(lhs - rhs) < 1e-6 * abs(rhs)


class TestMeasureSymbols:
    def test_lebesgue_axis(self):
        # F(il)^2 = 1/l
        nu = lebesgue_cauchy_measure()
        for lam in (0.5, 1.0, 2.0):
            assert abs(f_nu_axis(nu, lam) ** 2 * lam - 1.0) < 1e-5

    def test_lebesgue_symbol_is_i_sgn(self):
        nu = lebesgue_cauchy_measure()
        for x in (0.3, 1.5, -2.0):
            assert abs(h_nu(nu, x) - 1j * np.sign(x)) < 1e-5

    def test_atom_at_zero_symbol_is_minus_one(self):
        nu = BoundaryMeasure(atom0=math.pi)
        for x in (0.5, 2.0, -1.0):
            assert abs(h_nu(nu, x) + 1.0) < 1e-8

    def test_atom_at_infinity_symbol_is_one(self):
        nu = BoundaryMeasure(atom_inf=math.pi)
        for x in (0.5, -2.0):
            assert abs(h_nu(nu, x) - 1.0) < 1e-12

    def test_zero_measure_rejected(self):
        with pytest.raises(ValueError):
            f_nu(BoundaryMeasure())

    @given(atoms=st.lists(
        st.tuples(st.floats(0.1, 10.0), st.floats(0.05, 3.0)),
        min_size=1, max_size=3, unique_by=lambda t: round(t[0], 6)),
        x=st.floats(0.05, 8.0))
    @settings(max_examples=25, deadline=None)
    def test_symbol_unimodular_and_flat(self, atoms, x):
        nu = BoundaryMeasure(atoms=atoms)
        hx = h_nu(nu, x)
        assert abs(abs(hx) - 1.0) < 1e-14
        assert abs(np.conj(h_nu(nu, -x)) - hx) < 1e-14

    def test_symbol_scale_invariant(self):
        nu = BoundaryMeasure(atoms=[(0.7, 1.0), (2.0, 0.5)])
        assert abs(h_nu(nu, 1.3) - h_nu(nu.scaled(5.0), 1.3)) < 1e-10

    def test_symbol_function_wrapper(self):
        nu = BoundaryMeasure(atoms=[(1.0, 1.0)])
        h = h_nu_symbol(nu)
        x = np.array([0.5, -0.5, 2.0])
        assert h.unimodular_defect(x) < 1e-14
        assert h.flat_defect(x) < 1e-14

    def test_boundary_value_modulus(self):
        nu = BoundaryMeasure(atoms=[(1.0, 2.0), (3.0, 1.0)])
        x = 1.7
        v = f_nu_boundary(nu, x)
        assert abs(abs(v) ** 2 - psi_big(nu, x)) < 1e-13
        # h = F(x)/F(-x) on the boundary
        assert abs(v / f_nu_boundary(nu, -x) - h_nu(nu, x)) < 1e-12

    def test_boundary_phase_odd(self):
        K = BoundaryModulus(lambda p: 1 + p * p, (), True)
        assert boundary_phase_difference(K, 1.5) == \
            -boundary_phase_difference(K, -1.5)


DECADES = np.array([1e-12, 1e-6, 1e-2, 1.0, 1e2, 1e6, 1e12])


def mp_phase(atoms, x, dps=30):
    """-(4x/pi) int_0^inf (L(p) - L(x)) / (p^2 - x^2) dp in mpmath, with
    L = log sqrt(psi_big) of an atomic measure in closed form."""
    with mp.workdps(dps):
        def L(p):
            return mp.log(sum(w * (1 + l * l) / (p * p + l * l)
                              for l, w in atoms) / mp.pi) / 2

        x = mp.mpf(x)
        Lx = L(x)
        pts = sorted({mp.mpf(0), x} | {mp.mpf(l) for l, _ in atoms})
        def f(p):
            d = p * p - x * x      # tanh-sinh nodes can round onto p = x
            return (L(p) - Lx) / d if d else mp.mpf(0)

        val = mp.quad(f, pts + [mp.inf])
        return float(-4 * x / mp.pi * val)


# -- mpmath oracles: exact psi_big, 30 digits, no QUADPACK --------------------
# expo and cauchy: an atom plus a density on [1e-12, inf)

EPS = 1e-12
EXPO = {"atoms": [(2.0, 0.5)],
        "density": [DensityPiece(EPS, np.inf, expr="exp(-lam)")]}
CAUCHY = {"atoms": [(1.0, 1.0)],
          "density": [DensityPiece(EPS, np.inf, expr="2/(1+lam**2)")]}


@functools.lru_cache(maxsize=None)
def mp_psi_expo(p):
    """psi_big of EXPO at p > 0 in closed form."""
    eps = mp.mpf(EPS)
    if p > 1e15:
        # (1+l^2)/(p^2+l^2) = sum_k (-1)^k (1+l^2) l^{2k} / p^{2k+2}; the
        # moments are incomplete gamma functions, four terms reach 1e-90
        tot = 0
        for k in range(4):
            m = (mp.mpf(5) / 2 * 4 ** k + mp.gammainc(2 * k + 1, eps)
                 + mp.gammainc(2 * k + 3, eps))
            tot += (-1) ** k * m / p ** (2 * k + 2)
        return tot / mp.pi
    # (1+l^2)/(p^2+l^2) = 1 + (1-p^2)/(p^2+l^2), and int_eps^inf
    # e^{-l}/(l^2+p^2) dl = Im(e^{-ip} E1(eps - ip)) / p; the sum cancels
    # to about 1/p^2, so the digits lost there are carried extra
    with mp.extradps(int(2 * max(0, mp.log10(p))) + 10):
        j = mp.im(mp.exp(-1j * p) * mp.e1(eps - 1j * p)) / p
        v = (mp.mpf(5) / 2 / (p * p + 4) + mp.exp(-eps) + (1 - p * p) * j)
    return +v / mp.pi


def mp_psi_cauchy(p):
    """psi_big of CAUCHY at p > 0: 2/(pi(1+p^2)) + (2/pi) arctan(p/eps)/p."""
    return 2 / (mp.pi * (1 + p * p)) + 2 / mp.pi * mp.atan(p / EPS) / p


ORACLES = {"expo": (EXPO, mp_psi_expo), "cauchy": (CAUCHY, mp_psi_cauchy)}
# fixed breakpoints, so psi values repeat across the oracle's integrals
MP_GRID = [mp.mpf(10) ** k for k in range(-16, 17, 2)]


def mp_outer(psi, z, dps=30):
    """Out(sqrt(psi))(z) = exp((1/(pi i)) int_0^inf 2z/(p^2-z^2) log
    sqrt(psi(p)) dp), the Herglotz integral of an even modulus."""
    with mp.workdps(dps):
        z = mp.mpc(z)
        pts = sorted(set(MP_GRID) | {abs(z)})
        val = mp.quad(lambda p: z / (p * p - z * z) * mp.log(psi(p)),
                      [0] + pts + [mp.inf])
        return complex(mp.exp(val / (mp.pi * 1j)))


def mp_measure_phase(psi, x, dps=30):
    """-(4x/pi) int_0^inf (L(p) - L(x)) / (p^2 - x^2) dp, L = log sqrt(psi)."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        Lx = mp.log(psi(x)) / 2

        def f(p):
            d = p * p - x * x
            return (mp.log(psi(p)) / 2 - Lx) / d if d else mp.mpf(0)

        pts = sorted(set(MP_GRID) | {x, mp.mpf(1)})
        return float(-4 * x / mp.pi * mp.quad(f, [0] + pts + [mp.inf]))


class TestOuterAgainstMpmath:
    @pytest.mark.parametrize("name", ["expo", "cauchy"])
    def test_axis(self, name):
        spec, psi = ORACLES[name]
        lam = np.array([1e-12, 1.0, 1e12])
        got = f_nu_axis(BoundaryMeasure(**spec), lam)
        want = np.array([mp_outer(psi, 1j * l).real for l in lam])
        assert np.abs(got / want - 1.0).max() < 1e-12

    @pytest.mark.parametrize("name", ["expo", "cauchy"])
    def test_out_eval(self, name):
        spec, psi = ORACLES[name]
        z = np.array([1e-12 * (0.6 + 0.8j), -0.8 + 0.6j, 1e12 * (0.6 + 0.8j)])
        got = f_nu(BoundaryMeasure(**spec))(z)
        want = np.array([mp_outer(psi, zj) for zj in z])
        assert np.abs(got / want - 1.0).max() < 1e-12

    def test_axis_near_5e4_on_expo(self):
        # the per-point tangent-map quadrature was off by up to 3.5e-5 here
        lam = np.array([5e4, 6e4, 7e4])
        got = f_nu_axis(BoundaryMeasure(**EXPO), lam)
        want = np.array([mp_outer(mp_psi_expo, 1j * l).real for l in lam])
        assert np.abs(got / want - 1.0).max() < 1e-12

    def test_cauchy_symbol_matches_exact_phase(self):
        x = np.array([1e-6, -1e-2, 0.7, -3.0, 1e2, 1e6])
        got = h_nu(BoundaryMeasure(**CAUCHY), x)
        want = np.exp(1j * np.array([mp_measure_phase(mp_psi_cauchy, xj)
                                     for xj in x]))
        assert np.abs(got - want).max() <= 1e-12


class TestBoundaryPhase:
    @pytest.mark.parametrize("a", [1.0, -1.0, -0.5])
    def test_power_law_is_minus_a_pi(self, a):
        # Out(|p|^a) = (-iz)^a: the phase difference is -a pi at every x > 0
        K = BoundaryModulus.power_law(a)
        got = boundary_phase_difference(K, DECADES)
        assert np.abs(got + a * np.pi).max() < 1e-10
        for x in DECADES:
            assert abs(boundary_phase_difference(K, x) + a * np.pi) < 1e-10
            assert abs(boundary_phase_difference(K, -x) - a * np.pi) < 1e-10

    def test_inverse_sqrt_is_two_arctan(self):
        K = BoundaryModulus(lambda p: 1.0 / np.sqrt(1.0 + p * p), (), True)
        got = boundary_phase_difference(K, DECADES)
        assert np.abs(got - 2.0 * np.arctan(DECADES)).max() < 1e-10
        x = np.array([[0.5, -3.0], [-1e-6, 1e9]])
        assert np.abs(boundary_phase_difference(K, x)
                      - 2.0 * np.arctan(x)).max() < 1e-10

    def test_three_atoms_against_mpmath(self):
        atoms = [(0.4, 1.0), (1.3, 0.35), (3.2, 2.0)]
        nu = BoundaryMeasure(atoms=atoms)
        x = np.array([1e-4, 1e-2, 0.7, 3.0, 1e2, 1e4])
        want = np.array([mp_phase(atoms, xj) for xj in x])
        assert np.abs(np.angle(h_nu(nu, x)) - want).max() < 1e-10

    def test_lebesgue_far_out_is_i(self):
        # psi = 1/|p| for the Cauchy density: the symbol is i sgn(x) at
        # every magnitude, also beyond the log-spline window
        nu = lebesgue_cauchy_measure()
        assert abs(h_nu(nu, 1e8) - 1j) < 1e-8
        assert abs(h_nu(nu, -1e8) + 1j) < 1e-8

    def test_zero_rejected(self):
        K = BoundaryModulus.power_law(1.0)
        with pytest.raises(ValueError):
            boundary_phase_difference(K, np.array([1.0, 0.0]))


class TestDensityModulus:
    def test_arrays_match_floats_at_extreme_p(self):
        # 3 on (1, 2): psi(p) -> 4.5/pi as p -> 0 and 10/(pi p^2) as p -> inf
        nu = BoundaryMeasure(density=[DensityPiece(1.0, 2.0, expr="3")])
        K = f_nu(nu).K
        p = np.geomspace(1e-30, 1e30, 61)
        got = K.fn(p)
        assert np.abs(got / [K(q) for q in p] - 1.0).max() < 1e-13
        assert abs(K(1e-30) ** 2 * np.pi / 4.5 - 1.0) < 1e-6
        assert abs(K(1e30) ** 2 * np.pi * 1e60 / 10.0 - 1.0) < 1e-6

    @pytest.mark.parametrize("density", [
        {"density": [DensityPiece(1e-12, np.inf, expr="2.6/(1.69+lam**2)")]},
        {"atoms": [(1.7, 0.6)], "density": [DensityPiece(0.4, 2.9, expr="1.1")]},
    ])
    def test_modulus_is_sqrt_of_array_psi_big(self, density, monkeypatch):
        # K on a density is sqrt(psi_big) of the array route: f_nu builds
        # nothing, and an array of nodes is one batched psi_big call with no
        # scalar quad (the mass of the envelope clamp is a batched pass too);
        # its values equal a fresh measure's array values and agree with
        # its one-point calls
        quads = []
        real = measures.quad

        def counted(*args, **kwargs):
            quads.append(args)
            return real(*args, **kwargs)

        nu = BoundaryMeasure(**density)
        p = np.exp(np.linspace(-40.0, 40.0, 501))
        with monkeypatch.context() as m:
            m.setattr(measures, "quad", counted)
            K = f_nu(nu).K
            assert not quads
            got = K.fn(p)
        assert not quads
        fresh = BoundaryMeasure(**density)
        assert np.array_equal(got, np.sqrt(psi_big(fresh, p)))
        floats = BoundaryMeasure(**density)
        want = np.array([psi_big(floats, float(q)) for q in p[::8]])
        assert np.abs(got[::8] ** 2 / want - 1.0).max() < 1e-13


# -- atom-only measures: the rational form of sqrt(psi_big) ------------------

def clustered_atoms():
    """64 atoms in two tight clusters, weights from 2e-5 to 1: some zeros of
    the numerator lie 2e-7 from a pole."""
    lam = np.concatenate([1.0 + 0.002 * np.arange(32),
                          3.0 + 0.005 * np.arange(32)])
    w = 0.5 + 0.5 * np.cos(np.arange(64.0))
    return BoundaryMeasure(atoms=zip(lam.tolist(), w.tolist()))


RATIONAL = {
    "atom0": lambda: BoundaryMeasure(atom0=0.8),
    "atom_inf": lambda: BoundaryMeasure(atom_inf=0.8),
    "ends": lambda: BoundaryMeasure(
        atom0=0.7, atom_inf=0.3, atoms=[(0.2, 2.0), (1.0, 1.0), (3.0, 0.5)]),
    # eigvalsh alone misses a zero by 6e-8 relative here
    "wide": lambda: BoundaryMeasure(
        atom_inf=1e-3, atoms=[(1e-3, 1.0), (1.0, 1.0), (1e3, 1.0)]),
    "clustered": clustered_atoms,
}
X = np.array([1e-6, -1e-3, 0.3, -1.0, 2.5, -40.0, 1e4])
Z = np.array([1e-6 * (0.6 + 0.8j), -0.8 + 0.6j, 1j, 2.0 + 0.01j,
              1e6 * (-0.6 + 0.8j)])
LAM = np.array([1e-6, 0.05, 1.0, 2.9, 1e6])
# the clustered numerator has degree 63 and roots 2e-7 from a pole: at 100
# digits polyroots still misses them by 6e-11, at 200 it meets them
ROOT_DPS = 200


@functools.lru_cache(maxsize=None)
def mp_rational(name):
    """(a, zeros, r, poles) of sqrt(psi_big) of RATIONAL[name] in mpmath:
    the numerator of pi psi_big in P = p^2 expanded from the atoms, its
    roots -r_k by polyroots from one guess inside each interval the r_k
    interlace."""
    nu = RATIONAL[name]()
    with mp.workdps(ROOT_DPS):
        pairs = [(mp.mpf(l), w * (1 + mp.mpf(l) ** 2))
                 for l, w in nu.atoms if w > 0]
        if nu.atom0 > 0:
            pairs.append((mp.mpf(0), mp.mpf(nu.atom0)))
        pairs.sort()
        poles = [l for l, _ in pairs]
        d = [l * l for l, _ in pairs]
        c = [ci for _, ci in pairs]
        b = mp.mpf(nu.atom_inf)
        full = [mp.mpf(1)]                    # prod (P + d_j), highest first
        for dj in d:
            full = [x + dj * y for x, y in zip(full + [0], [0] + full)]
        num = [b * x for x in full]
        for ci, di in zip(c, d):              # c_i full / (P + d_i)
            q = [full[0]]
            for x in full[1:-1]:
                q.append(x - di * q[-1])
            for k, x in enumerate(q):
                num[k + 1] += ci * x
        guesses = [-(u + v) / 2 for u, v in zip(d, d[1:])]
        if b == 0:
            num = num[1:]
        elif d:
            guesses.append(-(d[-1] + sum(c) / (2 * b)))
        roots = []
        if len(num) > 1:
            roots = mp.polyroots(num, maxsteps=100, extraprec=600,
                                 roots_init=guesses)
        r = sorted(-mp.re(x) for x in roots)
        return mp.sqrt(num[0] / mp.pi), [mp.sqrt(x) for x in r], r, poles


def mp_closed_form(form, z=(), lam=(), x=(), dps=30):
    """F(z) = a prod(-iz + s_k) / prod(-iz + l_i), F(i lam) and the phase
    2 (sum atan(x/l_i) - sum atan(x/s_k)), in dps digits."""
    a, zeros, _, poles = form
    with mp.workdps(dps):
        def F(w):
            return a * mp.fprod(w + s for s in zeros) / mp.fprod(
                w + l for l in poles)

        return (np.array([complex(F(-1j * mp.mpc(v))) for v in z]),
                np.array([float(F(mp.mpf(v))) for v in lam]),
                np.array([float(2 * (mp.fsum(mp.atan2(v, l) for l in poles)
                                     - mp.fsum(mp.atan2(v, s) for s in zeros)))
                          for v in x]))


def derived(nu):
    """h_nu, f_nu, f_nu_axis and the t_map weights of one fresh measure."""
    return (h_nu(nu, X), f_nu(nu)(Z), f_nu_axis(nu, LAM),
            np.array([w for _, w in t_map(nu).atoms]))


class TestRationalAtoms:
    @pytest.mark.parametrize("name", list(RATIONAL))
    def test_matches_quadrature_path(self, name, monkeypatch):
        nu = RATIONAL[name]()
        assert f_nu(nu).K.rational is not None
        h, F, axis, tw = derived(nu)
        real = symbols._sqrt_psi_modulus
        monkeypatch.setattr(
            symbols, "_sqrt_psi_modulus",
            lambda m: dataclasses.replace(real(m), rational=None))
        qh, qF, qaxis, qtw = derived(RATIONAL[name]())
        assert np.abs(h - qh).max() <= 1e-12
        assert np.abs(F / qF - 1.0).max() <= 1e-12
        assert np.abs(axis / qaxis - 1.0).max() <= 1e-12
        assert np.abs(tw / qtw - 1.0).max(initial=0.0) <= 1e-12

    @pytest.mark.parametrize("name", list(RATIONAL))
    def test_matches_mpmath_closed_form(self, name):
        nu = RATIONAL[name]()
        form = mp_rational(name)
        F, axis, phase = mp_closed_form(form, Z, LAM, X)
        h, got_F, got_axis, tw = derived(nu)
        assert np.abs(h - np.exp(1j * phase)).max() <= 1e-14
        assert np.abs(got_F / F - 1.0).max() <= 1e-14
        assert np.abs(got_axis / axis - 1.0).max() <= 1e-14
        lam = np.array([l for l, _ in nu.atoms])
        w = np.array([w for _, w in nu.atoms])
        _, at_atoms, _ = mp_closed_form(form, lam=lam)
        want = w * (1.0 + lam * lam) / (lam * at_atoms ** 2)
        assert np.abs(tw / want - 1.0).max(initial=0.0) <= 1e-14

    def test_endpoint_symbols(self):
        assert np.abs(h_nu(RATIONAL["atom0"](), X) + 1.0).max() <= 1e-15
        assert np.abs(h_nu(RATIONAL["atom_inf"](), X) - 1.0).max() == 0.0

    def test_massless_atoms_rejected(self):
        with pytest.raises(ValueError):
            h_nu(BoundaryMeasure(atoms=[(1.0, 0.0)]), 1.0)

    def test_clustered_roots_interlace_and_match_polyroots(self):
        nu = clustered_atoms()
        _, zeros, poles = f_nu(nu).K.rational
        r = np.array(zeros) ** 2
        d = np.array(poles) ** 2
        assert r.size == d.size - 1
        assert ((d[:-1] < r) & (r < d[1:])).all()
        want = np.array([float(x) for x in mp_rational("clustered")[2]])
        assert np.abs(r / want - 1.0).max() <= 1e-14

    def test_product_and_quotient_of_rational_moduli(self):
        K1 = f_nu(BoundaryMeasure(atoms=[(0.5, 1.0), (2.0, 3.0)])).K
        K2 = f_nu(BoundaryMeasure(atom0=0.4, atoms=[(1.5, 0.7)])).K
        z = np.array([0.3 + 0.2j, -2.0 + 1.0j, 5j])
        for K, want in ((K1 * K2, out_eval(1.0, K1, z) * out_eval(1.0, K2, z)),
                        (K1 / K2, out_eval(1.0, K1, z) / out_eval(1.0, K2, z))):
            assert K.rational is not None
            got = out_eval(1.0, K, z)
            assert np.abs(got / want - 1.0).max() <= 1e-12
            # the form describes K.fn: the quadrature of fn agrees
            bare = dataclasses.replace(K, rational=None)
            assert np.abs(got / out_eval(1.0, bare, z) - 1.0).max() <= 1e-12

    def test_product_with_a_modulus_without_form_has_none(self):
        K = f_nu(BoundaryMeasure(atoms=[(1.0, 1.0)])).K
        P = BoundaryModulus.power_law(0.5)
        assert P.rational is None
        for prod in (K * P, P * K, K / P, P / K):
            assert prod.rational is None
        z = 1.0 + 1.0j
        assert abs(out_eval(1.0, K * P, z)
                   / (out_eval(1.0, K, z) * out_eval(1.0, P, z)) - 1.0) < 1e-10


def mp_kernel(f, z):
    """The kernel combination f at the mpc z, in mpmath."""
    return mp.fsum(mp.mpc(c) * 1j / (2 * mp.pi * (z - mp.conj(mp.mpc(w))))
                   for c, w in f.terms)


class TestResiduePairings:
    # the two pairings of hankel on atoms against 30-digit mpmath values
    # from the 200-digit roots: the os pairing as the residue sum of h_nu
    # in the unpaired form, the fixed-point pairing from F_nu(z)
    F = KernelCombination([(1.0, 1j), (0.4 - 0.3j, -0.7 + 0.5j)])
    G = KernelCombination([(0.8 + 0.1j, 2j), (-0.6, 1.5 + 0.3j)])
    ANCHORS = np.array([*default_anchors(6), *Z])

    @pytest.mark.parametrize("name", list(RATIONAL))
    def test_os_pairing_matches_mpmath(self, name):
        a, zeros, _, poles = mp_rational(name)
        got, _, dev = os_isometry_check(RATIONAL[name](), self.F, self.G)
        with mp.workdps(30):
            want = mp.mpc(0)
            for l in poles:
                if l == 0:
                    continue    # a constant factor -1 of h_nu: no residue
                # -2 pi i Res h_nu at x = -i l
                rho = 4 * mp.pi * l * mp.fprod(
                    (s - l) / (s + l) for s in zeros) * mp.fprod(
                    (m + l) / (m - l) for m in poles if m != l)
                il = mp.mpc(0, l)
                want += rho * mp.conj(mp_kernel(self.F, il)) * mp_kernel(
                    self.G, il)
            want = complex(want)
        assert abs(got - want) <= 1e-13 * abs(want)
        assert dev <= 1e-13

    @pytest.mark.parametrize("name", list(RATIONAL))
    def test_fixed_point_pairing_matches_mpmath(self, name):
        # <Q_z, H F> = F(z) less the principal values of F's parts outside
        # H^2: a/2 for the constant a (as many zeros as poles), and c/(2z)
        # for a pole c/x at x = 0, c = i a prod s_k / prod_{l_j > 0} l_j
        a, zeros, _, poles = mp_rational(name)
        K = f_nu(RATIONAL[name]()).K
        got = hankel._residue_fixed_point(K, self.ANCHORS)
        F, _, _ = mp_closed_form(mp_rational(name), self.ANCHORS)
        with mp.workdps(30):
            at_zero = 1j * a * mp.fprod(zeros) / mp.fprod(
                l for l in poles if l > 0) if 0 in poles else 0
            want = np.array([
                complex(mp.mpc(Fz) - (a / 2 if len(zeros) == len(poles)
                                       else 0) - at_zero / (2 * mp.mpc(z)))
                for Fz, z in zip(F, self.ANCHORS)])
        assert np.abs(got / want - 1.0).max() <= 1e-13


class TestTMap:
    def test_lebesgue_doubles(self):
        # T nu = 2 Lebesgue for the Cauchy-density example
        tnu = t_map(lebesgue_cauchy_measure())
        for lam in (0.5, 3.0):
            assert abs(tnu.density[0](lam) - 2.0) < 1e-4

    def test_scale_invariance(self):
        nu = BoundaryMeasure(atoms=[(0.7, 1.0), (2.0, 0.5)])
        t1 = t_map(nu)
        t2 = t_map(nu.scaled(4.0))
        assert abs(total_mass(t1) - total_mass(t2)) < 1e-8

    def test_endpoint_atoms_annihilated(self):
        nu = BoundaryMeasure(atom0=1.0, atom_inf=1.0, atoms=[(1.0, 1.0)])
        tnu = t_map(nu)
        assert tnu.atom0 == 0.0 and tnu.atom_inf == 0.0


class TestLambda:
    def test_boundary_modulus(self):
        for x in (0.5, -2.0, 7.0):
            assert abs(abs(lambda_eval(x)) - abs(x) / (1 + x * x)) < 1e-14

    def test_interior_value(self):
        z = 1 + 1j
        assert abs(lambda_eval(z) - 1j * z / (z + 1j) ** 2) < 1e-15

    def test_matches_outer_of_its_modulus(self):
        # Lambda is the outer function of |x|/(1+x^2)
        K = BoundaryModulus(lambda p: abs(p) / (1 + p * p), (0.0,), True)
        z = 0.5 + 2j
        assert abs(out_eval(1.0, K, z) - lambda_eval(z)) < 1e-7
