import cmath
import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyrp import measures
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
