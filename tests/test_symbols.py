import cmath
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


class TestSplineModulus:
    def test_arrays_match_floats_inside_and_beyond_the_window(self):
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
    def test_nodes_match_float_route_of_fresh_measure(self, density,
                                                      monkeypatch):
        # the spline is built from one batched psi_big pass, whose only
        # scalar quad is the mass of the envelope clamp; its node values
        # agree with the per-point QUADPACK route of a fresh measure
        quads = []
        real = measures.quad

        def counted(*args, **kwargs):
            quads.append(args)
            return real(*args, **kwargs)

        nu = BoundaryMeasure(**density)
        with monkeypatch.context() as m:
            m.setattr(measures, "quad", counted)
            f_nu(nu)
        assert len(quads) == 1
        spl = nu._cache["logspline"]
        u = np.linspace(-40.0, 40.0, 4001)[::8]
        fresh = BoundaryMeasure(**density)
        want = np.array([psi_big(fresh, math.exp(uj)) for uj in u])
        assert np.abs(np.exp(spl(u)) / want - 1.0).max() < 1e-13


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
