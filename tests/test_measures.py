import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyrp.measures import (
    BoundaryMeasure,
    DensityPiece,
    dump_measure,
    lebesgue_cauchy_measure,
    load_measure,
    phi_mu,
    psi_big,
    psi_small,
    total_mass,
    w_map,
)

atom_lists = st.lists(
    st.tuples(st.floats(0.05, 20.0), st.floats(0.01, 5.0)),
    min_size=1, max_size=4, unique_by=lambda t: round(t[0], 6),
)


class TestConstruction:
    def test_negative_atom_rejected(self):
        with pytest.raises(ValueError):
            BoundaryMeasure(atoms=[(1.0, -0.5)])

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError):
            BoundaryMeasure(atoms=[(1.0, 1.0), (1.0, 2.0)])

    def test_atom_at_zero_location_rejected(self):
        with pytest.raises(ValueError):
            BoundaryMeasure(atoms=[(0.0, 1.0)])

    def test_density_interval_validated(self):
        with pytest.raises(ValueError):
            DensityPiece(2.0, 1.0, expr="1")

    def test_disallowed_expression_name(self):
        with pytest.raises(ValueError):
            DensityPiece(1.0, 2.0, expr="__import__('os')")

    def test_total_mass(self):
        nu = BoundaryMeasure(atom0=0.5, atom_inf=0.25,
                             atoms=[(1.0, 2.0)],
                             density=[DensityPiece(1.0, 2.0, expr="3")])
        assert abs(total_mass(nu) - (0.5 + 0.25 + 2.0 + 3.0)) < 1e-10

    def test_lebesgue_mass_is_pi(self):
        assert abs(total_mass(lebesgue_cauchy_measure()) - math.pi) < 1e-6

    def test_addition_merges_atoms(self):
        a = BoundaryMeasure(atoms=[(1.0, 1.0)])
        b = BoundaryMeasure(atoms=[(1.0, 2.0), (3.0, 1.0)])
        c = a + b
        assert dict(c.atoms) == {1.0: 3.0, 3.0: 1.0}


class TestImmutability:
    def test_cached_measure_cannot_change(self):
        # psi_big caches on the measure, so a changed measure would read
        # stale values: every change must be refused instead
        nu = BoundaryMeasure(atoms=[(1.0, 1.0)])
        before = psi_big(nu, 2.0)
        with pytest.raises(AttributeError):
            nu.atoms.append((3.0, 1.0))
        with pytest.raises(AttributeError):
            nu.atoms = [(1.0, 1.0), (3.0, 1.0)]
        with pytest.raises(AttributeError):
            nu.atom0 = 1.0
        assert psi_big(nu, 2.0) == before
        assert abs(before - 0.4 / math.pi) < 1e-15


class TestTableSamples:
    def test_rows_changed_after_construction_change_nothing(self):
        rows = [[0.5, 1.0], [2.0, 1.0]]
        piece = DensityPiece(0.5, 2.0, "table", samples=rows)
        nu = BoundaryMeasure(density=[piece])
        before, dumped = psi_big(nu, 1.0), dump_measure(nu)
        rows[1][1] = 5.0
        # a fresh measure on the same piece has an empty psi cache
        assert psi_big(BoundaryMeasure(density=[piece]), 1.0) == before
        assert dump_measure(nu) == dumped
        assert psi_big(load_measure(dump_measure(nu)), 1.0) == before


class TestPsiBig:
    def test_array_equals_float_route_on_atoms(self):
        nu = BoundaryMeasure(atom0=0.3, atom_inf=0.2,
                             atoms=[(0.4, 1.0), (1.7, 0.25), (6.0, 2.0)])
        p = np.array([-1e12, -3.0, 1e-9, 0.37, 1.0, 2.5, 1e7])
        got = psi_big(nu, p)
        assert got.shape == p.shape
        assert got.tolist() == [psi_big(nu, float(q)) for q in p]

    def test_array_on_density_goes_through_float_route(self):
        nu = BoundaryMeasure(atoms=[(1.0, 1.0)],
                             density=[DensityPiece(1.0, 2.0, expr="3")])
        p = np.array([[0.5, 2.0], [-2.0, 7.0]])
        assert psi_big(nu, p).tolist() == \
            [[psi_big(nu, q) for q in row] for row in p.tolist()]

    def test_array_rejects_zero(self):
        with pytest.raises(ValueError):
            psi_big(BoundaryMeasure(atoms=[(1.0, 1.0)]), np.array([1.0, 0.0]))

    def test_lebesgue_is_reciprocal(self):
        nu = lebesgue_cauchy_measure()
        for p in (0.5, 1.0, 3.0):
            assert abs(psi_big(nu, p) * p - 1.0) < 1e-6

    def test_atom_at_zero(self):
        nu = BoundaryMeasure(atom0=math.pi)
        for p in (0.4, 2.0):
            assert abs(psi_big(nu, p) - 1.0 / p ** 2) < 1e-12

    def test_atom_at_infinity(self):
        nu = BoundaryMeasure(atom_inf=math.pi)
        for p in (0.4, 2.0):
            assert abs(psi_big(nu, p) - 1.0) < 1e-12

    def test_even_in_p(self):
        nu = BoundaryMeasure(atoms=[(0.7, 1.0), (2.0, 0.5)])
        assert psi_big(nu, 1.3) == psi_big(nu, -1.3)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            psi_big(BoundaryMeasure(atoms=[(1.0, 1.0)]), 0.0)

    def test_scaling_linear(self):
        nu = BoundaryMeasure(atoms=[(0.7, 1.0)])
        assert abs(psi_big(nu.scaled(3.0), 1.1) - 3 * psi_big(nu, 1.1)) < 1e-12

    @given(atoms=atom_lists, p=st.floats(0.05, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_envelopes(self, atoms, p):
        # mass * min(1, 1/p^2) <= pi * psi <= mass * max(1, 1/p^2)
        nu = BoundaryMeasure(atoms=atoms)
        mass = total_mass(nu)
        v = math.pi * psi_big(nu, p)
        lo = mass * min(1.0, 1.0 / p ** 2)
        hi = mass * max(1.0, 1.0 / p ** 2)
        assert lo - 1e-12 * mass <= v <= hi + 1e-12 * mass

    @given(atoms=atom_lists, p=st.floats(0.05, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_log_bound(self, atoms, p):
        nu = BoundaryMeasure(atoms=atoms)
        mass = total_mass(nu)
        ratio = math.pi * psi_big(nu, p) / mass
        assert abs(math.log(ratio)) <= 2 * abs(math.log(p)) + 1e-10


class TestSmallPsiAndPhi:
    @given(atoms=atom_lists, p=st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_psi_big_of_w_image(self, atoms, p):
        # psi_big(W mu) = psi_small(mu)
        mu = BoundaryMeasure(atoms=atoms)
        assert abs(psi_big(w_map(mu), p) - psi_small(mu, p)) < 1e-12

    def test_phi_single_atom(self):
        mu = BoundaryMeasure(atoms=[(2.0, 3.0)])
        assert abs(phi_mu(mu, 1.5) - 3.0 * math.exp(-3.0)) < 1e-12
        assert phi_mu(mu, -1.5) == phi_mu(mu, 1.5)

    def test_fourier_relation(self):
        # int exp(-itx) psi_small(mu, x) dx = phi_mu(t)
        from scipy.integrate import quad
        mu = BoundaryMeasure(atoms=[(1.0, 1.0), (3.0, 0.5)])
        t = 0.8
        val = 2 * (quad(lambda x: math.cos(t * x) * psi_small(mu, x),
                        0, 1, limit=400)[0]
                   + quad(lambda x: psi_small(mu, x), 1, np.inf,
                          weight="cos", wvar=t)[0])
        assert abs(val - phi_mu(mu, t)) < 1e-8

    def test_psi_small_rejects_atom_at_infinity(self):
        with pytest.raises(ValueError):
            psi_small(BoundaryMeasure(atom_inf=1.0), 1.0)

    def test_w_map_rejects_endpoint_atoms(self):
        with pytest.raises(ValueError):
            w_map(BoundaryMeasure(atom0=1.0))

    def test_w_map_norm_identity(self):
        # total mass of W(mu) = int l/(1+l^2) dmu
        mu = BoundaryMeasure(atoms=[(2.0, 5.0)])
        assert abs(total_mass(w_map(mu)) - 5.0 * 2.0 / 5.0) < 1e-12


class TestSerialization:
    def test_round_trip(self):
        nu = BoundaryMeasure(atom0=0.5, atom_inf=1.0, atoms=[(1.0, 2.0)],
                             density=[DensityPiece(0.5, np.inf,
                                                   expr="1/(1+lam**2)")])
        nu2 = load_measure(dump_measure(nu))
        assert dump_measure(nu2) == dump_measure(nu)
        assert abs(psi_big(nu, 1.3) - psi_big(nu2, 1.3)) < 1e-12

    def test_inf_bound_strings(self):
        nu = load_measure('{"density": [{"interval": [1.0, "inf"], '
                          '"expr": "exp(-lam)"}]}')
        assert np.isinf(nu.density[0].b)

    def test_table_density(self):
        nu = load_measure({"density": [{"interval": [1.0, 2.0],
                                        "kind": "table",
                                        "samples": [[1.0, 1.0], [2.0, 1.0]]}]})
        assert abs(total_mass(nu) - 1.0) < 1e-10
