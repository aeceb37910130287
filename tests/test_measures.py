import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardyrp import measures, numerics
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
from hardyrp.numerics import QuadratureConfig, QuadratureError

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

    @pytest.mark.parametrize("samples", [
        [[0.5, 1.0], [1.0, -5.0]], [[0.5, 1.0], [1.0, float("nan")]],
        [[0.5, 1.0], [float("inf"), 1.0]]])
    def test_table_samples_validated(self, samples):
        with pytest.raises(ValueError, match="table samples"):
            DensityPiece(0.5, 2.0, "table", samples=samples)

    def test_negative_closed_form_rejected_where_evaluated(self):
        # a formula's sign shows only at its nodes
        nu = BoundaryMeasure(density=[
            DensityPiece(0.5, 2.0, expr="1 - lam")])
        with pytest.raises(ValueError, match="negative"):
            psi_big(nu, 1.0)

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

    def test_cached_computes_each_missing_key_once(self):
        # one call per lookup with uncached keys, on those keys sorted and
        # without repeats; the values come back in the shape of the keys
        nu = BoundaryMeasure(atoms=[(1.0, 1.0)])
        calls = []

        def double(keys):
            calls.append(keys.tolist())
            return 2.0 * keys

        got = nu.cached("double", np.array([[3.0, 1.0], [3.0, 2.0]]), double)
        assert got.tolist() == [[6.0, 2.0], [6.0, 4.0]]
        assert nu.cached("double", np.array([2.0, 5.0]), double).tolist() \
            == [4.0, 10.0]
        assert nu.cached("double", 1.0, double) == 2.0
        assert calls == [[1.0, 2.0, 3.0], [5.0]]

    def test_cached_matches_a_dict_of_floats(self):
        # the sorted-array tables against the dict they replaced, on keys
        # drawn with repeats from a pool, in several shapes, over many calls
        rng = np.random.default_rng(3)
        pool = np.concatenate([rng.lognormal(size=40), [0.0, 1e300, np.inf]])
        nu = BoundaryMeasure(atoms=[(1.0, 1.0)])
        table = {}
        for shape in [(), (1,), (7,), (3, 4), (50,), (2, 2, 5)] * 4:
            keys = rng.choice(pool, size=shape)
            todo = sorted({k for k in np.ravel(keys).tolist()} - set(table))
            seen = []

            def compute(new):
                seen.append(new.tolist())
                return 1.0 / (1.0 + new)

            got = nu.cached("inv", keys, compute)
            table.update((k, 1.0 / (1.0 + k)) for k in todo)
            assert seen == ([todo] if todo else [])
            assert got.shape == np.shape(keys)
            assert np.ravel(got).tolist() == [table[k] for k in
                                              np.ravel(keys).tolist()]


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

    def test_float_equals_one_element_array_in_either_order(self):
        # both calls fill and read one cache, so a float and an array must
        # be the same number whichever a fresh measure meets first
        float_first, array_first = (BoundaryMeasure(density=[DensityPiece(
            1e-12, np.inf, expr="2/(1+lam**2)")]) for _ in range(2))
        x = psi_big(float_first, 0.3)
        y = psi_big(array_first, np.array([0.3]))[0]
        assert type(x) is float and x == y
        assert psi_big(float_first, np.array([0.3]))[0] == x
        assert psi_big(array_first, 0.3) == y

    @pytest.mark.parametrize("nu", [
        BoundaryMeasure(atom0=0.3, atoms=[(0.4, 1.0), (6.0, 2.0)]),
        lebesgue_cauchy_measure()], ids=["atoms", "density"])
    def test_array_likes(self, nu):
        # a list once raised TypeError in float(); h_nu and out_eval took it
        want = psi_big(nu, np.array([1.0, 2.0]))
        assert psi_big(nu, [1.0, 2.0]).tolist() == want.tolist()
        assert psi_big(nu, (1.0, 2.0)).tolist() == want.tolist()
        for scalar in (np.float64(2.0), np.array(2.0), 2):
            x = psi_big(nu, scalar)
            assert type(x) is float and x == want[1]
        assert psi_big(nu, []).shape == (0,)

    @pytest.mark.parametrize("transform", [
        total_mass, lambda nu: psi_big(nu, 0.5), lambda nu: psi_big(nu, 1e120)],
        ids=["mass", "psi_big", "psi_big beyond the cut"])
    def test_infinite_mass_density_raises(self, transform):
        # int_1^inf dl/l diverges: QUADPACK returned a finite number with
        # only an IntegrationWarning
        nu = BoundaryMeasure(density=[DensityPiece(1.0, np.inf, expr="1/lam")])
        with pytest.raises(ValueError, match="diverges"):
            transform(nu)

    def test_beyond_the_cut_on_a_finite_mass_is_a_numerical_failure(self):
        # the integrand 2/(p^2 + l^2) l^2 is about 2/l at the cut l = e^300,
        # above 1e-12 of psi_big ~ 1/p once p nears 1e120: this once raised
        # the ValueError of a divergent mass, though the mass is pi
        nu = lebesgue_cauchy_measure()
        with pytest.raises(RuntimeError, match=re.escape(
                "psi_big at p = 1e+120 is beyond the reach of the density "
                "cut l = e^300, though the mass is finite")):
            psi_big(nu, np.array([1.0, 1e120]))
        assert abs(psi_big(nu, 1e118) * 1e118 - 1.0) < 1e-10

    def test_infinite_mass_warns_nothing(self):
        # w (1 + l^2) overflowed in _psi_kernel with a numpy warning first
        nu = BoundaryMeasure(density=[DensityPiece(1.0, np.inf, expr="1")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(
                    "integral against the measure is not finite")):
                psi_big(nu, 1.0)

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

    def test_p_squared_underflows_without_atom_at_zero(self):
        # (1e-200)^2 is 0 in doubles; only an atom at 0 reads 1/p^2, so two
        # interior atoms give their p -> 0 limit, 3.25/pi, with no warning
        nu = BoundaryMeasure(atoms=[(1.0, 1.0), (2.0, 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert psi_big(nu, 1e-200) == pytest.approx(3.25 / math.pi,
                                                        rel=1e-15)

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


def table_rows(a=0.1, b=10.0, c=1.3, n=64):
    """n samples of c/(1+l^2), geometrically spaced on [a, b]."""
    return [[float(l), c / (1.0 + float(l) ** 2)] for l in np.geomspace(a, b, n)]


def mp_table_psi(rows, p):
    """psi_big of a linearly interpolated table, segment by segment in
    closed form: (1+l^2)/(p^2+l^2) = 1 + (1-p^2)/(p^2+l^2)."""
    with mp.workdps(40):
        p = mp.mpf(p)
        total = mp.mpf(0)
        for (l0, d0), (l1, d1) in zip(rows[:-1], rows[1:]):
            l0, d0, l1, d1 = (mp.mpf(t) for t in (l0, d0, l1, d1))
            beta = (d1 - d0) / (l1 - l0)
            alpha = d0 - beta * l0
            total += (alpha * (l1 - l0) + beta * (l1 ** 2 - l0 ** 2) / 2
                      + (1 - p ** 2) * (alpha / p * (mp.atan(l1 / p)
                                                     - mp.atan(l0 / p))
                                        + beta / 2 * mp.log((p ** 2 + l1 ** 2)
                                                            / (p ** 2 + l0 ** 2))))
        return float(total / mp.pi)


def mp_uniform_atom_psi(a, b, c, lam, w, p):
    """psi_big of c on (a, b) plus w at lam.  The arctan closed form loses
    about |log10 p^2| digits to cancellation at extreme p, all of a
    float's at p = e^40, so it is summed at 80 digits."""
    with mp.workdps(80):
        a, b, c, lam, w, p = (mp.mpf(t) for t in (a, b, c, lam, w, p))
        dens = c * ((b - a) + (1 - p ** 2) / p * (mp.atan(b / p)
                                                  - mp.atan(a / p)))
        return float((dens + w * (1 + lam ** 2) / (p ** 2 + lam ** 2)) / mp.pi)


def mp_cauchy_psi(eps, beta, c, p):
    """psi_big of 2 c beta/(beta^2+l^2) on (eps, inf), by partial fractions
    at 80 digits: the kernel times the density is
    2 c beta [A/(p^2+l^2) + B/(beta^2+l^2)]."""
    with mp.workdps(80):
        eps, beta, c, p = (mp.mpf(t) for t in (eps, beta, c, p))

        def tail(q):    # int_eps^inf dl / (q^2 + l^2)
            return (mp.pi / 2 - mp.atan(eps / q)) / q

        A = (1 - p ** 2) / (beta ** 2 - p ** 2)
        B = (beta ** 2 - 1) / (beta ** 2 - p ** 2)
        return float(2 * c * beta * (A * tail(p) + B * tail(beta)) / mp.pi)


EXTREME_P = (math.exp(-40.0), 1e-12, 1.0, 1e12, math.exp(40.0))


def psi_by_route(nu, p, route):
    if route == "float":
        return np.array([psi_big(nu, q) for q in p])
    return psi_big(nu, np.array(p))


class TestDensityRoutes:
    """psi_big of densities against mpmath references, one p per call
    ("float") and all p in one call ("array"): each p meets the tolerance
    whichever panels its pass refines."""

    @pytest.mark.parametrize("route", ["float", "array"])
    def test_table_against_exact_piecewise_linear(self, route):
        rows = table_rows()
        p = [0.05, 0.1, 0.37, 1.0, 2.9, 9.9, 40.0]
        nu = BoundaryMeasure(density=[DensityPiece(0.1, 10.0, "table",
                                                   samples=rows)])
        got = psi_by_route(nu, p, route)
        want = np.array([mp_table_psi(rows, q) for q in p])
        assert np.abs(got / want - 1.0).max() < 1e-10

    @pytest.mark.parametrize("route", ["float", "array"])
    def test_uniform_plus_atom_at_extreme_p(self, route):
        a, b, c, lam, w = 0.4, 2.9, 1.1, 1.7, 0.6
        nu = BoundaryMeasure(atoms=[(lam, w)],
                             density=[DensityPiece(a, b, expr=repr(c))])
        got = psi_by_route(nu, EXTREME_P, route)
        want = np.array([mp_uniform_atom_psi(a, b, c, lam, w, q)
                         for q in EXTREME_P])
        assert np.abs(got / want - 1.0).max() < 1e-10

    @pytest.mark.parametrize("route", ["float", "array"])
    def test_cauchy_at_extreme_p(self, route):
        eps, beta, c = 1e-12, 1.3, 0.8
        nu = BoundaryMeasure(density=[DensityPiece(
            eps, np.inf, expr=f"{2 * c * beta!r}/({beta * beta!r}+lam**2)")])
        got = psi_by_route(nu, EXTREME_P, route)
        want = np.array([mp_cauchy_psi(eps, beta, c, q) for q in EXTREME_P])
        assert np.abs(got / want - 1.0).max() < 1e-10

    @pytest.mark.parametrize("nu", [
        BoundaryMeasure(atoms=[(1.0, 1.0)], density=[DensityPiece(
            1e-12, np.inf, expr="2/(1+lam**2)")]),
        BoundaryMeasure(atoms=[(2.0, 0.5)], density=[DensityPiece(
            1e-12, np.inf, expr="exp(-lam)")]),
        BoundaryMeasure(atoms=[(1.7, 0.6)],
                        density=[DensityPiece(0.4, 2.9, expr="1.1")]),
        BoundaryMeasure(density=[DensityPiece(0.1, 10.0, "table",
                                              samples=table_rows())]),
        BoundaryMeasure(atom0=1.0, density=[DensityPiece(
            1e-300, 1e-200, expr="1e200")]),
    ], ids=["cauchy", "expo", "uniform plus atom", "table", "mass near 0"])
    def test_envelope_holds_unclamped(self, nu):
        # the kernel lies between min(1, 1/p^2) and max(1, 1/p^2), so
        # pi psi_big lies between mass times those: the quadrature keeps
        # it there to its tolerance, with no clamp.  A measure with all its
        # mass near 0 meets the lower bound for p > 1 to a few ulps
        p = np.geomspace(1e-14, 1e100, 300)
        mass = total_mass(nu)
        v = np.pi * psi_big(nu, p)
        assert (v >= mass * np.minimum(1.0, p ** -2.0) * (1 - 1e-12)).all()
        assert (v <= mass * np.maximum(1.0, p ** -2.0) * (1 + 1e-12)).all()

    def test_lebesgue_cauchy_against_its_closed_form(self):
        # (2/pi) int_eps^inf dl/(p^2+l^2) = (2/(pi p)) arctan(p/eps); the
        # form pi/2 - arctan(eps/p) cancels to 1.5e-14 at small p
        p = np.geomspace(1e-14, 1e100, 300)
        want = 2.0 / (np.pi * p) * np.arctan(p / 1e-12)
        got = psi_big(lebesgue_cauchy_measure(), p)
        assert np.abs(got / want - 1.0).max() < 1e-12

    def test_pieces_evaluate_arrays(self):
        lam = np.array([[0.5, 1.5], [2.5, 7.0]])
        ternary = DensityPiece(1.0, 3.0, expr="1.0 if lam < 2 else 0.5")
        assert ternary(lam).tolist() == [[1.0, 1.0], [0.5, 0.5]]
        const = BoundaryMeasure(density=[DensityPiece(1.0, 3.0, expr="2")])
        scaled = const.scaled(1.5).density[0]
        assert scaled(lam).tolist() == [[3.0, 3.0], [3.0, 3.0]]
        table = DensityPiece(1.0, 3.0, "table", samples=[[2.0, 1.0], [1.0, 3.0]])
        assert table(lam).tolist() == [[0.0, 2.0], [0.0, 0.0]]

    def test_array_fills_the_float_cache(self):
        nu = lebesgue_cauchy_measure()
        p = np.array([0.5, -0.5, 3.0])
        got = psi_big(nu, p)
        assert nu._cache["psi"][0].tolist() == [0.25, 9.0]
        assert got[0] == got[1] == psi_big(nu, 0.5)

    def test_array_spends_panel_budget_loudly(self, monkeypatch):
        monkeypatch.setattr(measures, "_PSI_QUADRATURE", QuadratureConfig(
            abs_tol=1e-300, rel_tol=1e-12, max_subdivisions=8))
        with pytest.raises(QuadratureError):
            psi_big(lebesgue_cauchy_measure(), np.geomspace(1e-3, 1e3, 7))

    def test_environment_sets_no_panel_budget(self, monkeypatch):
        # the panel budget is the config's alone: a variable that once
        # capped every pass at 8 panels now changes nothing
        monkeypatch.setenv("HARDYRP_MAX_PANELS", "8")
        p = np.geomspace(1e-3, 1e3, 7)
        want = (1.0 - (2.0 / np.pi) * np.arctan(1e-12 / p)) / p
        got = psi_big(lebesgue_cauchy_measure(), p)
        assert np.abs(got / want - 1.0).max() < 1e-12

    def test_first_panels_reach_the_kernels_scales(self, monkeypatch):
        # v = 0 and the graded +-2^k are first panel edges: bisecting the
        # two panels [log 1e-12, 0] and [0, 300] toward the kernels' scales
        # took 9 passes
        passes = []
        real = numerics._gk_panels
        monkeypatch.setattr(numerics, "_gk_panels", lambda f, lo, hi, m:
                            passes.append(lo.size) or real(f, lo, hi, m))
        psi_big(lebesgue_cauchy_measure(), np.geomspace(1e-3, 1e3, 7))
        assert len(passes) <= 4

    def test_kinks_finer_than_the_grading_add_no_graded_edge(self):
        kinks = np.log(np.geomspace(0.1, 10.0, 64)[1:-1]).tolist()
        lo, hi = math.log(0.1), math.log(10.0)
        assert measures._first_edges(lo, hi, kinks) == sorted([0.0, *kinks])
        assert measures._first_edges(math.log(1e-12), 300.0, []) == sorted(
            [0.0, *(s * 2.0 ** k for k in range(9) for s in (-1, 1)
                    if s * 2.0 ** k > math.log(1e-12))])

    def test_array_memory_is_chunked(self, monkeypatch):
        # every pass integrates at most _PSI_CHUNK of the keys
        widths = []
        real = measures.integrate_batched

        def spy(f, a, b, cfg, breakpoints):
            widths.append(f(np.array([0.0])).shape[1])
            return real(f, a, b, cfg, breakpoints)

        nu = BoundaryMeasure(density=[DensityPiece(0.5, 2.0, expr="1")])
        monkeypatch.setattr(measures, "integrate_batched", spy)
        psi_big(nu, np.geomspace(1e-3, 1e3, 600))
        assert widths == [256, 256, 88]


VECTOR_CFG = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-12,
                              max_subdivisions=2000)


def moments(lam):
    """(1, l, e^-l, 0) at every l: the rows of a 4-component integrand."""
    return np.stack([np.ones_like(lam), lam, np.exp(-lam),
                     np.zeros_like(lam)], axis=1)


class TestIntegrateVector:
    """BoundaryMeasure.integrate: atoms as one numpy sum, one
    batched pass per density piece, every component to its own tolerance."""

    def test_atoms_and_pieces_against_closed_forms(self):
        a, b, c = 0.4, 2.9, 1.1
        nu = BoundaryMeasure(atoms=[(1.7, 0.6), (5.0, 0.25)], density=[
            DensityPiece(a, b, expr=repr(c)),
            DensityPiece(3.0, np.inf, expr="exp(-lam)")])
        got = nu.integrate(moments, VECTOR_CFG)
        want = [0.85 + c * (b - a) + math.exp(-3.0),
                0.6 * 1.7 + 0.25 * 5.0 + c * (b * b - a * a) / 2
                + 4.0 * math.exp(-3.0),
                0.6 * math.exp(-1.7) + 0.25 * math.exp(-5.0)
                + c * (math.exp(-a) - math.exp(-b)) + math.exp(-6.0) / 2]
        assert np.abs(got[:3] / want - 1.0).max() < 1e-12
        assert got[3] == 0.0

    def test_table_against_exact_piecewise_linear(self):
        rows = table_rows()
        nu = BoundaryMeasure(density=[DensityPiece(0.1, 10.0, "table",
                                                   samples=rows)])
        got = nu.integrate(moments, VECTOR_CFG)
        mass = sum((l1 - l0) * (d0 + d1) / 2
                   for (l0, d0), (l1, d1) in zip(rows[:-1], rows[1:]))
        first = sum((l1 - l0) * (d0 * (2 * l0 + l1) + d1 * (l0 + 2 * l1)) / 6
                    for (l0, d0), (l1, d1) in zip(rows[:-1], rows[1:]))
        assert abs(got[0] / mass - 1.0) < 1e-12
        assert abs(got[1] / first - 1.0) < 1e-12

    def test_endpoint_atoms_need_their_values(self):
        nu = BoundaryMeasure(atom0=2.0, atom_inf=3.0, atoms=[(1.0, 1.0)])
        with pytest.raises(ValueError, match="at_zero"):
            nu.integrate(moments, VECTOR_CFG, at_inf=np.ones(4))
        got = nu.integrate(moments, VECTOR_CFG,
                           at_zero=[1.0, 0.0, 1.0, 0.0],
                           at_inf=[1.0, 0.0, 0.0, 0.0])
        assert got.tolist() == [6.0, 1.0, 2.0 + math.exp(-1.0), 0.0]

    def test_zero_measure_gives_zeros(self):
        assert BoundaryMeasure().integrate(
            moments, VECTOR_CFG).tolist() == [0.0] * 4
        # a piece wholly beyond the cut, and no atom, adds zeros too
        beyond = BoundaryMeasure(density=[DensityPiece(1e200, np.inf, expr="1")])
        assert beyond.integrate(moments, VECTOR_CFG).tolist() == [0.0] * 4

    def test_no_components_give_an_empty_result(self):
        # integrate_batched's zero-node call reveals m = 0 on the density
        nu = BoundaryMeasure(atoms=[(1.0, 1.0)], density=[
            DensityPiece(0.5, 2.0, expr="1")])
        got = nu.integrate(lambda lam: np.empty((lam.size, 0)), VECTOR_CFG)
        assert got.shape == (0,)

    def test_non_finite_integrand_raises(self):
        nu = BoundaryMeasure(density=[DensityPiece(0.5, 2.0, expr="1")])
        with pytest.raises(ValueError, match="not finite"):
            nu.integrate(lambda lam: np.where(lam > 1.0, np.inf, 1.0)[:, None],
                         VECTOR_CFG)

    def test_undecayed_integrand_at_the_cut_raises(self):
        # int_1^inf dl diverges; the pass alone would return e^300 - 1
        nu = BoundaryMeasure(density=[DensityPiece(1.0, np.inf, expr="1")])
        with pytest.raises(ValueError, match="diverges"):
            nu.integrate(lambda lam: np.ones((lam.size, 1)), VECTOR_CFG)
        got = nu.integrate(lambda lam: (lam ** -2.0)[:, None], VECTOR_CFG)
        assert abs(got[0] - 1.0) < 1e-12

    def test_spends_panel_budget_loudly(self):
        cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-12,
                               max_subdivisions=8)
        with pytest.raises(QuadratureError):
            lebesgue_cauchy_measure().integrate(moments, cfg)


def mp_table_small(rows, p, t):
    """psi_small(p) and phi_mu(t) of a linearly interpolated table, segment
    by segment in closed form at 40 digits: on a segment the density is
    alpha + beta l."""
    with mp.workdps(40):
        p, t = mp.mpf(p), mp.mpf(t)
        psi = phi = mp.mpf(0)
        for (l0, d0), (l1, d1) in zip(rows[:-1], rows[1:]):
            l0, d0, l1, d1 = (mp.mpf(v) for v in (l0, d0, l1, d1))
            beta = (d1 - d0) / (l1 - l0)
            alpha = d0 - beta * l0
            psi += (alpha / 2 * mp.log((l1 ** 2 + p ** 2) / (l0 ** 2 + p ** 2))
                    + beta * (l1 - l0 - p * (mp.atan(l1 / p)
                                             - mp.atan(l0 / p))))
            if t == 0:
                phi += alpha * (l1 - l0) + beta * (l1 ** 2 - l0 ** 2) / 2
            else:
                e0, e1 = mp.exp(-l0 * t), mp.exp(-l1 * t)
                phi += (alpha * (e0 - e1) / t
                        + beta * ((l0 / t + 1 / t ** 2) * e0
                                  - (l1 / t + 1 / t ** 2) * e1))
        return float(psi / mp.pi), float(phi)


class TestSmallPsiAndPhi:
    @pytest.mark.parametrize("p", [0.05, 1.0, 7.3])
    def test_psi_small_of_uniform_density(self, p):
        a, b, c = 0.4, 2.9, 1.1
        mu = BoundaryMeasure(density=[DensityPiece(a, b, expr=repr(c))])
        want = c / (2 * math.pi) * math.log((b * b + p * p) / (a * a + p * p))
        assert abs(psi_small(mu, p) / want - 1.0) < 1e-12

    @pytest.mark.parametrize("t", [0.0, 0.5, 3.0, -3.0])
    def test_phi_of_uniform_density(self, t):
        a, b, c = 0.4, 2.9, 1.1
        mu = BoundaryMeasure(density=[DensityPiece(a, b, expr=repr(c))])
        s = abs(t)
        want = c * (b - a) if s == 0 else \
            c * (math.exp(-a * s) - math.exp(-b * s)) / s
        assert abs(phi_mu(mu, t) / want - 1.0) < 1e-12

    @pytest.mark.parametrize("p, t", [(0.05, 0.0), (1.0, 0.5), (7.3, 3.0)])
    def test_table_against_exact_piecewise_linear(self, p, t):
        rows = table_rows()
        mu = BoundaryMeasure(density=[DensityPiece(0.1, 10.0, "table",
                                                   samples=rows)])
        want_psi, want_phi = mp_table_small(rows, p, t)
        assert abs(psi_small(mu, p) / want_psi - 1.0) < 1e-12
        assert abs(phi_mu(mu, t) / want_phi - 1.0) < 1e-12

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

    def test_table_kinks_are_breakpoints_of_integrate(self):
        # int l dmu for the table: QUADPACK across the kinks missed 1e-10
        rows = table_rows()
        nu = BoundaryMeasure(density=[DensityPiece(0.1, 10.0, "table",
                                                   samples=rows)])
        want = sum((l1 - l0) * (d0 * (2 * l0 + l1) + d1 * (l0 + 2 * l1)) / 6
                   for (l0, d0), (l1, d1) in zip(rows[:-1], rows[1:]))
        got = nu.integrate(lambda lam: lam[:, None], VECTOR_CFG)[0]
        assert abs(got / want - 1.0) < 1e-10

    def test_table_density(self):
        nu = load_measure({"density": [{"interval": [1.0, 2.0],
                                        "kind": "table",
                                        "samples": [[1.0, 1.0], [2.0, 1.0]]}]})
        assert abs(total_mass(nu) - 1.0) < 1e-10


ATOM0_OVERFLOW = ("psi_big overflows: the atom at 0 contributes atom0 / p^2, "
                  "which is not finite at the smallest p")
INPUT_CHECKS = {
    "unknown kind": (lambda: DensityPiece(0.5, 2.0, "spline", expr="1"),
                     "unknown density kind 'spline'"),
    "closed form without expr": (lambda: DensityPiece(0.5, 2.0),
                                 "closed-form density needs an expr"),
    "table without samples": (lambda: DensityPiece(0.5, 2.0, "table"),
                              "table density needs samples"),
    "negative scale": (lambda: BoundaryMeasure(atoms=[(1.0, 1.0)]).scaled(-1.0),
                       "scale factor must be nonnegative"),
    "psi_small at 0": (
        lambda: psi_small(BoundaryMeasure(atoms=[(1.0, 1.0)]), 0.0),
        "psi_small is undefined at p = 0"),
    "psi_big where atom0 / p^2 overflows": (
        lambda: psi_big(BoundaryMeasure(atom0=1.0, atoms=[(1.0, 1.0)]),
                        np.array([1.0, 1e-160])),
        ATOM0_OVERFLOW),
    "psi_big where p^2 underflows to 0 on an atom at 0": (
        lambda: psi_big(BoundaryMeasure(atom0=1e-300), 1e-200),
        ATOM0_OVERFLOW),
    "psi_big where atom0 / p^2 overflows on a density": (
        lambda: psi_big(BoundaryMeasure(atom0=1e300, density=[
            DensityPiece(0.5, 2.0, expr="1")]), 1e-10),
        ATOM0_OVERFLOW),
    "phi_mu with atom at infinity": (
        lambda: phi_mu(BoundaryMeasure(atom_inf=1.0), 1.0),
        "phi_mu requires no atom at infinity"),
    "psi_big at NaN": (
        lambda: psi_big(BoundaryMeasure(density=[
            DensityPiece(0.5, 2.0, expr="1")]), np.array([1.0, np.nan])),
        "psi_big is undefined at p = nan"),
    "psi_big where p^2 and l^2 both underflow to 0": (
        lambda: psi_big(BoundaryMeasure(density=[
            DensityPiece(1e-200, 1.0, expr="1")]), 1e-170),
        "integral against the measure is not finite"),
    "atom with an infinite integrand": (
        lambda: BoundaryMeasure(atoms=[(1.0, 1.0)]).integrate(
            lambda lam: np.full((lam.size, 1), np.inf), QuadratureConfig()),
        "integral against the measure is not finite"),
    "a density that is not finite": (
        lambda: psi_big(BoundaryMeasure(density=[DensityPiece(
            0.5, 2.0, expr=lambda lam: np.where(lam > 1.0, np.inf, 1.0))]),
            1.0),
        "the density on (0.5, 2) at l = "),
    "a weight that is not finite": (
        lambda: psi_big(BoundaryMeasure(density=[DensityPiece(
            0.5, 2.0, expr="1").reweighted(lambda lam: math.inf)]), 1.0),
        "the weight of the density on (0.5, 2) at l = "),
    "a negative density, evaluated alone": (
        lambda: DensityPiece(0.5, 2.0, expr="lam - 1")(np.array([2.0, 0.75])),
        "the density on (0.5, 2) is negative at l = 0.75"),
    "dump of a reweighted piece": (
        lambda: dump_measure(BoundaryMeasure(
            density=[DensityPiece(0.5, 2.0, expr="1")]).scaled(2.0)),
        "density piece is not serializable"),
}


@pytest.mark.parametrize("call, says", INPUT_CHECKS.values(),
                         ids=INPUT_CHECKS.keys())
def test_input_checks(call, says):
    with pytest.raises(ValueError, match=re.escape(says)):
        call()
