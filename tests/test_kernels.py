import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from hardyrp.kernels import (
    KernelParams,
    approx_identity,
    approx_identity_regions,
    eval_d,
    eval_dtilde,
    eval_f,
    eval_g,
    halfmass,
    sandwich_factors,
)
from hardyrp import numerics
from hardyrp.numerics import QuadratureConfig, QuadratureError, integrate_batched

# tighter than the kernel pass's tolerances: the cross-check is compared
# with a closed form
_HALFMASS_QUADRATURE = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-11)


def halfmass_quadrature(p: float, n: int) -> float:
    """halfmass by adaptive quadrature, as a cross-check of its closed
    form: one integrate_batched pass on the window, split at the peak p."""
    lo, hi = KernelParams(p, n).window
    val = integrate_batched(lambda x: eval_dtilde(p, n, x)[:, None], lo, hi,
                            _HALFMASS_QUADRATURE, breakpoints=(p,))
    return float(val[0]) / math.pi


class TestParams:
    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            KernelParams(1.0, 1)

    def test_non_integer_n_rejected(self):
        with pytest.raises(ValueError):
            KernelParams(1.0, 2.5)

    @pytest.mark.parametrize("p", [math.inf, 1e200])
    def test_point_or_its_square_not_finite_rejected(self, p):
        # 1e200 ** 2 overflows to inf
        with pytest.raises(ValueError):
            KernelParams(p, 100)

    def test_point_below_resolution_rejected(self):
        with pytest.raises(ValueError):
            KernelParams(0.05, 100)   # needs p > 1/10

    def test_window(self):
        lo, hi = KernelParams(1.0, 100).window
        assert lo == 0.9 and hi == 1.1


class TestPointwise:
    def test_g_at_zero(self):
        for n in (2, 10, 1000):
            assert eval_g(n, 0.0) == 0.0

    def test_g2_at_one(self):
        # 1/(2 * 1.25 * 1.25)
        assert abs(eval_g(2, 1.0) - 0.32) < 1e-15

    def test_g_bounded_by_inverse_n(self):
        x = np.linspace(-50.0, 50.0, 2001)
        for n in (2, 10, 10000):
            assert eval_g(n, x).max() <= 1.0 / n + 1e-15

    def test_d_symmetric(self):
        x = np.linspace(0.01, 30.0, 500)
        assert np.abs(eval_d(1.0, 100, -x) - eval_d(1.0, 100, x)).max() == 0.0

    def test_f_adds_indicator_terms(self):
        p, n = 2.0, 100
        assert abs(eval_f(p, n, 0.5)
                   - (eval_d(p, n, 0.5) + eval_g(n, 0.5) / p ** 2)) < 1e-15
        assert abs(eval_f(p, n, 3.0)
                   - (eval_d(p, n, 3.0) + eval_g(n, 3.0))) < 1e-15

    def test_dtilde_peaks_at_p(self):
        p, n = 1.0, 10000
        x = np.linspace(*KernelParams(p, n).window, 201)
        assert abs(x[np.argmax(eval_dtilde(p, n, x))] - p) < 2e-4


class TestHalfmass:
    def test_final_error_small(self):
        assert abs(halfmass(1.0, 10 ** 4) - 0.5) <= 0.02

    def test_monotone_approach(self):
        errs = [abs(halfmass(1.0, n) - 0.5) for n in (10 ** 2, 10 ** 3, 10 ** 4)]
        assert errs[0] > errs[1] > errs[2]

    def test_quadrature_cross_check(self):
        a = halfmass(2.0, 100)
        b = halfmass_quadrature(2.0, 100)
        assert abs(a - b) <= 1e-8 * abs(a)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            halfmass(0.01, 100)

    @pytest.mark.parametrize("p, n", [(0.7, 10 ** 4), (1.0, 100),
                                      (2.3, 3000), (5.0, 300)])
    def test_quadrature_meets_closed_form(self, p, n):
        assert abs(halfmass_quadrature(p, n) - halfmass(p, n)) <= 1e-12


class TestSandwich:
    def test_bounds_on_window(self):
        p, n = 1.0, 10 ** 4
        b, B = sandwich_factors(p, n)
        assert b <= 1.0 <= B
        lo, hi = KernelParams(p, n).window
        x = np.linspace(lo, hi, 102)[1:-1]   # open window
        d = eval_d(p, n, x)
        dt = eval_dtilde(p, n, x)
        assert np.all(b * dt <= d + 1e-15)
        assert np.all(d <= B * dt + 1e-15)

    def test_factors_tighten_with_n(self):
        widths = []
        for n in (10 ** 2, 10 ** 3, 10 ** 4):
            b, B = sandwich_factors(1.0, n)
            widths.append(B - b)
        assert widths[0] > widths[1] > widths[2]


def probe_functions():
    return [
        (lambda x: 1.0, 1.0, 1.0),
        (lambda x: x / (1.0 + x * x), 1.0, 0.0),
        (lambda x: x * x / (1.0 + x * x), 2.0, 4.0 / 5.0),
    ]


class TestApproxIdentity:
    @pytest.mark.parametrize("case", range(3))
    def test_matches_symmetric_average(self, case):
        phi, p, want = probe_functions()[case]
        assert abs(approx_identity(phi, p, 10 ** 4) - want) <= 0.05

    @pytest.mark.parametrize("case", range(3))
    def test_error_monotone_in_n(self, case):
        phi, p, want = probe_functions()[case]
        errs = [abs(approx_identity(phi, p, n) - want)
                for n in (10 ** 2, 10 ** 3, 10 ** 4)]
        # the odd probe cancels exactly at every n; demand no increase
        assert errs[0] >= errs[1] >= errs[2]

    def test_inner_and_outer_regions_small(self):
        inner, _, outer = approx_identity_regions(lambda x: 1.0, 1.0, 10 ** 4)
        assert abs(inner) <= 0.05 and abs(outer) <= 0.05
        inner2, _, outer2 = approx_identity_regions(lambda x: 1.0, 1.0, 10 ** 2)
        assert abs(inner) < abs(inner2) and abs(outer) < abs(outer2)


def mp_approx_identity_of_one(p, n):
    """(1/pi) int f_{p,n} over the line, by 30-digit mpmath quadrature.

    f is even, so this is (2/pi) int_0^inf f.  Panel edges sit at the
    window ends, at 1 (where f jumps) and geometrically refined toward the
    resonance at p and the bump's scale 1/n at 0, and at 2 4^k up to 4n,
    where f(x)(1 + x^2) turns from flat to decaying.
    """
    with mp.workdps(30):
        P, N = mp.mpf(p), mp.mpf(n)
        n2 = 1 / N ** 2

        def f(x):
            g = x * x / (N * (n2 + x * x) * (1 + x * x * n2))
            u = x * x - P * P - n2
            d = g * (u * (1 - x * x) + 2 * x * x * (n2 + 1)) / (u * u + 4 * x * x * n2)
            corr = 1 / (P * P) if x < 1 else (1 if x > 1 else 0)
            return d + g * corr

        r = 1 / mp.sqrt(N)
        edges = {mp.mpf(0), P - r, P, P + r, mp.mpf(1)}
        h = 1 / N
        while h < r:
            edges.update((P - h, P + h, h))
            h *= 4
        x = mp.mpf(2)
        while x < 4 * N:
            edges.add(x)
            x *= 4
        edges = sorted(edges) + [mp.inf]
        return float(2 * mp.quad(f, edges) / mp.pi)


class TestBatchedRegions:
    @pytest.mark.parametrize("p, n", [(0.7, 10 ** 4), (1.0, 100), (2.3, 3000),
                                      (0.11, 100), (3.0, 10 ** 4),
                                      (10.0, 1000)])
    def test_matches_mpmath(self, p, n):
        want = mp_approx_identity_of_one(p, n)
        assert abs(approx_identity(lambda x: 1.0, p, n) - want) <= 1e-10

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.7, 3.0])
    def test_first_panels_reach_the_kernels_scales(self, p, monkeypatch):
        # graded first edges about p, 0 and n: the four edges at
        # p -+ 1/sqrt(n), p and 1 took 5 to 12 passes of bisection
        passes = []
        real = numerics._gk_panels
        monkeypatch.setattr(numerics, "_gk_panels", lambda f, lo, hi, m:
                            passes.append(lo.size) or real(f, lo, hi, m))
        for n in (100, 300, 1000, 3000, 10000):
            passes.clear()
            approx_identity(lambda x: 1.0, p, n)
            assert len(passes) <= 2, n

    def test_unresolved_resonance_raises(self):
        # at p = 1e8 neighbouring doubles theta lie 2.2 apart in x, 2.2e4
        # resonance widths 1/n; the pass used to return a value off by 0.031
        with pytest.raises(QuadratureError):
            approx_identity(lambda x: 1.0, 1e8, 10 ** 4)

    @pytest.mark.parametrize("p, n", [(1.0, 100), (0.7, 10 ** 4), (3.0, 1000)])
    def test_odd_probe_vanishes_in_every_region(self, p, n):
        regions = approx_identity_regions(lambda x: x / (1.0 + x * x), p, n)
        assert regions == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("phi, numpy_phi", [
        (math.cos, np.cos),
        (lambda x: 1.0 / (1.0 + x * x) if x > 0 else 2.0 / (1.0 + x * x),
         lambda x: np.where(x > 0, 1.0, 2.0) / (1.0 + x * x)),
    ], ids=["float-only", "conditional"])
    def test_scalar_phi_matches_its_numpy_form(self, phi, numpy_phi):
        # phi(array) once raised TypeError or ValueError
        got = approx_identity_regions(phi, 1.0, 100)
        want = approx_identity_regions(numpy_phi, 1.0, 100)
        assert np.abs(np.subtract(got, want)).max() <= 1e-14

    @pytest.mark.parametrize("phi", [
        lambda x: math.inf, lambda x: np.where(x > 3.0, np.nan, 1.0)],
        ids=["inf", "nan"])
    def test_non_finite_phi_is_input_error(self, phi):
        # once numpy warnings, then a QuadratureError after 15082 panels
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^phi at x = \S+ is not "
                               r"finite$"):
                approx_identity(phi, 1.0, 100)

    def test_float_result_is_broadcast(self):
        p, n = 2.0, 1000
        got = approx_identity_regions(lambda x: 3.0, p, n)
        want = approx_identity_regions(lambda x: np.full_like(x, 3.0), p, n)
        assert got == want
        assert all(isinstance(v, float) for v in got)
