import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hardyrp import numerics
from hardyrp.numerics import (
    CurveSample,
    QuadratureConfig,
    QuadratureError,
    UnderSampledCurveError,
    integrate_batched,
    sorted_unique,
    winding_number,
)


class TestIntegrateBatched:
    def test_vector_closed_forms(self):
        def f(s):
            return np.stack([np.exp(s), np.cos(5.0 * s), 1.0 / (1.0 + s * s)],
                            axis=1)

        val = integrate_batched(f, -3.0, 3.0, QuadratureConfig(1e-13, 1e-13))
        want = [2.0 * math.sinh(3.0), 0.4 * math.sin(15.0),
                2.0 * math.atan(3.0)]
        assert np.abs(val - want).max() < 1e-13

    def test_polynomials_exact_on_one_panel(self):
        # one Kronrod panel integrates degree 31 exactly, so the first pass
        # converges on degree 19 (the Gauss rule is exact there too)
        calls = []

        def f(s):
            calls.append(s.size)
            return np.stack([s ** k for k in range(0, 20, 2)], axis=1)

        val = integrate_batched(f, -1.0, 1.0, QuadratureConfig())
        assert calls == [0, 21]
        assert np.abs(val - [2.0 / (k + 1) for k in range(0, 20, 2)]).max() \
            < 1e-15

    def test_each_component_meets_its_relative_tolerance(self):
        # magnitudes 1e30 apart: a max-norm test would leave the small,
        # sharply peaked component at the large one's absolute tolerance
        def f(s):
            return np.stack([1e15 * np.exp(-s * s),
                             1e-15 / (1e-4 + s * s)], axis=1)

        val = integrate_batched(f, -3.0, 3.0,
                                QuadratureConfig(1e-300, 1e-10))
        want = np.array([1e15 * math.sqrt(math.pi) * math.erf(3.0),
                         1e-15 * 2.0 * math.atan(300.0) / 1e-2])
        assert np.abs(val / want - 1.0).max() < 1e-10

    def test_breakpoints_are_initial_panel_edges(self):
        # |s - 0.3| and a line are exact on the two panels split at the
        # kink, so the first pass, 2 panels of 21 nodes, converges
        calls = []

        def f(s):
            calls.append(s.size)
            return np.stack([np.abs(s - 0.3), 2.0 * s], axis=1)

        val = integrate_batched(f, -1.0, 1.0, QuadratureConfig(),
                                breakpoints=(0.3, 5.0))
        assert sum(calls) == 42
        assert np.abs(val - [0.5 * (1.3 ** 2 + 0.7 ** 2), 0.0]).max() < 1e-15

    @pytest.mark.parametrize("m", [2, 2048])
    def test_one_probe_call_then_one_call_per_pass(self, monkeypatch, m):
        # the first call, on zero nodes, reveals the component count; after
        # it a pass, the first partition included, is one call on all its
        # panels, or calls of at most _BLOCK values when one would hold more
        passes, calls = [], []
        real = numerics._gk_panels
        monkeypatch.setattr(numerics, "_gk_panels", lambda f, lo, hi, m:
                            passes.append(lo.size) or real(f, lo, hi, m))
        c = np.geomspace(1e-4, 1.0, m)

        def f(s):
            calls.append(s.size)
            return 1.0 / (c + (s * s)[:, None])

        val = integrate_batched(f, -1.0, 1.0, QuadratureConfig(1e-12, 1e-10),
                                breakpoints=(-0.5, 0.5))
        assert np.abs(val / (2.0 * np.arctan(1.0 / np.sqrt(c)) / np.sqrt(c))
                      - 1.0).max() < 1e-10
        assert len(passes) > 2 and calls[0] == 0
        if 21 * m * max(passes) <= numerics._BLOCK:
            assert calls[1:] == [21 * n for n in passes]
        else:
            assert max(calls) * m <= numerics._BLOCK
            assert sum(calls) == 21 * sum(passes)

    def test_no_components_give_an_empty_result(self):
        # the zero-node call alone: no panel is evaluated
        calls = []

        def f(s):
            calls.append(s.size)
            return np.empty((s.size, 0))

        val = integrate_batched(f, 0.0, 1.0, QuadratureConfig(),
                                breakpoints=(0.5,))
        assert val.shape == (0,) and calls == [0]

    def test_sorted_unique_matches_np_unique(self):
        rng = np.random.default_rng(3)
        for x in (np.empty(0), np.array([2.0]), rng.integers(0, 9, 40) / 4,
                  np.array([-0.0, 0.0, np.inf, -np.inf, 1e-300, 1e-300])):
            assert sorted_unique(x).tolist() == np.unique(x).tolist()

    def test_first_partition_counts_against_the_budget(self):
        # 16 first panels, each exact for a line, are over a budget of 8
        with pytest.raises(QuadratureError, match="budget of 8") as info:
            integrate_batched(lambda s: s[:, None], 0.0, 16.0,
                              QuadratureConfig(max_subdivisions=8),
                              breakpoints=np.arange(1.0, 16.0))
        assert info.value.value[0] == 128.0

    def test_non_integrable_raises_with_partial_value(self):
        # 1/s on (0, 1) diverges: the panel budget runs out, loudly
        cfg = QuadratureConfig(1e-10, 1e-10, max_subdivisions=64)
        with pytest.raises(QuadratureError) as info:
            integrate_batched(lambda s: np.stack([1.0 / s, s], axis=1),
                              0.0, 1.0, cfg)
        err = info.value
        assert err.value.shape == (2,)
        assert np.isfinite(err.value).all() and err.value[0] > 10.0
        assert abs(err.value[1] - 0.5) < 1e-14
        assert err.error > cfg.abs_tol


def line_integral(f, breakpoints=()):
    """int_R f(x) dx through integrate_batched on x = tan(theta); f maps an
    array of x to an (n, m) array."""
    def g(theta):
        x = np.tan(theta)
        return f(x) * (1.0 + x * x)[:, None]

    return integrate_batched(g, -math.pi / 2, math.pi / 2,
                             QuadratureConfig(1e-12, 1e-10),
                             [math.atan(b) for b in breakpoints])


class TestIntegrateLine:
    """Integrals over the whole real line, through integrate_batched."""

    def test_gaussian(self):
        val = line_integral(lambda x: np.exp(-x * x)[:, None])
        assert abs(val[0] - math.sqrt(math.pi)) < 1e-10

    def test_cauchy_density(self):
        val = line_integral(lambda x: (1.0 / (1.0 + x * x))[:, None])
        assert abs(val[0] - math.pi) < 1e-10

    def test_log_singularity(self):
        # int |log|x|| / (1+x^2) dx = 4 * Catalan's constant; log-type
        # singularities at 0 and at both ends of the tangent map
        val = line_integral(
            lambda x: (np.abs(np.log(np.abs(x))) / (1 + x * x))[:, None],
            breakpoints=(0.0,))
        assert abs(val[0] - 3.6638623767088760) < 1e-8

    def test_complex_integrand(self):
        def f(x):
            v = 1.0 / (x - 1j) ** 2
            return np.stack([v.real, v.imag], axis=1)

        val = line_integral(f)
        assert abs(complex(*val)) < 1e-9

    def test_shifted_peak_with_breakpoint(self):
        a = 3.0
        val = line_integral(lambda x: (1.0 / ((x - a) ** 2 + 1e-6))[:, None],
                            breakpoints=(a,))
        assert abs(val[0] - math.pi / 1e-3) / (math.pi / 1e-3) < 1e-8


class TestWindingNumber:
    @pytest.mark.parametrize("k", [-3, -1, 0, 1, 2, 5])
    def test_circle_powers(self, k):
        t = np.linspace(0, 2 * np.pi, 4096)
        curve = CurveSample(np.exp(1j * k * t) * (2.0 + np.cos(t)),
                            exclusion_radius=1e-9)
        assert winding_number(curve) == k

    def test_undersampled_rejected(self):
        t = np.linspace(0, 2 * np.pi, 8)
        curve = CurveSample(np.exp(10j * t), exclusion_radius=1e-9,
                            closure_tol=1.0)
        with pytest.raises(UnderSampledCurveError):
            winding_number(curve)

    def test_origin_exclusion(self):
        t = np.linspace(0, 2 * np.pi, 512)
        with pytest.raises(ValueError):
            CurveSample(1e-15 * np.exp(1j * t), exclusion_radius=1e-9)


# QUADPACK call sites allowed per module of the library: none, every
# module integrates through integrate_batched.
QUAD_CALL_BUDGET = {}


def quad_call_sites(path: Path) -> int:
    """Calls of a name or attribute `quad` in a source file.

    The inert `quad = None` bindings the benchmark's tracer rebinds are
    assignments, not calls, and are not counted.
    """
    tree = ast.parse(path.read_text())
    return sum(1 for node in ast.walk(tree)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None))
               == "quad")


class TestQuadpackBudget:
    def test_call_sites_within_budget(self):
        src = Path(__file__).resolve().parents[1] / "src" / "hardyrp"
        counts = {p.stem: quad_call_sites(p) for p in sorted(src.glob("*.py"))}
        assert "kernels" in counts      # the glob found the package
        over = {m: c for m, c in counts.items()
                if c > QUAD_CALL_BUDGET.get(m, 0)}
        assert not over, f"raw quad( calls over budget: {over}"


INPUT_CHECKS = {
    "zero absolute tolerance": (lambda: QuadratureConfig(abs_tol=0.0),
                                "tolerances must be positive"),
    "negative relative tolerance": (lambda: QuadratureConfig(rel_tol=-1e-8),
                                    "tolerances must be positive"),
    "budget below 8": (lambda: QuadratureConfig(max_subdivisions=7),
                       "max_subdivisions must be >= 8"),
    "three samples": (lambda: CurveSample([1.0, 1j, 1.0]),
                      "curve needs at least 4 samples"),
    "open curve": (lambda: CurveSample([1.0, 1j, -1.0, -1j]),
                   "curve is not closed within tolerance"),
}


@pytest.mark.parametrize("call, says", INPUT_CHECKS.values(),
                         ids=INPUT_CHECKS.keys())
def test_input_checks(call, says):
    with pytest.raises(ValueError, match=re.escape(says)):
        call()
