"""Spans and counters at hardyrp's module boundaries, installed from outside.

Tracer.install() replaces every module attribute through which a public
hardyrp function is reached, re-imported bindings such as
hankel.boundary_phase_difference and symbols.psi_big included, each module's
binding of scipy.integrate.quad, and symbols._sqrt_psi_modulus, the
log-spline build.  uninstall() puts the originals back, so untraced rounds
of the same process run the unmodified program.

A span is (name, start, end, parent span, task id); spans stay in memory and
are written once at the end.  Self time is a span's duration minus the part
covered by its child spans, accumulated as the calls return.  Counters sit
on the same boundaries: integrand evaluations per quad, density and modulus
evaluations, curve points per winding count.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import sys
import types
import warnings
from collections import Counter, defaultdict
from time import perf_counter

from scipy.integrate import IntegrationWarning

MODULES = ("cli", "measures", "symbols", "hankel", "pick", "numerics", "hardy", "kernels")
QUAD_MODULES = ("measures", "symbols", "hankel", "kernels", "numerics")
# JSON (de)serialisation and argument wiring stay in cli.run's self time
NOT_SPANNED = {"load_measure", "dump_measure", "load_pick", "dump_pick",
               "build_parser", "main"}
SPAN_CAP = 200_000   # spans kept for the trace file; aggregates see every call
QUAD_DEFAULT_TOL = 1.49e-8


def _is_public(fn) -> bool:
    home = sys.modules.get(fn.__module__)
    names = getattr(home, "__all__", None)
    if names is None:
        return not fn.__name__.startswith("_")
    return fn.__name__ in names


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.dropped = 0
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # calls, total s, self s
        self.counts: Counter = Counter()
        self.stack: list[list] = []                       # [child s, span index]
        self.task = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def span(self, fn, name, label=None):
        """fn wrapped to record a span called `name` (or label(args))."""
        stats, stack, spans = self.stats, self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = name if label is None else label(args)
            if len(spans) < SPAN_CAP:
                idx = len(spans)
                spans.append([key, 0.0, 0.0, stack[-1][1] if stack else -1, self.task])
            else:
                idx = -1
                self.dropped += 1
            frame = [0.0, idx]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                st = stats[key]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if idx >= 0:
                    spans[idx][1] = t0
                    spans[idx][2] = t1

        return wrapper

    def counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def traced_quad(self, quad, module):
        name = f"quad.{module}"
        spanned = self.span(quad, name)
        counts = self.counts

        def wrapper(func, a, b, *args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", IntegrationWarning)
                res = spanned(self.counted(func, name + ".evals"), a, b, *args, **kwargs)
            for w in caught:
                if issubclass(w.category, IntegrationWarning):
                    counts[name + ".warnings"] += 1
                else:
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            val, err = res[0], res[1]
            tol = max(kwargs.get("epsabs", QUAD_DEFAULT_TOL),
                      kwargs.get("epsrel", QUAD_DEFAULT_TOL) * abs(val))
            counts["quad.calls"] += 1
            counts["quad.converged"] += bool(err <= tol)
            return res

        return wrapper

    # -- installation -------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, pkg: dict) -> None:
        """Wrap the boundaries of the hardyrp modules in pkg (name -> module)."""
        pick, numerics, measures = pkg["pick"], pkg["numerics"], pkg["measures"]
        special = {
            "symbols._sqrt_psi_modulus": self._spline_boundary,
            "pick.compose_scalar": self._composition_boundary,
            "numerics.winding_number": self._winding_boundary,
        }
        by_input = lambda base: (lambda args: base + (
            ".rational" if isinstance(args[0], pick.RationalPickFunction) else ".callable"))
        wrapped: dict[int, object] = {}
        for mod_name in MODULES:
            mod = pkg[mod_name]
            for attr, obj in list(vars(mod).items()):
                if not (isinstance(obj, types.FunctionType)
                        and obj.__module__.startswith("hardyrp.")):
                    continue
                home = obj.__module__.split(".")[-1]
                name = f"{home}.{obj.__name__}"
                if name != "symbols._sqrt_psi_modulus" and (
                        not _is_public(obj) or obj.__name__ in NOT_SPANNED):
                    continue
                if id(obj) not in wrapped:
                    if name in special:
                        wrapped[id(obj)] = special[name](obj, name)
                    elif name in ("pick.multiplicity_winding", "pick.degree_winding"):
                        wrapped[id(obj)] = self.span(obj, name, by_input(name))
                    else:
                        wrapped[id(obj)] = self.span(obj, name)
                self._set(mod, attr, wrapped[id(obj)])
            if mod_name in QUAD_MODULES:
                self._set(mod, "quad", self.traced_quad(mod.quad, mod_name))
        self._set(measures.BoundaryMeasure, "integrate",
                  self.span(measures.BoundaryMeasure.integrate, "measures.integrate"))
        self._set(measures.DensityPiece, "__call__",
                  self.counted(measures.DensityPiece.__call__, "measures.density_evals"))
        tracer = self

        class CountedCurve(numerics.CurveSample):
            def __post_init__(self):
                tracer.counts["numerics.winding_number.attempts"] += 1
                super().__post_init__()

        self._set(pick, "CurveSample", CountedCurve)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _spline_boundary(self, fn, name):
        def build(nu):
            K = fn(nu)
            return dataclasses.replace(K, fn=self.counted(K.fn, "symbols.modulus_evals"))
        return self.span(build, name.replace("._", "."))

    def _composition_boundary(self, fn, name):
        def compose(*args, **kwargs):
            return self.counted(fn(*args, **kwargs), "pick.callable_evals")
        return self.span(compose, name)

    def _winding_boundary(self, fn, name):
        counts = self.counts

        def winding(curve):
            counts["numerics.winding_number.samples"] += len(curve.values)
            k = fn(curve)
            counts["numerics.winding_number.ok"] += 1
            return k
        return self.span(winding, name)

    # -- results --------------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped,
                                 "fields": ["name", "start", "end", "parent", "task"]}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, averaged over the traced rounds."""
        st, ct = self.stats, self.counts

        def calls(n):
            return st[n][0] / rounds, "calls/round"

        def total(n):
            return st[n][1] / rounds, "s/round"

        def self_s(n):
            return st[n][2] / rounds, "s/round"

        def count(k, unit):
            return ct[k] / rounds, unit

        def ratio(num, den):
            return (ct[num] / ct[den] if ct[den] else 1.0), "ratio"

        m = {
            "cli.run.self_s": self_s("cli.run"),
            "measures.psi_big.calls": calls("measures.psi_big"),
            "measures.psi_big.self_s": self_s("measures.psi_big"),
            "measures.integrate.calls": calls("measures.integrate"),
            "measures.integrate.self_s": self_s("measures.integrate"),
            "measures.density_evals": count("measures.density_evals", "evals/round"),
            "symbols.sqrt_psi_modulus.calls": calls("symbols.sqrt_psi_modulus"),
            "symbols.sqrt_psi_modulus.total_s": total("symbols.sqrt_psi_modulus"),
            "symbols.boundary_phase_difference.calls": calls("symbols.boundary_phase_difference"),
            "symbols.boundary_phase_difference.self_s": self_s("symbols.boundary_phase_difference"),
            "symbols.modulus_evals": count("symbols.modulus_evals", "evals/round"),
            "symbols.out_eval.calls": calls("symbols.out_eval"),
            "symbols.out_eval.self_s": self_s("symbols.out_eval"),
            "symbols.out_on_axis.calls": calls("symbols.out_on_axis"),
            "numerics.integrate_line.calls": calls("numerics.integrate_line"),
            "numerics.integrate_line.self_s": self_s("numerics.integrate_line"),
            "numerics.winding_number.calls": calls("numerics.winding_number"),
            "numerics.winding_number.samples":
                count("numerics.winding_number.samples", "samples/round"),
            "numerics.winding_number.success_ratio":
                ratio("numerics.winding_number.ok", "numerics.winding_number.attempts"),
            "pick.callable_evals": count("pick.callable_evals", "evals/round"),
            "pick.is_regular.self_s": self_s("pick.is_regular"),
            "hankel.gram_from_measure.self_s": self_s("hankel.gram_from_measure"),
            "hankel.pencil_eigenvalues.self_s": self_s("hankel.pencil_eigenvalues"),
            "hankel.phi_from_psi.calls": calls("hankel.phi_from_psi"),
            "hankel.phi_from_psi.self_s": self_s("hankel.phi_from_psi"),
            "hankel.os_isometry_check.self_s": self_s("hankel.os_isometry_check"),
            "hankel.fixed_point_deviation.self_s": self_s("hankel.fixed_point_deviation"),
            "hankel.compactness_check.self_s": self_s("hankel.compactness_check"),
            "hardy.boundary_nodes.calls": calls("hardy.boundary_nodes"),
            "hardy.boundary_nodes.self_s": self_s("hardy.boundary_nodes"),
            "kernels.approx_identity.self_s": self_s("kernels.approx_identity"),
            "kernels.halfmass.self_s": self_s("kernels.halfmass"),
            "quad.converged_ratio": ratio("quad.converged", "quad.calls"),
        }
        for fn in ("multiplicity_winding", "degree_winding"):
            for kind in ("rational", "callable"):
                m[f"pick.{fn}.{kind}.self_s"] = self_s(f"pick.{fn}.{kind}")
        for mod in QUAD_MODULES:
            q = f"quad.{mod}"
            m[q + ".calls"] = calls(q)
            m[q + ".evals"] = count(q + ".evals", "evals/round")
            m[q + ".self_s"] = self_s(q)
            m[q + ".warnings"] = count(q + ".warnings", "warnings/round")
        return m
