"""Command-line front-end.

Thin wrappers over the library: measure transforms, outer/symbol evaluation,
Pick-function degrees and compositions with an eigencurve plot, Hankel
certifications, and the appendix kernel demo.  Exit codes: 0 success,
1 certification negative, 2 input error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

import numpy as np

from .hankel import (
    certify_positive,
    compactness_check,
    default_anchors,
    fixed_point_check,
    gram_from_measure,
    os_isometry_check,
    rp_certify,
    symbol_from_measure,
)
from .hardy import KernelCombination
from .kernels import approx_identity, halfmass
from .measures import BoundaryMeasure, load_measure, psi_big
from .numerics import QuadratureError, UnderSampledCurveError
from .pick import (
    RationalPickFunction,
    compose_scalar,
    degree_rank,
    dump_pick,
    is_regular,
    load_pick,
    pick_eval,
    winding_counts,
)
from .symbols import f_nu, h_nu

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real)},{_fmt(z.imag)}"


def _write(out: str | None, text: str) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_floats(s: str) -> list[float]:
    return [float(t) for t in s.split(",") if t.strip()]


def _parse_complexes(s: str) -> list[complex]:
    return [complex(t) for t in s.split(",") if t.strip()]


# -- SVG plotting -------------------------------------------------------------

def polyline_svg(curves: Sequence[tuple[np.ndarray, np.ndarray]],
                 width: int = 640, height: int = 480) -> str:
    """Static SVG with axes and one polyline per (x, y) curve."""
    xs = np.concatenate([c[0] for c in curves])
    ys = np.concatenate([c[1] for c in curves])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0
    pad = 20.0

    def sx(x):
        return pad + (x - x0) / dx * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / dy * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # axes through 0 when visible, else along the frame
    ax_y = sy(0.0) if y0 <= 0.0 <= y1 else height - pad
    ax_x = sx(0.0) if x0 <= 0.0 <= x1 else pad
    parts.append(f'<line x1="{pad}" y1="{ax_y:.2f}" x2="{width - pad}" '
                 f'y2="{ax_y:.2f}" stroke="gray" stroke-width="1"/>')
    parts.append(f'<line x1="{ax_x:.2f}" y1="{pad}" x2="{ax_x:.2f}" '
                 f'y2="{height - pad}" stroke="gray" stroke-width="1"/>')
    colors = ["crimson", "steelblue", "seagreen", "darkorange"]
    for i, (cx, cy) in enumerate(curves):
        # sx and sy on whole arrays make the per-point operations in the same
        # order, so the text is unchanged; numpy scalars cost 3x the time
        px, py = sx(np.asarray(cx)).tolist(), sy(np.asarray(cy)).tolist()
        pts = " ".join(f"{x:.3f},{y:.3f}" for x, y in zip(px, py))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{colors[i % len(colors)]}" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def eigencurves(F: RationalPickFunction, xs: np.ndarray) -> np.ndarray:
    """Ascending eigenvalue branches of the Hermitian F(x), x real.

    Returns shape (len(xs), dim); pole locations must be excluded from xs.
    """
    M = pick_eval(F, np.asarray(xs, dtype=float))
    return np.linalg.eigvalsh((M + np.swapaxes(M.conj(), -1, -2)) / 2)


# -- subcommand bodies --------------------------------------------------------

def _cmd_psi(args) -> int:
    nu = load_measure(args.measure)
    ps = _parse_floats(args.points)
    lines = ["p,psi"]
    for p, v in zip(ps, psi_big(nu, np.array(ps)).tolist()):
        lines.append(f"{_fmt(p)},{_fmt(v)}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_degree(args) -> int:
    F = load_pick(args.pick)
    result = {}
    if args.method in ("rank", "both"):
        result["rank"] = degree_rank(F)
    if args.method in ("winding", "both"):
        result["winding"], result["winding_pole_count"] = winding_counts(F)
    result["regular"] = is_regular(F)
    _write(args.out, json.dumps(result) + "\n")
    return EXIT_OK


def _cmd_compose(args) -> int:
    F = compose_scalar(load_pick(args.f), load_pick(args.F), load_pick(args.g))
    _write(args.out, json.dumps(dump_pick(F)) + "\n")
    return EXIT_OK


def _cmd_plot_eigencurves(args) -> int:
    F = load_pick(args.pick)
    lo, hi = (float(t) for t in args.range.split(":"))
    xs = np.linspace(lo, hi, args.grid_size)
    locs = np.array([l for l, _ in F.poles])
    xs = xs[np.all(np.abs(xs[:, None] - locs) > 1e-9, axis=1)]
    if xs.size == 0:
        raise ValueError(f"no sample point of --range {args.range} is off "
                         "the poles")
    branches = eigencurves(F, xs)
    svg = polyline_svg([(xs, branches[:, k]) for k in range(F.dim)])
    _write(args.out, svg)
    return EXIT_OK


def _cmd_outer_eval(args) -> int:
    nu = load_measure(args.measure)
    zs = _parse_complexes(args.points)
    lines = ["z_re,z_im,F_re,F_im"]
    for z, v in zip(zs, f_nu(nu)(np.array(zs)).tolist()):
        lines.append(f"{_fmt_complex(z)},{_fmt_complex(v)}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_symbol(args) -> int:
    nu = load_measure(args.measure)
    xs = _parse_floats(args.points)
    lines = ["x,h_re,h_im"]
    for x, v in zip(xs, h_nu(nu, np.array(xs)).tolist()):
        lines.append(f"{_fmt(x)},{_fmt_complex(v)}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_symbol_from_measure(args) -> int:
    mu = load_measure(args.measure)
    ps = _parse_floats(args.points)
    lines = ["p,h_re,h_im"]
    for p, v in zip(ps, symbol_from_measure(mu, np.array(ps)).tolist()):
        lines.append(f"{_fmt(p)},{_fmt_complex(v)}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _anchors_from(args) -> tuple[complex, ...]:
    if args.anchors:
        return tuple(_parse_complexes(args.anchors))
    return default_anchors(10)


def _cmd_hankel_gram(args) -> int:
    mu = load_measure(args.measure)
    anchors = _anchors_from(args)
    g = gram_from_measure(mu, anchors)
    lines = ["# anchors: " + ";".join(_fmt_complex(z) for z in anchors)]
    for row in g.G:
        lines.append(",".join(_fmt_complex(v) for v in row))
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_certify_psd(args) -> int:
    mu = load_measure(args.measure)
    g = gram_from_measure(mu, _anchors_from(args))
    res = certify_positive(g, tol=args.tol_abs)
    _write(args.out, json.dumps(res.to_json()) + "\n")
    return EXIT_OK if res.psd else EXIT_NEGATIVE


def _cmd_rp_certify(args) -> int:
    nu = load_measure(args.measure)
    psd, min_eig = rp_certify(nu, _parse_floats(args.times))
    _write(args.out, json.dumps({"psd": psd, "min_eig": min_eig}) + "\n")
    return EXIT_OK if psd else EXIT_NEGATIVE


def _cmd_os_check(args) -> int:
    nu = load_measure(args.measure)
    f = KernelCombination([(1.0, complex(args.anchor))])
    lhs, rhs, dev = os_isometry_check(nu, f, f)
    payload = {"lhs": [lhs.real, lhs.imag], "rhs": [rhs.real, rhs.imag],
               "deviation": dev}
    _write(args.out, json.dumps(payload) + "\n")
    return EXIT_OK if dev <= args.tol_rel else EXIT_NEGATIVE


def _cmd_compactness(args) -> int:
    mu = load_measure(args.measure)
    compact = compactness_check(mu)
    _write(args.out, json.dumps({"compact": compact}) + "\n")
    return EXIT_OK if compact else EXIT_NEGATIVE


def _cmd_kernel_demo(args) -> int:
    p = args.p
    lines = ["n,halfmass_error,approx_identity_error"]
    for n in (100, 300, 1000, 3000, 10000):
        hm_err = abs(halfmass(p, n) - 0.5)
        ai_err = abs(approx_identity(lambda x: 1.0, p, n) - 1.0)
        lines.append(f"{n},{_fmt(hm_err)},{_fmt(ai_err)}")
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_fixed_point(args) -> int:
    mu = load_measure(args.measure)
    dev = fixed_point_check(mu, _anchors_from(args))
    _write(args.out, json.dumps({"deviation": dev}) + "\n")
    return EXIT_OK if dev <= args.tol_abs else EXIT_NEGATIVE


# -- argument wiring ----------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The hardyrp argument parser, built once per process and shared.

    Parsing keeps no state in the parser, and argparse looks up sys.stdout
    and sys.stderr when it prints, so one parser serves every run() call.
    """
    ap = argparse.ArgumentParser(prog="hardyrp")
    ap.add_argument("--tol-abs", type=float, default=1e-8)
    ap.add_argument("--tol-rel", type=float, default=1e-6)
    ap.add_argument("--grid-size", type=int, default=1024)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--out", default=None)
        for flag, opts in kwargs.items():
            p.add_argument("--" + flag.replace("_", "-"), **opts)
        return p

    add("psi", _cmd_psi, measure={"required": True}, points={"required": True})
    add("degree", _cmd_degree, pick={"required": True},
        method={"choices": ["rank", "winding", "both"], "default": "both"})
    add("compose", _cmd_compose, f={"required": True}, F={"required": True},
        g={"required": True})
    add("plot-eigencurves", _cmd_plot_eigencurves, pick={"required": True},
        range={"default": "-7:7"})
    add("outer-eval", _cmd_outer_eval, measure={"required": True},
        points={"required": True})
    add("symbol", _cmd_symbol, measure={"required": True},
        points={"required": True})
    add("symbol-from-measure", _cmd_symbol_from_measure,
        measure={"required": True}, points={"required": True})
    add("hankel-gram", _cmd_hankel_gram, measure={"required": True},
        anchors={"default": None})
    add("certify-psd", _cmd_certify_psd, measure={"required": True},
        anchors={"default": None})
    add("rp-certify", _cmd_rp_certify, measure={"required": True},
        times={"default": "0,0.5,1,2,4"})
    add("os-check", _cmd_os_check, measure={"required": True},
        anchor={"default": "1j"})
    add("compactness", _cmd_compactness, measure={"required": True})
    add("kernel-demo", _cmd_kernel_demo, p={"type": float, "default": 1.0})
    add("fixed-point", _cmd_fixed_point, measure={"required": True},
        anchors={"default": None})
    return ap


def run(argv: Sequence[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (FileNotFoundError, json.JSONDecodeError, KeyError,
            ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (QuadratureError, UnderSampledCurveError, RuntimeError,
            np.linalg.LinAlgError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
