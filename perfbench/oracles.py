"""Reference answers for every benchmark task, and the check of each output.

References are closed forms, mpmath computations, or theorem-level facts
(PSD Gram matrices of positive measures, rank = winding = pole count, the
multiplicity a*b*c of a composition); none touches QUADPACK or hardyrp.
Tolerances are the ones tests/test_acceptance.py applies to the same
computation, cited per entry.
"""
from __future__ import annotations

import json
import math
import re
from typing import Callable, NamedTuple

import mpmath as mp
import numpy as np

from workloads import GRID, SVG_RANGE

TOL = {
    "psi": 1e-6,                  # relative; criterion 2 (|p psi - 1| <= 1e-6)
    "symbol": 1e-5,               # absolute on h_nu; criterion 2
    "outer-eval": 1e-6,           # relative; criterion 1
    "symbol-from-measure": 1e-6,  # absolute; criterion 7
    "psd": 1e-8,                  # min eigenvalue floor; CLI --tol-abs, criterion 8
    "pencil-top": 1e-4,           # relative, top pencil eigenvalue; criterion 6
    "os-check": 1e-6,             # relative; criterion 9
    "fixed-point": 1e-5,          # absolute deviation; criterion 11
    "hankel-gram": 1e-6,          # relative to max |G|; criterion 7
    "kernel": 1e-6,               # absolute on each printed error; QUADPACK default
                                  # 1.49e-8 per region, summed over seven regions
    "svg": 1e-3,                  # pixels; coordinates are printed to 3 decimals
    "integer": 0.5,               # integer and boolean answers
}


class Defect(NamedTuple):
    """An oracle miss of the seed commit, as the seed shows it.

    A miss matches when its task has this command and family, its kind starts
    with `kind` ("accuracy": answer outside tolerance, "exit N": wrong verdict,
    "exit N: <message>": no answer) and `fits(task, text, err)` holds, text
    being the program's output (None without one) and err its error over
    tolerance.  At most `per_run` matching misses of one run are recorded
    ones (None: every task of this command and family may miss).  Recorded
    misses count in `failed` like any other; only a miss outside every
    record makes a run incorrect.
    """
    cmd: str
    family: str
    kind: str
    why: str
    per_run: int | None
    fits: Callable[[dict, str | None, float | None], bool]


def _always(task, text, err):
    return True


def _within(factor):
    return lambda task, text, err: err is not None and err <= factor


def _one_short(task, text, err):
    return text is not None and int(text.strip()) == task["ref"]["degree"] - 1


# per_run is the most misses of the kind in one run of the seed at the
# benchmark's run length (BENCHMARK.json run_seconds), traced runs included;
# it is 1 for the kinds seen only with inputs perturbed by 1 % rather than
# the benchmark's 1e-6 (workloads.JITTER).
DEFECTS = (
    Defect("certify-psd", "table", "exit 1",
           "defect 1: Gram of a positive table density certified non-PSD",
           None, _always),
    Defect("psi", "table", "accuracy",
           "psi_big on a table density misses 1e-6 relative at some points "
           "(QUADPACK across the table's kinks, no breakpoints); seen up to 2.3x",
           None, _within(10.0)),
    Defect("symbol-from-measure", "table", "accuracy",
           "same quadrature across the table's kinks misses 1e-6 absolute; "
           "seen up to 5.1x",
           None, _within(10.0)),
    Defect("composition", "callable", "accuracy",
           "multiplicity_winding on a callable composition returns a*b*c - 1 "
           "(a plateau accepted above an obstruction)",
           2, _one_short),
    Defect("composition", "callable", "exit None: TaskTimeLimit",
           "multiplicity_winding on a callable composition runs for minutes: "
           "_winding_at_radius doubles the samples near an obstruction",
           1, _always),
    Defect("degree", "rational", "exit 2: error: curve is not closed",
           "degree_winding's sampled determinant fails CurveSample's closure "
           "check, reported as an input error",
           1, _always),
)


def known_failure(task, kind, text, err):
    """The recorded seed defect a miss matches, or None."""
    for d in DEFECTS:
        if ((d.cmd, d.family) == (task["cmd"], task["family"]) and kind.startswith(d.kind)
                and d.fits(task, text, err)):
            return d
    return None


RP_TIMES = (0.0, 0.5, 1.0, 2.0, 4.0)   # rp-certify default --times


# -- measures in mpmath ----------------------------------------------------------

def _atoms_psi(atoms, p):
    return sum(w * (1 + l * l) / (p * p + l * l) for l, w in atoms) / mp.pi


def _u_minus_atan(u):
    # u - atan(u) without cancellation for small u
    if u < mp.mpf("1e-3"):
        return u ** 3 / 3 - u ** 5 / 5 + u ** 7 / 7
    return u - mp.atan(u)


def _exp_over_square(a, b, k, p):
    """int_a^b exp(-k l) / (l^2 + p^2) dl for p > 0, by exponential integrals.

    With w = i p, int exp(-k l)/(l - w) dl = exp(-k w) [E1(k(a-w)) - E1(k(b-w))]
    (the path stays off the branch cut), and Im 1/(l - i p) = p/(l^2 + p^2).
    """
    w = mp.mpc(0, p)
    J = mp.exp(-k * w) * (mp.e1(k * (a - w)) - mp.e1(k * (b - w)))
    return mp.im(J) / p


def _segments(samples):
    """Linear pieces alpha*l + beta of a table density."""
    rows = [(mp.mpf(l), mp.mpf(v)) for l, v in samples]
    for (l0, v0), (l1, v1) in zip(rows[:-1], rows[1:]):
        alpha = (v1 - v0) / (l1 - l0)
        yield l0, l1, alpha, v0 - alpha * l0


def psi_ref(ref, p):
    """psi_big(nu, p) = (1/pi) int (1+l^2)/(p^2+l^2) dnu(l), p > 0."""
    p = mp.mpf(abs(p))
    fam = ref["family"]
    if fam == "cauchy":
        b, c = mp.mpf(ref["b"]), mp.mpf(ref["c"])
        return c * (1 + p * b) / (p * (p + b))
    if fam == "table":
        total = mp.mpf(0)
        for l0, l1, al, be in _segments(ref["samples"]):
            def prim(l):
                return (al * l * l / 2 + be * l + (1 - p * p)
                        * (al / 2 * mp.log(l * l + p * p) + be / p * mp.atan(l / p)))
            total += prim(l1) - prim(l0)
        return total / mp.pi
    if fam == "atoms":
        return _atoms_psi(ref["atoms"], p)
    a, b, c = mp.mpf(ref["a"]), mp.mpf(ref["b"]), mp.mpf(ref["c"])
    if fam == "uniform":
        # (b-a) + (1-p^2)/p (atan(b/p) - atan(a/p)), rearranged to stay
        # accurate at large and small p
        u = (b - a) * p / (p * p + a * b)
        dens = (b - a) * (1 + a * b) / (p * p + a * b) + (p * p - 1) / p * _u_minus_atan(u)
    else:
        k = mp.mpf(ref["k"])
        dens = ((mp.exp(-k * a) - mp.exp(-k * b)) / k
                + (1 - p * p) * _exp_over_square(a, b, k, p))
    return c * dens / mp.pi + _atoms_psi(ref["atoms"], p)


def symbol_from_measure_ref(ref, p):
    """(i/pi) int p/(l^2+p^2) dmu(l)."""
    s, p = (1 if p > 0 else -1), mp.mpf(abs(p))
    fam = ref["family"]
    if fam == "cauchy":
        val = mp.pi * ref["c"] / (p + ref["b"])
    elif fam == "table":
        val = mp.mpf(0)
        for l0, l1, al, be in _segments(ref["samples"]):
            def prim(l):
                return al * p / 2 * mp.log(l * l + p * p) + be * mp.atan(l / p)
            val += prim(l1) - prim(l0)
    else:
        a, b, c = mp.mpf(ref["a"]), mp.mpf(ref["b"]), mp.mpf(ref["c"])
        val = c * p * _exp_over_square(a, b, mp.mpf(ref["k"]), p)
        val += sum(w * p / (l * l + p * p) for l, w in ref["atoms"])
    return mp.mpc(0, s * val / mp.pi)


def phi_ref(ref, t):
    """phi(t) = int exp(-itp) psi(p) dp = int (1+l^2)/l exp(-l|t|) dnu(l)."""
    t = mp.mpf(abs(t))
    val = sum(w * (1 + l * l) / l * mp.exp(-l * t) for l, w in ref["atoms"])
    if ref["family"] in ("uniform", "exponential"):
        a, b, c = mp.mpf(ref["a"]), mp.mpf(ref["b"]), mp.mpf(ref["c"])
        k = mp.mpf(ref.get("k", 0))
        val += mp.quad(lambda l: c * mp.exp(-k * l) * (1 + l * l) / l * mp.exp(-l * t),
                       [a, b])
    return val


# -- outer functions in mpmath -----------------------------------------------------

def _log_modulus(ref):
    return lambda p: mp.log(psi_ref(ref, p)) / 2


def phase_difference_ref(ref, x):
    """arg F(x) - arg F(-x) = -(4x/pi) int_0^inf (L(p) - L(x))/(p^2 - x^2) dp."""
    L = _log_modulus(ref)
    ax = mp.mpf(abs(x))
    Lx = L(ax)
    val = mp.quad(lambda p: (L(p) - Lx) / (p * p - ax * ax), [0, ax, mp.inf])
    d = -(4 * ax / mp.pi) * val
    return d if x > 0 else -d


def outer_ref(ref, z):
    """Out(sqrt psi)(z) = exp((2z/(pi i)) int_0^inf L(p)/(p^2 - z^2) dp), L even."""
    L = _log_modulus(ref)
    z = mp.mpc(z.real, z.imag)
    val = mp.quad(lambda p: L(p) / (p * p - z * z), [0, abs(z), mp.inf])
    return mp.exp(2 * z / (mp.pi * 1j) * val)


def outer_axis_ref(ref, lam):
    """Out(sqrt psi)(i lam) = exp((2/pi) int_0^inf lam/(p^2+lam^2) L(p) dp)."""
    L = _log_modulus(ref)
    lam = mp.mpf(lam)
    val = mp.quad(lambda p: lam / (p * p + lam * lam) * L(p), [0, lam, mp.inf])
    return mp.exp(2 * val / mp.pi)


# -- Hardy-space kernels -------------------------------------------------------------

def szego(w, z):
    """Q_w(z) = (1/2pi) i/(z - conj(w))."""
    return 0.5j / math.pi / (z - np.conj(w))


def default_anchors():
    """The CLI's 10 default anchors: i, i*logspace(-1, 1, 6), 3 off-axis points."""
    axis = [1j * t for t in np.logspace(-1, 1, 6)]
    return [1j] + axis + [1.0 + 1.0j, -1.0 + 2.0j, 0.5 + 0.5j]


def gram_atoms(atoms, anchors):
    G = np.zeros((len(anchors), len(anchors)), dtype=complex)
    for l, w in atoms:
        q = np.array([szego(z, 1j * l) for z in anchors])
        G += w * np.outer(np.conj(q), q)
    return G


def pencil_top_ref(atoms, anchors):
    """Largest |eigenvalue| of the pencil (G, M), in 30-digit arithmetic."""
    with mp.workdps(30):
        def q(w, z):
            return mp.mpc(0, 1) / (2 * mp.pi) / (z - mp.conj(w))
        zs = [mp.mpc(z.real, z.imag) for z in anchors]
        n = len(zs)
        M = mp.matrix(n, n)
        G = mp.matrix(n, n)
        for j in range(n):
            for k in range(n):
                M[j, k] = q(zs[k], zs[j])
                G[j, k] = sum(mp.mpf(w) * mp.conj(q(zs[j], mp.mpc(0, l))) * q(zs[k], mp.mpc(0, l))
                              for l, w in atoms)
        Linv = mp.inverse(mp.cholesky(M))
        B = Linv * G * Linv.H
        B = (B + B.H) / 2
        ev = mp.eighe(B, eigvals_only=True)
        return float(max(abs(e) for e in ev))


# -- window kernels --------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def _graded(points, scales, lo, hi):
    """Edges on [lo, hi] refined geometrically (x2) toward each point from its scale."""
    edges = {lo, hi}
    for c, h in zip(points, scales):
        if lo < c < hi:
            edges.add(c)
        while h < hi - lo:
            edges.update(v for v in (c - h, c + h) if lo < v < hi)
            h *= 2.0
    return np.array(sorted(edges))


def _gauss(f, edges):
    """Composite 20-point Gauss-Legendre over the panels between edges."""
    a, b = edges[:-1, None], edges[1:, None]
    x = (a + b) / 2 + (b - a) / 2 * _GL_X
    return float(np.sum((b - a) / 2 * _GL_W * f(x)))


def _kernel_pieces(p, n):
    """f_{p,n} and dtilde_{p,n} from their defining formulas, vectorised."""
    n2 = 1.0 / (n * n)

    def g(x):
        return x * x / (n * (n2 + x * x) * (1 + x * x * n2))

    def f(x):
        u = x * x - p * p - n2
        d = g(x) * (u * (1 - x * x) + 2 * x * x * (n2 + 1)) / (u * u + 4 * x * x * n2)
        corr = np.where(np.abs(x) < 1, 1 / (p * p), np.where(np.abs(x) > 1, 1.0, 0.0))
        return d + g(x) * corr

    def dtilde(x):
        gt = p * x / (n * (n2 + p * p) * (1 + p * p * n2))
        u = x * x - p * p - n2
        return gt * 2 * p * p * (n2 + 1) / (u * u + 4 * p * p * n2)

    return f, dtilde


def kernel_ref(p, n):
    """(|halfmass - 1/2|, |approx_identity(1) - 1|) by graded Gauss-Legendre.

    Both kernels are rational with poles a distance ~1/n off the real axis
    at +-p (and at +-i/n), so panels halve in width toward those points; f
    is even and decays fast enough that [0, 1e14] carries the whole
    integral to 1e-13 (checked against mpmath tanh-sinh).
    """
    f, dtilde = _kernel_pieces(p, n)
    r, h = 1.0 / math.sqrt(n), 1.0 / n
    hm = _gauss(dtilde, _graded([p], [h], p - r, p + r)) / math.pi
    ai = 2.0 * _gauss(f, _graded([0.0, p, 1.0], [h, h, 1.0], 0.0, 1e14)) / math.pi
    return abs(hm - 0.5), abs(ai - 1.0)


# -- references per task ----------------------------------------------------------------

def _floats(s):
    return [float(t) for t in s.split(",") if t.strip()]


def _points(task):
    arg = next(a for a in task["argv"] if a.startswith("--points="))
    return [complex(t) for t in arg.split("=", 1)[1].split(",")]


def reference(task):
    """The oracle's answer for one task, in the form check() reads."""
    cmd, ref = task["cmd"], task["ref"]
    with mp.workdps(20):
        if cmd == "psi":
            return [float(psi_ref(ref, z.real)) for z in _points(task)]
        if cmd == "symbol":
            return [[float(mp.cos(d)), float(mp.sin(d))]
                    for d in (phase_difference_ref(ref, z.real) for z in _points(task))]
        if cmd == "outer-eval":
            return [[float(v.real), float(v.imag)]
                    for v in (outer_ref(ref, z) for z in _points(task))]
        if cmd == "symbol-from-measure":
            return [float(symbol_from_measure_ref(ref, z.real).imag) for z in _points(task)]
        if cmd == "rp-certify":
            A = mp.matrix([[phi_ref(ref, tj + tk) for tk in RP_TIMES] for tj in RP_TIMES])
            ev = mp.eigsy(A, eigvals_only=True)
            return {"scale": float(max(1, max(abs(e) for e in ev)))}
        if cmd == "compactness":
            # int 1/l dmu = inf exactly when the density reaches 0 at a positive value
            return {"compact": ref["family"] != "cauchy"}
        if cmd == "certify-psd":
            out = {"psd": True}
            if ref["family"] == "atoms":
                out["top"] = pencil_top_ref(ref["atoms"], default_anchors())
            return out
        if cmd == "os-check":
            a = complex(next(x for x in task["argv"] if x.startswith("--anchor=")).split("=", 1)[1])
            rhs = 0.0
            for l, w in ref["atoms"]:
                F = float(outer_axis_ref(ref, l))
                rhs += w * (1 + l * l) / (l * F * F) * abs(szego(a, 1j * l)) ** 2
            return {"value": rhs}
        if cmd == "fixed-point":
            return {"deviation": 0.0}   # F_nu is a fixed point of its own Hankel form
        if cmd == "hankel-gram":
            return gram_atoms(ref["atoms"], default_anchors())
        if cmd == "kernel-demo":
            return {str(n): kernel_ref(ref["p"], n) for n in (100, 300, 1000, 3000, 10000)}
        if cmd == "plot-eigencurves":
            return _svg_expected(ref)
        # degree and composition: theorem-level integers
        return {"degree": ref["degree"]}


# -- checks --------------------------------------------------------------------------------

def _csv_rows(text, skip=1):
    return [_floats(line) for line in text.strip().splitlines()[skip:]]


def _svg_expected(ref):
    """Pixel coordinates polyline_svg must print for the exact eigencurves."""
    xs = np.linspace(*SVG_RANGE, GRID)
    a, b, g, d = ref["a"], ref["b"], ref["g"], ref["d"]
    mid = (a + g + d * xs) / 2.0
    root = np.sqrt((a - g - d * xs) ** 2 + 4 * b * b) / 2.0
    ys = [mid - root, mid + root]
    width, height, pad = 640.0, 480.0, 20.0
    x0, x1 = xs.min(), xs.max()
    y0, y1 = min(y.min() for y in ys), max(y.max() for y in ys)
    px = pad + (xs - x0) / (x1 - x0) * (width - 2 * pad)
    return [np.column_stack([px, height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)])
            for y in ys]


def _parse_svg(text):
    out = []
    for pts in re.findall(r'<polyline points="([^"]*)"', text):
        out.append(np.array([[float(v) for v in pair.split(",")] for pair in pts.split()]))
    return out


def _verdict(expected, got):
    return 0.0 if bool(expected) == bool(got) else 2.0


def check(task, ref, text, rc):
    """Worst error over tolerance of one answer; above 1 is an oracle miss."""
    cmd = task["cmd"]
    if cmd == "psi":
        got = [row[1] for row in _csv_rows(text)]
        return max(abs(g - r) / abs(r) for g, r in zip(got, ref)) / TOL["psi"] \
            + _count_mismatch(got, ref)
    if cmd in ("symbol", "outer-eval"):
        rows = _csv_rows(text)
        got = [complex(row[-2], row[-1]) for row in rows]
        want = [complex(*v) for v in ref]
        scale = [abs(w) if cmd == "outer-eval" else 1.0 for w in want]
        return max(abs(g - w) / s for g, w, s in zip(got, want, scale)) / TOL[cmd] \
            + _count_mismatch(got, want)
    if cmd == "symbol-from-measure":
        rows = _csv_rows(text)
        err = max(math.hypot(row[1], row[2] - r) for row, r in zip(rows, ref))
        return err / TOL[cmd] + _count_mismatch(rows, ref)
    data = None
    if cmd in ("certify-psd", "rp-certify", "compactness", "os-check", "fixed-point",
               "degree"):
        data = json.loads(text)
    if cmd == "certify-psd":
        err = max(_verdict(True, data["psd"] and rc == 0),
                  max(0.0, -data["min_eig"]) / TOL["psd"])
        if "top" in ref:
            err = max(err, abs(data["norm_lower_bound"] - ref["top"])
                      / ref["top"] / TOL["pencil-top"])
        return err
    if cmd == "rp-certify":
        return max(_verdict(True, data["psd"] and rc == 0),
                   max(0.0, -data["min_eig"]) / (TOL["psd"] * ref["scale"]))
    if cmd == "compactness":
        return max(_verdict(ref["compact"], data["compact"]),
                   _verdict(ref["compact"], rc == 0))
    if cmd == "os-check":
        v = ref["value"]
        err = max(abs(complex(*data["lhs"]) - v), abs(complex(*data["rhs"]) - v)) / v
        return max(err / TOL["os-check"], _verdict(True, rc == 0))
    if cmd == "fixed-point":
        err = abs(data["deviation"] - ref["deviation"]) / TOL["fixed-point"]
        return max(err, _verdict(True, rc == 0))
    if cmd == "hankel-gram":
        G = ref
        rows = _csv_rows(text)
        got = np.array([[complex(r[2 * k], r[2 * k + 1]) for k in range(len(r) // 2)]
                        for r in rows])
        if got.shape != G.shape:
            return 2.0
        return float(np.abs(got - G).max() / np.abs(G).max()) / TOL["hankel-gram"]
    if cmd == "kernel-demo":
        err = 0.0
        rows = _csv_rows(text)
        for row in rows:
            hm, ai = ref[str(int(row[0]))]
            err = max(err, abs(row[1] - hm), abs(row[2] - ai))
        return err / TOL["kernel"] + (0.0 if len(rows) == len(ref) else 2.0)
    if cmd == "plot-eigencurves":
        got = _parse_svg(text)
        want = ref
        if len(got) != 2 or any(g.shape != w.shape for g, w in zip(got, want)):
            return 2.0
        return max(float(np.abs(g - w).max()) for g, w in zip(got, want)) / TOL["svg"]
    if cmd == "degree":
        d = ref["degree"]
        err = max(abs(data[k] - d) for k in ("rank", "winding", "winding_pole_count"))
        return max(err / TOL["integer"], _verdict(True, data["regular"]))
    if cmd == "composition":
        return abs(int(text.strip()) - ref["degree"]) / TOL["integer"]
    raise ValueError(f"no check for {cmd}")


def _count_mismatch(got, want):
    return 0.0 if len(got) == len(want) else 2.0


def expected_exit(task):
    return 1 if task["cmd"] == "compactness" and task["family"] == "cauchy" else 0
