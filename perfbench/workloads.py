"""Seeded inputs and task lists for the three benchmark workloads.

A workload run is a list of rounds; a round is the workload's fixed task
mix, and every task in it gets its own inputs, so no two tasks of a run
share an input and memoising across tasks cannot win where a CLI user (one
process per call) would not.  Everything here is a pure function of
(workload, seed, rounds): the worker writes the inputs during set-up and
the checker recomputes nothing but the references.

The problem set itself is drawn once, from a fixed master seed; --seed then
scales every continuous parameter by a factor within 1 +- JITTER.  So every
run does the same work on the same problem geometry (including the slow and
the failing cases), no two seeds give the same inputs, and the run-to-run
spread of the timings is the machine's, not the luck of the draw.  JITTER
is small because the program's cost is chaotic in its input: at 1 % the
same composition took 0.2 s under one seed and 4.5 s under another, and the
11th slowest of a run's compositions, task_s_tail, spread by a third.

Each task is a JSON-serialisable dict:

    id       unique name, also the stem of its input and output files
    cmd      CLI subcommand, or "composition" for the library-only call
    family   which measure / function family the input comes from
    argv     CLI arguments ("{dir}" stands for the run's input directory)
    inputs   {file name: JSON object} written before the first task runs
    ref      parameters the oracle needs (never read by the program)
"""
from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("density-cold", "atomic-grid", "pick-degree")

# --seconds becomes a round count through these, so a run is sized once and
# a faster program simply finishes the same work sooner.  At the benchmark's
# 30 s they give 2 rounds of density-cold (12-16 s each at the seed on a
# 2-core x86 virtual machine), 6 of atomic-grid (about 5 s each) and 23 of
# pick-degree (0.5-0.9 s each): 23 compositions, so task_s_tail, the 11th
# slowest task, is a typical composition rather than a runaway one.
ROUND_SECONDS = {"density-cold": 15.0, "atomic-grid": 5.0, "pick-degree": 1.3}

# A task still running after this many seconds is stopped and counts as
# failed, as a refused request would, so no program version can stall a run.
# The seed's slowest tasks take ~3.5 s (density-cold) and ~3.7 s (a
# composition), ~5 s traced; a few compositions run away for minutes.
TASK_LIMIT_S = {"density-cold": 30.0, "atomic-grid": 30.0, "pick-degree": 6.0}

MASTER_SEED = 0
JITTER = 1e-6

CAUCHY_EPS = 1e-12          # lower end of the Cauchy-family support
SVG_RANGE = (-7.0, 7.0)     # plot-eigencurves default --range
GRID = 1024                 # hardyrp default --grid-size


def round_count(workload: str, seconds: float) -> int:
    return max(1, int(seconds / ROUND_SECONDS[workload] + 0.5))


class Draws:
    """Master-stream draws, each continuous value jittered by the run's seed.

    The jitter stream advances in step with the master stream, so discrete
    choices (counts, ranks, signs) repeat exactly across seeds.
    """

    def __init__(self, seed: int, stream: int, variant: int = 0):
        self.master = np.random.default_rng([MASTER_SEED, stream])
        self.jitter = np.random.default_rng([seed, stream, variant])

    def _jit(self, x):
        u = self.jitter.uniform(-1.0, 1.0, size=np.shape(x))
        out = np.asarray(x, dtype=float) * (1.0 + JITTER * u)
        return out if out.shape else float(out)

    def uniform(self, lo, hi, size=None):
        return self._jit(self.master.uniform(lo, hi, size))

    def loguniform(self, lo, hi, size=None):
        return self._jit(np.exp(self.master.uniform(math.log(lo), math.log(hi), size)))

    def normal(self, size=None):
        return self._jit(self.master.normal(size=size))

    def integers(self, lo, hi):
        return int(self.master.integers(lo, hi))

    def choice(self, options, size=None):
        return self.master.choice(options, size)


# -- measures ------------------------------------------------------------------

def _cauchy(rng):
    b, c = (float(v) for v in rng.uniform(0.5, 2.0, size=2))
    spec = {"density": [{"interval": [CAUCHY_EPS, "inf"], "kind": "closed-form",
                         "expr": f"{2 * c * b!r}/({b * b!r}+lam**2)"}]}
    return spec, {"family": "cauchy", "b": b, "c": c}


def _atoms(rng, k, lo=0.3, hi=3.0):
    while True:
        locs = np.sort(rng.uniform(lo, hi, size=k))
        if k < 2 or np.diff(locs).min() > 0.05:
            break
    return [[float(l), float(w)] for l, w in zip(locs, rng.uniform(0.2, 2.0, size=k))]


def _interval(rng, shape, n_atoms=0):
    """Uniform or exponential density on [a, b], plus n_atoms interior atoms."""
    a = float(rng.uniform(0.2, 1.0))
    b = float(a + rng.uniform(1.0, 4.0))
    c = float(rng.uniform(0.5, 1.5))
    ref = {"family": shape, "a": a, "b": b, "c": c}
    if shape == "uniform":
        expr = repr(c)
    else:
        k = float(rng.uniform(0.2, 2.0))
        ref["k"] = k
        expr = f"{c!r}*exp(-{k!r}*lam)"
    atoms = _atoms(rng, n_atoms) if n_atoms else []
    ref["atoms"] = atoms
    spec = {"atoms": atoms,
            "density": [{"interval": [a, b], "kind": "closed-form", "expr": expr}]}
    return spec, ref


def _table(rng):
    """64 nodes of c/(1+lam^2), linearly interpolated on [a, b]."""
    a = float(rng.uniform(0.08, 0.15))
    b = float(rng.uniform(8.0, 12.0))
    c = float(rng.uniform(0.5, 2.0))
    lam = np.geomspace(a, b, 64)
    rows = [[float(l), float(c / (1.0 + l * l))] for l in lam]
    spec = {"density": [{"interval": [a, b], "kind": "table", "samples": rows}]}
    return spec, {"family": "table", "samples": rows}


def _atomic(rng):
    k = int(rng.integers(1, 5))
    atoms = _atoms(rng, k)
    return {"atoms": atoms}, {"family": "atoms", "atoms": atoms}


# -- points --------------------------------------------------------------------

def _real_points(rng, n, lo=0.2, hi=5.0):
    x = rng.loguniform(lo, hi, size=n)
    return [float(v) for v in x * rng.choice([-1.0, 1.0], size=n)]


def _positive_points(rng, n, lo=0.1, hi=10.0):
    return [float(v) for v in rng.loguniform(lo, hi, size=n)]


def _upper_points(rng, n):
    return [complex(float(rng.uniform(-3.0, 3.0)), float(rng.uniform(0.3, 3.0)))
            for _ in range(n)]


def _fmt_points(xs):
    return ",".join(repr(x) if isinstance(x, float)
                    else f"{x.real!r}{x.imag:+.17g}j" for x in xs)


# -- Pick functions ------------------------------------------------------------

def _encode(M):
    M = np.asarray(M, dtype=complex)
    return [[[float(e.real), float(e.imag)] for e in row] for row in M]


def _pick_json(C, D, poles=()):
    C = np.atleast_2d(np.asarray(C, dtype=complex))
    return {"dim": int(C.shape[0]), "C": _encode(C), "D": _encode(D),
            "poles": [{"lambda": float(l), "A": _encode(A)} for l, A in poles]}


def _psd(rng, dim, rank):
    B = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return B @ B.conj().T


def _separated(rng, n, lo, hi, gap):
    while True:
        locs = np.sort(rng.uniform(lo, hi, size=n))
        if n < 2 or np.diff(locs).min() > gap:
            return locs


def _regular_pick(rng):
    """Random C + zD + sum A_j/(l_j - z) with D + sum A_j positive definite.

    Then Im F(z) is positive definite for Im z > 0, so the spectrum of F(z)
    lies in the open upper half-plane (F is regular) and the degree is
    rk D + sum rk A_j by construction.
    """
    while True:
        dim = int(rng.integers(1, 4))
        n_poles = int(rng.integers(0, 4))
        r_d = int(rng.integers(0, dim + 1))
        ranks = [int(rng.integers(1, dim + 1)) for _ in range(n_poles)]
        if r_d + sum(ranks) < dim:
            continue
        C = rng.normal(size=(dim, dim))
        C = (C + C.T) / 2.0
        D = _psd(rng, dim, r_d) if r_d else np.zeros((dim, dim), dtype=complex)
        poles = [(l, _psd(rng, dim, r))
                 for l, r in zip(_separated(rng, n_poles, -5.0, 5.0, 0.3), ranks)]
        total = D + sum((A for _, A in poles), np.zeros((dim, dim)))
        if np.linalg.eigvalsh(total).min() > 0.05:
            return _pick_json(C, D, poles), r_d + sum(ranks)


def _scalar_pick(rng, degree):
    c = float(rng.uniform(-1.0, 1.0))
    locs = _separated(rng, degree, -3.0, 3.0, 0.2)
    poles = [(float(l), [[float(rng.uniform(0.5, 1.5))]]) for l in locs]
    return _pick_json([[c]], [[0.0]], poles)


def _coupled_pick(rng):
    """[[a, b], [b, g]] + z diag(0, d) with |b| >= 0.5: regular, degree 1.

    A real eigenvalue m of F(z) would force g + d z - m = b^2/(a - m) to be
    real, impossible for Im z > 0; the worked example is a = b = d = 1, g = 0.
    """
    a, g = rng.uniform(-1.0, 1.0, size=2)
    b = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.5, 1.5)
    d = float(rng.uniform(0.5, 1.5))
    spec = _pick_json([[a, b], [b, g]], np.diag([0.0, d]))
    return spec, {"a": float(a), "b": b, "g": float(g), "d": d}


# -- task lists ----------------------------------------------------------------

class _TaskList:
    def __init__(self, workload, seed, traced):
        self.rng = Draws(seed, WORKLOADS.index(workload), int(traced))
        self.prefix = {"density-cold": "dc", "atomic-grid": "ag",
                       "pick-degree": "pd"}[workload] + ("t" if traced else "")
        self.traced = traced
        self.tasks = []

    def add(self, rnd, cmd, family, argv, inputs, ref):
        tid = f"{self.prefix}{rnd:03d}-{len(self.tasks):04d}"
        inputs = {f"{tid}-{k}.json": v for k, v in inputs.items()}
        self.tasks.append({"id": tid, "round": rnd, "traced": self.traced,
                           "cmd": cmd, "family": family,
                           "argv": argv(tid), "inputs": inputs, "ref": ref})

    def measure_task(self, rnd, cmd, made, extra=(), pre=()):
        spec, ref = made
        ref = dict(ref, **dict(extra))
        opts = [f"--{k}={v}" for k, v in extra]
        self.add(rnd, cmd, ref["family"],
                 lambda tid: [*pre, cmd, "--measure", f"{{dir}}/{tid}-m.json", *opts],
                 {"m": spec}, ref)


def _density_round(b: _TaskList, rnd: int) -> None:
    # Order statistics are only steady inside a block of like tasks, so the
    # mix is built in cost blocks: per round 8 light tasks, 6 uniform-density
    # spline builds (the median falls among them), then 4 rp-certify and the
    # table psi (the tail, 10 tasks from the top over two rounds, falls among
    # them), then 2 heavy tasks.
    r = b.rng
    # heavy: a Cauchy-family spline build (symbol and outer-eval take turns)
    # and the table Gram
    if rnd % 2 == 0:
        b.measure_task(rnd, "symbol", _cauchy(r), [("points", _fmt_points(_real_points(r, 3)))])
    else:
        b.measure_task(rnd, "outer-eval", _cauchy(r),
                       [("points", _fmt_points(_upper_points(r, 3)))])
    b.measure_task(rnd, "certify-psd", _table(r))
    # Fourier-route certificates (nested psi_big quadratures) and the table's
    # per-point psi_big
    for _ in range(4):
        b.measure_task(rnd, "rp-certify", _interval(r, "exponential", 1))
    b.measure_task(rnd, "psi", _table(r), [("points", _fmt_points(_positive_points(r, 16)))])
    # spline builds on atom + uniform-density mixes
    for _ in range(3):
        b.measure_task(rnd, "symbol", _interval(r, "uniform", 1),
                       [("points", _fmt_points(_real_points(r, 3)))])
        b.measure_task(rnd, "outer-eval", _interval(r, "uniform", 1),
                       [("points", _fmt_points(_upper_points(r, 3)))])
    # light: pointwise transforms and verdicts
    b.measure_task(rnd, "symbol-from-measure", _table(r),
                   [("points", _fmt_points(_real_points(r, 3)))])
    b.measure_task(rnd, "compactness", _table(r))
    b.measure_task(rnd, "psi", _cauchy(r), [("points", _fmt_points(_positive_points(r, 3)))])
    b.measure_task(rnd, "compactness", _cauchy(r))
    b.measure_task(rnd, "psi", _interval(r, "exponential", 1),
                   [("points", _fmt_points(_positive_points(r, 3)))])
    b.measure_task(rnd, "compactness", _interval(r, "exponential", 0))
    b.measure_task(rnd, "certify-psd", _interval(r, "exponential", 0))
    b.measure_task(rnd, "symbol-from-measure", _interval(r, "exponential", 1),
                   [("points", _fmt_points(_real_points(r, 3)))])


def _atomic_round(b: _TaskList, rnd: int) -> None:
    # 6 phase-heavy tasks and 2 light ones, which take turns by round
    r = b.rng
    for _ in range(3):
        anchor = complex(float(r.uniform(-1.0, 1.0)), float(r.uniform(0.5, 2.0)))
        b.measure_task(rnd, "os-check", _atomic(r), [("anchor", _fmt_points([anchor]))])
    for _ in range(3):
        # the acceptance suite holds the fixed-point deviation to 1e-5
        b.measure_task(rnd, "fixed-point", _atomic(r), pre=("--tol-abs", "1e-5"))
    if rnd % 2 == 0:
        b.measure_task(rnd, "rp-certify", _atomic(r))
        b.measure_task(rnd, "hankel-gram", _atomic(r))
    else:
        b.measure_task(rnd, "certify-psd", _atomic(r))
        p = r.uniform(0.5, 3.0)
        b.add(rnd, "kernel-demo", "kernel", lambda tid: ["kernel-demo", f"--p={p!r}"],
              {}, {"p": p})


def _pick_round(b: _TaskList, rnd: int) -> None:
    r = b.rng
    for _ in range(9):
        spec, degree = _regular_pick(r)
        b.add(rnd, "degree", "rational",
              lambda tid: ["degree", "--pick", f"{{dir}}/{tid}-F.json", "--method", "both"],
              {"F": spec}, {"degree": degree})
    spec, ref = _coupled_pick(r)
    b.add(rnd, "plot-eigencurves", "worked-example",
          lambda tid: ["plot-eigencurves", "--pick", f"{{dir}}/{tid}-F.json"],
          {"F": spec}, ref)
    # scalar degrees (a, c) cycle through the products 1, 2, 2; products of
    # 4-8 take 2-64 s per task at the seed and stay out of the mix
    a, c = ((1, 1), (2, 1), (1, 2))[rnd % 3]
    F, _ = _coupled_pick(r)
    b.add(rnd, "composition", "callable", lambda tid: [],
          {"f": _scalar_pick(r, a), "F": F, "g": _scalar_pick(r, c)},
          {"degree": a * c})


_ROUNDS = {"density-cold": _density_round, "atomic-grid": _atomic_round,
           "pick-degree": _pick_round}


def build_tasks(workload: str, seed: int, rounds: int, traced: bool = False) -> list[dict]:
    """The run's task list: `rounds` rounds of the workload's mix.

    traced=True gives the same problems under a second jitter: inputs that
    differ from the untraced ones but cost the same, so the traced run can
    time both and report the tracing overhead without sharing an input.
    """
    b = _TaskList(workload, seed, traced)
    for rnd in range(rounds):
        _ROUNDS[workload](b, rnd)
    return b.tasks
