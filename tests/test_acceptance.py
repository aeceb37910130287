"""End-to-end checks, one per headline claim.

Each test prints a single pass/fail line so the suite doubles as a report.
Tolerances are fixed here on purpose; do not loosen them.
"""
import math
import time

import numpy as np

from hardyrp.cli import eigencurves, polyline_svg
from hardyrp.hankel import (
    certify_positive,
    default_anchors,
    fixed_point_check,
    fixed_point_deviation,
    gram_from_measure,
    gram_from_symbol,
    os_isometry_check,
    pencil_eigenvalues,
    rp_certify,
    symbol_from_measure,
)
from hardyrp.hardy import KernelCombination, SymbolFunction
from hardyrp.kernels import approx_identity, halfmass
from hardyrp.measures import (
    BoundaryMeasure,
    DensityPiece,
    lebesgue_cauchy_measure,
    psi_big,
)
from hardyrp.pick import (
    BlaschkePotapovProduct,
    MobiusTransform,
    RationalPickFunction,
    _matrix_blaschke,
    bp_eval,
    compose_scalar,
    degree_rank,
    degree_winding,
    is_regular,
    multiplicity_winding,
    pick_eval,
)
from hardyrp.symbols import BoundaryModulus, h_nu, out_eval, t_map


def report(idx: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {idx:2d}: {label}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def worked_example() -> RationalPickFunction:
    return RationalPickFunction(
        np.array([[1, 1], [1, 0]], dtype=complex),
        np.array([[0, 0], [0, 1]], dtype=complex),
    )


def random_atomic(rng: np.random.Generator, k: int = 2) -> BoundaryMeasure:
    locs = rng.uniform(0.3, 3.0, size=k)
    while len(set(np.round(locs, 6))) < k:
        locs = rng.uniform(0.3, 3.0, size=k)
    return BoundaryMeasure(atoms=[(float(l), float(w)) for l, w in
                                  zip(locs, rng.uniform(0.2, 2.0, size=k))])


def test_01_outer_closed_forms():
    cases = [
        (BoundaryModulus.power_law(1.0), lambda z: -1j * z),
        (BoundaryModulus.power_law(-1.0), lambda z: 1j / z),
        (BoundaryModulus.power_law(-0.5), lambda z: (1 + 1j) / np.sqrt(2 * z)),
        (BoundaryModulus(lambda p: 1 + p * p, (), True, "1+p^2"),
         lambda z: -(z + 1j) ** 2),
        (BoundaryModulus(lambda p: abs(p) / (1 + p * p), (0.0,), True,
                         "|p|/(1+p^2)"),
         lambda z: 1j * z / (z + 1j) ** 2),
        (BoundaryModulus(lambda p: 1 / math.sqrt(1 + p * p), (), True,
                         "1/sqrt(1+p^2)"),
         lambda z: 1j / (z + 1j)),
    ]
    rng = np.random.default_rng(1)
    zs = rng.uniform(-3, 3, size=20) + 1j * rng.uniform(0.1, 3.0, size=20)
    t0 = time.monotonic()
    worst = 0.0
    for K, exact in cases:
        for z in zs:
            want = exact(z)
            worst = max(worst, abs(out_eval(1.0, K, z) - want) / abs(want))
    dt = time.monotonic() - t0
    report(1, "six outer closed forms, 20 points each",
           worst <= 1e-6 and dt <= 30.0,
           f"rel err {worst:.2e}, {dt:.1f} s")


def test_02_lebesgue_pipeline():
    nu = lebesgue_cauchy_measure()
    psi_err = max(abs(psi_big(nu, p) * p - 1.0) for p in (0.5, 1.0, 3.0))
    xs = np.concatenate([np.linspace(-5.0, -0.1, 25), np.linspace(0.1, 5.0, 25)])
    h_err = max(abs(h_nu(nu, x) - 1j * np.sign(x)) for x in xs)
    tnu = t_map(nu)
    t_err = max(abs(tnu.density[0](lam) / 2.0 - 1.0)
                for lam in np.geomspace(0.1, 10.0, 15))
    report(2, "Cauchy-density measure: psi, symbol, reweighted image",
           psi_err <= 1e-6 and h_err <= 1e-5 and t_err <= 1e-5,
           f"psi {psi_err:.2e}, h {h_err:.2e}, density {t_err:.2e}")


def random_pick(rng: np.random.Generator, dim: int,
                n_poles: int) -> RationalPickFunction:
    def psd(rank):
        B = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
        return B @ B.conj().T

    C = rng.normal(size=(dim, dim))
    C = (C + C.T) / 2 + 0j
    D = psd(rng.integers(0, dim + 1))
    locs = np.sort(rng.uniform(-5, 5, size=n_poles))
    poles = tuple((float(l), psd(rng.integers(1, dim + 1))) for l in locs)
    return RationalPickFunction(C, D, poles)


def random_regular_pick(rng: np.random.Generator) -> RationalPickFunction:
    while True:
        F = random_pick(rng, int(rng.integers(1, 4)), int(rng.integers(0, 4)))
        if is_regular(F) and degree_rank(F) > 0:
            return F


def test_03_degree_triple_agreement():
    t0 = time.monotonic()
    checked = 0
    for seed in range(50):
        F = random_regular_pick(np.random.default_rng(1000 + seed))
        d = degree_rank(F)
        for lam in (1j, 1 + 2j):
            assert multiplicity_winding(F, lam=lam) == d, (seed, lam)
            assert degree_winding(F, lam=lam) == d, (seed, lam)
        checked += 1
    dt = time.monotonic() - t0
    report(3, "degree triple agreement on 50 seeded functions",
           checked == 50 and dt <= 120.0, f"{dt:.1f} s")


def test_04_worked_example(tmp_path):
    F = worked_example()
    methods_ok = (is_regular(F) and degree_rank(F) == 1
                  and multiplicity_winding(F) == 1 and degree_winding(F) == 1)

    omega = 0.5 + 1.5j
    u = np.diag([-1j, 1.0])
    P = np.array([[1 / 3, -(1 + 1j) / 3], [-(1 - 1j) / 3, 2 / 3]])
    phi = BlaschkePotapovProduct(u, ((omega, P),))
    rng = np.random.default_rng(4)
    probes = rng.uniform(-3, 3, size=10) + 1j * rng.uniform(0.2, 3.0, size=10)
    resid = np.abs(_matrix_blaschke(pick_eval(F, probes), 1j)
                   - bp_eval(phi, probes)).max()

    xs = np.linspace(-7.0, 7.0, 1024)
    branches = eigencurves(F, xs)
    svg = polyline_svg([(xs, branches[:, k]) for k in range(2)])
    (tmp_path / "curves.svg").write_text(svg)
    root = np.sqrt(xs * xs - 2.0 * xs + 5.0)
    want = np.column_stack([(xs + 1.0 - root) / 2.0, (xs + 1.0 + root) / 2.0])
    curve_dev = np.abs(branches - want).max()

    report(4, "worked 2x2 example: degree, factorization, eigencurves",
           methods_ok and resid <= 1e-8 and curve_dev <= 1e-9
           and svg.startswith("<svg"),
           f"residual {resid:.2e}, curve dev {curve_dev:.2e}")


def scalar_pick(rng: np.random.Generator, degree: int) -> RationalPickFunction:
    c = float(rng.uniform(-1.0, 1.0))
    locs = np.sort(rng.uniform(-3.0, 3.0, size=degree))
    while degree == 2 and locs[1] - locs[0] < 0.2:
        locs = np.sort(rng.uniform(-3.0, 3.0, size=degree))
    poles = [(float(l), float(rng.uniform(0.5, 1.5))) for l in locs]
    return RationalPickFunction.scalar(c, 0.0, poles)


def matrix_pick_of_degree(rng: np.random.Generator,
                          degree: int) -> RationalPickFunction:
    while True:
        F = random_pick(rng, 2, int(rng.integers(0, 3)))
        if degree_rank(F) == degree and is_regular(F):
            return F


def composition_oracle(f, F, g, z):
    """f(F(g(z))) at an array z, f applied through the eigendecomposition
    of F(g(z)): independent of compose_scalar's state-space construction."""
    w, V = np.linalg.eig(pick_eval(F, pick_eval(g, z)[..., 0, 0]))
    fw = pick_eval(f, w)[..., 0, 0]
    return (V * fw[..., None, :]) @ np.linalg.inv(V)


def composition_problem(seed: int):
    rng = np.random.default_rng(seed)
    a, b, c = (int(rng.integers(1, 3)) for _ in range(3))
    return (a, b, c), (scalar_pick(rng, a), matrix_pick_of_degree(rng, b),
                       scalar_pick(rng, c))


def test_05_composition_law():
    for seed in range(500, 510):
        (a, b, c), (f, F, g) = composition_problem(seed)
        comp = compose_scalar(f, F, g)
        assert isinstance(comp, RationalPickFunction)
        assert multiplicity_winding(comp) == a * b * c, (seed, a, b, c)

    m = MobiusTransform(1.0, 1.0, 0.0, 1.0)         # z -> z + 1
    minv = MobiusTransform(1.0, -1.0, 0.0, 1.0)     # z -> z - 1
    for F in (worked_example(), matrix_pick_of_degree(
            np.random.default_rng(77), 2)):
        conj = compose_scalar(minv.as_pick(), F, m.as_pick())
        assert degree_rank(conj) == degree_rank(F)
        assert multiplicity_winding(conj) == degree_rank(F)
    report(5, "winding degree multiplies under composition", True)


def test_05_composition_exact_on_200_seeds():
    zs = np.array([1j, 0.5 + 0.3j, -2.0 + 1j, 3.0 + 0.05j, 0.1 + 5j, -0.7 + 0.2j])
    worst = 0.0
    for seed in range(500, 700):
        (a, b, c), (f, F, g) = composition_problem(seed)
        comp = compose_scalar(f, F, g)
        assert degree_rank(comp) == a * b * c, (seed, a, b, c)
        ref = composition_oracle(f, F, g, zs)
        scale = np.maximum(1.0, np.abs(ref).max(axis=(1, 2)))
        worst = max(worst, float((np.abs(comp(zs) - ref).max(axis=(1, 2))
                                  / scale).max()))
    report(5, "rank degree multiplies on 200 seeds; values match eig",
           worst <= 1e-10, f"worst relative deviation {worst:.1e}")


def test_06_rank_one_hankel():
    mu = BoundaryMeasure(atoms=[(1.0, 4.0 * math.pi)])
    g = gram_from_measure(mu, default_anchors(10))
    w = pencil_eigenvalues(g)
    report(6, "rank-one form saturates the norm bound",
           1.0 - 1e-4 <= w[-1] <= 1.0 + 1e-6 and abs(w[-2]) <= 1e-8,
           f"top {w[-1]:.8f}, second {w[-2]:.2e}")


def test_07_symbol_measure_consistency():
    mu2 = BoundaryMeasure(density=[DensityPiece(1e-12, np.inf, expr="2")])
    anchors = default_anchors(8)
    gm = gram_from_measure(mu2, anchors)
    gs = gram_from_symbol(SymbolFunction.i_sgn(), anchors)
    gram_dev = np.abs(gm.G - gs.G).max() / np.abs(gm.G).max()
    sym_dev = max(abs(symbol_from_measure(mu2, p) - 1j * np.sign(p))
                  for p in (-2.0, -0.5, 0.5, 1.0, 3.0))
    lower = np.abs(gram_from_symbol(lambda x: 1.0 / (x - 1j), anchors).G).max()
    report(7, "measure form matches symbol form",
           gram_dev <= 1e-6 and sym_dev <= 1e-6 and lower <= 1e-8,
           f"gram {gram_dev:.2e}, symbol {sym_dev:.2e}, lower-half {lower:.2e}")


def test_08_reflection_positivity():
    times = (0.0, 0.5, 1.0, 2.0, 4.0)
    worst = 0.0
    for seed in range(5):
        ok, mn = rp_certify(random_atomic(np.random.default_rng(800 + seed)),
                            times)
        assert ok and mn >= -1e-8, (seed, mn)
        worst = min(worst, mn)
    from hardyrp.symbols import h_nu_symbol
    nu = random_atomic(np.random.default_rng(808))
    g = gram_from_symbol(h_nu_symbol(nu).negated(), default_anchors(8))
    res = certify_positive(g)
    report(8, "correlation matrices certify positive; negated symbol fails",
           not res.psd and res.min_eig <= -1e-4,
           f"min eig {worst:.2e}, counter {res.min_eig:.2e}")


def test_09_os_isometry():
    nu = lebesgue_cauchy_measure()
    q = KernelCombination([(1.0, 1j)])
    lhs, rhs, dev = os_isometry_check(nu, q, q)
    want = 1.0 / (2.0 * math.pi ** 2)
    leb_ok = abs(lhs - want) <= 1e-6 * want and abs(rhs - want) <= 1e-6 * want
    worst = dev
    for seed in range(5):
        rng = np.random.default_rng(900 + seed)
        nu = random_atomic(rng)
        f = KernelCombination([(complex(rng.normal(), rng.normal()),
                                complex(rng.uniform(-1, 1),
                                        rng.uniform(0.5, 2)))
                               for _ in range(2)])
        g = KernelCombination([(complex(rng.normal(), rng.normal()),
                                complex(rng.uniform(-1, 1),
                                        rng.uniform(0.5, 2)))
                               for _ in range(2)])
        _, _, d = os_isometry_check(nu, f, g)
        worst = max(worst, d)
    report(9, "boundary pairing matches reweighted integral",
           leb_ok and worst <= 1e-6, f"worst deviation {worst:.2e}")


def test_10_kernel_demo():
    t0 = time.monotonic()
    errs = [abs(halfmass(1.0, n) - 0.5) for n in (10 ** 2, 10 ** 3, 10 ** 4)]
    mono = errs[0] > errs[1] > errs[2] and errs[2] <= 0.02
    probes = [
        (lambda x: 1.0, 1.0, 1.0),
        (lambda x: x / (1.0 + x * x), 1.0, 0.0),
        (lambda x: x * x / (1.0 + x * x), 2.0, 4.0 / 5.0),
    ]
    ai = max(abs(approx_identity(phi, p, 10 ** 4) - want)
             for phi, p, want in probes)
    dt = time.monotonic() - t0
    report(10, "window kernels: half mass and averaging limits",
           mono and ai <= 0.05 and dt <= 60.0,
           f"halfmass {errs[2]:.2e}, averaging {ai:.2e}, {dt:.1f} s")


def test_11_fixed_point():
    anchors = default_anchors(6)
    devs = [fixed_point_check(BoundaryMeasure(atoms=[(1.0, 1.0)]), anchors),
            fixed_point_check(BoundaryMeasure(atoms=[(1.0, 1.0), (2.0, 1.0)]),
                              anchors)]
    control = fixed_point_deviation(BoundaryMeasure(atom_inf=math.pi), anchors)
    report(11, "symbol is a fixed point; endpoint atom control is not",
           max(devs) <= 1e-5 and control >= 0.01,
           f"dev {max(devs):.2e}, control {control:.3f}")
