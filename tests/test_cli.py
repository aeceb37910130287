import contextlib
import io
import json
import math
import sys

import numpy as np
import pytest

import hardyrp.cli
from hardyrp import kernels, numerics
from hardyrp.cli import eigencurves, polyline_svg, run
from hardyrp.measures import (
    BoundaryMeasure,
    DensityPiece,
    dump_measure,
    lebesgue_cauchy_measure,
)
from hardyrp.numerics import QuadratureConfig
from hardyrp.pick import RationalPickFunction, dump_pick, load_pick


@pytest.fixture
def lebesgue_path(tmp_path):
    path = tmp_path / "lebesgue.json"
    path.write_text(json.dumps(dump_measure(lebesgue_cauchy_measure())))
    return str(path)


@pytest.fixture
def cauchy_path(tmp_path):
    # the README's example: an atom at 1 plus the density 2/(1+l^2)
    path = tmp_path / "cauchy.json"
    path.write_text(json.dumps({"atoms": [[1.0, 1.0]], "density": [
        {"interval": [1e-12, "inf"], "expr": "2/(1+lam**2)"}]}))
    return str(path)


@pytest.fixture
def two_lebesgue_path(tmp_path):
    mu = BoundaryMeasure(density=[DensityPiece(1e-12, np.inf, expr="2")])
    path = tmp_path / "two_lebesgue.json"
    path.write_text(json.dumps(dump_measure(mu)))
    return str(path)


@pytest.fixture
def atom_path(tmp_path):
    path = tmp_path / "atom.json"
    path.write_text(json.dumps({"atoms": [[1.0, 1.0]]}))
    return str(path)


@pytest.fixture
def sample_path(tmp_path):
    # the measure of the console-script step in CI
    path = tmp_path / "sample.json"
    path.write_text(json.dumps({"atoms": [[1.0, 1.0]], "density": [
        {"interval": [0.5, 2.0], "expr": "1"}]}))
    return str(path)


@pytest.fixture
def two_atom_path(tmp_path):
    # the atom-only measure of the console-script step in CI
    path = tmp_path / "two_atoms.json"
    path.write_text(json.dumps({"atoms": [[1.0, 1.0], [2.0, 1.0]]}))
    return str(path)


@pytest.fixture
def wide_atom_path(tmp_path):
    # atoms three decades apart, where a fixed 1024-node tan-mapped boundary
    # rule misses both pairings by about 1e-3; the CI console-script step
    # runs it too
    path = tmp_path / "wide_atoms.json"
    path.write_text(json.dumps(
        {"atoms": [[0.001, 1.0], [1.0, 1.0], [1000.0, 1.0]]}))
    return str(path)


def count_passes(monkeypatch):
    """Count the integrate_batched passes of every hardyrp module."""
    calls = []
    real = numerics.integrate_batched

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("hardyrp")
                and getattr(module, "integrate_batched", None) is real):
            monkeypatch.setattr(module, "integrate_batched", counted)
    return calls


def count_calls(monkeypatch, name):
    """Count the calls the CLI makes of its binding `name`."""
    calls = []
    real = getattr(hardyrp.cli, name)
    monkeypatch.setattr(hardyrp.cli, name,
                        lambda *a: calls.append(a) or real(*a))
    return calls


@pytest.fixture
def pick_path(tmp_path):
    F = RationalPickFunction(
        np.array([[1.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex),
    )
    path = tmp_path / "pick.json"
    path.write_text(json.dumps(dump_pick(F)))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


class TestPsi:
    def test_lebesgue_values(self, lebesgue_path, tmp_path):
        out = tmp_path / "psi.csv"
        code = run(["psi", "--measure", lebesgue_path,
                    "--points", "0.5,1,3", "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == "p,psi"
        for (p_s, v_s) in rows:
            p, v = float(p_s), float(v_s)
            assert abs(v - 1.0 / abs(p)) < 1e-6 / abs(p)

    def test_deterministic_bytes(self, lebesgue_path, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run(["psi", "--measure", lebesgue_path,
                        "--points", "0.3,2,7", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_stdout_default(self, atom_path, capsys):
        assert run(["psi", "--measure", atom_path, "--points", "1"]) == 0
        assert capsys.readouterr().out.startswith("p,psi\n")

    def test_points_are_one_array_call(self, sample_path, tmp_path,
                                       monkeypatch):
        calls = count_calls(monkeypatch, "psi_big")
        out = tmp_path / "psi.csv"
        assert run(["psi", "--measure", sample_path,
                    "--points", "0.5,1,3,1", "--out", str(out)]) == 0
        assert len(calls) == 1
        _, rows = read_csv(out)
        assert [p for p, _ in rows] == ["0.5", "1", "3", "1"]
        assert rows[1][1] == rows[3][1]

    def test_zero_point_is_input_error(self, sample_path):
        assert run(["psi", "--measure", sample_path, "--points", "1,0"]) == 2


class TestDegree:
    def test_both_methods(self, pick_path, tmp_path):
        out = tmp_path / "deg.json"
        assert run(["degree", "--pick", pick_path, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload == {"rank": 1, "winding": 1,
                           "winding_pole_count": 1, "regular": True}

    @pytest.mark.parametrize("b", [0.1, 0.05])
    def test_weakly_coupled_example_regular(self, b, tmp_path, capsys):
        F = RationalPickFunction(np.array([[0, b], [b, 0]], dtype=complex),
                                 np.diag([0.0, 1.0]).astype(complex))
        path = tmp_path / "coupled.json"
        path.write_text(json.dumps(dump_pick(F)))
        assert run(["degree", "--pick", str(path), "--method", "both"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "rank": 1, "winding": 1, "winding_pole_count": 1, "regular": True}

    def test_rank_only(self, pick_path, tmp_path):
        out = tmp_path / "deg.json"
        assert run(["degree", "--pick", pick_path,
                    "--method", "rank", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"rank", "regular"}

    def test_bad_method_rejected(self, pick_path):
        assert run(["degree", "--pick", pick_path, "--method", "bogus"]) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_degenerate_curve_exits_three(self, pick_path, monkeypatch, capsys):
        # F returns NaN on one block of circle points: a numerical failure
        import hardyrp.pick
        real = hardyrp.pick.pick_eval
        calls = []

        def poisoned(F, z):
            calls.append(None)
            M = real(F, z)
            return M * np.nan if len(calls) == 2 else M

        monkeypatch.setattr(hardyrp.pick, "pick_eval", poisoned)
        assert run(["degree", "--pick", pick_path, "--method", "winding"]) == 3
        assert "numerical failure" in capsys.readouterr().err


class TestCompose:
    @staticmethod
    def shift(tmp_path, c: float) -> str:
        path = tmp_path / f"shift{c:+g}.json"
        path.write_text(json.dumps(dump_pick(RationalPickFunction.scalar(c, 1.0))))
        return str(path)

    def test_mobius_conjugation_keeps_degree(self, pick_path, tmp_path, capsys):
        # f o F o g with f = z - 1 and g = z + 1 is again [[0, 1], [1, z]]
        comp = tmp_path / "comp.json"
        assert run(["compose", "--f", self.shift(tmp_path, -1.0), "--F", pick_path,
                    "--g", self.shift(tmp_path, 1.0), "--out", str(comp)]) == 0
        G = load_pick(str(comp))
        assert np.abs(G.C - np.array([[0, 1], [1, 0]])).max() < 1e-14
        assert run(["degree", "--pick", str(comp), "--method", "both"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "rank": 1, "winding": 1, "winding_pole_count": 1, "regular": True}

    def test_matrix_outer_function_is_input_error(self, pick_path, tmp_path, capsys):
        assert run(["compose", "--f", pick_path, "--F", pick_path,
                    "--g", self.shift(tmp_path, 1.0)]) == 2
        assert "scalar" in capsys.readouterr().err

    def test_undefined_composition_is_input_error(self, tmp_path, capsys):
        # F = diag(z, 1) and f = 1/(1 - w): det(F - 1) vanishes identically
        paths = {}
        for name, F in (("f", RationalPickFunction.scalar(0.0, 0.0, [(1.0, 1.0)])),
                        ("F", RationalPickFunction(np.diag([0.0, 1.0]),
                                                   np.diag([1.0, 0.0]))),
                        ("g", RationalPickFunction.scalar(0.0, 1.0))):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(dump_pick(F)))
        assert run(["compose", "--f", str(paths["f"]), "--F", str(paths["F"]),
                    "--g", str(paths["g"])]) == 2
        assert "vanishes identically" in capsys.readouterr().err


class TestPlotEigencurves:
    def test_svg_output(self, pick_path, tmp_path):
        out = tmp_path / "curves.svg"
        assert run(["plot-eigencurves", "--pick", pick_path,
                    "--range=-7:7", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<polyline") == 2

    def test_deterministic_bytes(self, pick_path, tmp_path):
        blobs = []
        for name in ("a.svg", "b.svg"):
            out = tmp_path / name
            assert run(["--grid-size", "256", "plot-eigencurves",
                        "--pick", pick_path, "--range=-3:3",
                        "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_grid_point_at_a_pole_is_dropped(self, tmp_path):
        # linspace(-7, 7, 1025) hits the pole at 0 exactly
        spec = {"dim": 1, "C": [[[0.5, 0.0]]], "D": [[[0.0, 0.0]]],
                "poles": [{"lambda": 0.0, "A": [[[1.0, 0.0]]]}]}
        path = tmp_path / "pole.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "curves.svg"
        assert run(["--grid-size", "1025", "plot-eigencurves", "--pick",
                    str(path), "--out", str(out)]) == 0
        points = out.read_text().split('points="')[1].split('"')[0].split()
        assert len(points) == 1024

    def test_no_point_off_the_poles_is_input_error(self, tmp_path, capsys):
        spec = {"dim": 1, "C": [[[0.5, 0.0]]], "D": [[[0.0, 0.0]]],
                "poles": [{"lambda": 1.0, "A": [[[1.0, 0.0]]]}]}
        path = tmp_path / "pole.json"
        path.write_text(json.dumps(spec))
        assert run(["plot-eigencurves", "--pick", str(path),
                    "--range=1:1"]) == 2
        err = capsys.readouterr().err
        assert "no sample point of --range 1:1 is off the poles" in err

    def test_branches_match_closed_form(self, pick_path):
        from hardyrp.pick import load_pick
        F = load_pick(pick_path)
        xs = np.linspace(-7.0, 7.0, 64)
        got = eigencurves(F, xs)
        root = np.sqrt(xs * xs - 2.0 * xs + 5.0)
        want = np.column_stack([(xs + 1.0 - root) / 2.0,
                                (xs + 1.0 + root) / 2.0])
        assert np.abs(got - want).max() < 1e-9


class TestEvaluationCommands:
    def test_outer_eval(self, atom_path, tmp_path):
        out = tmp_path / "outer.csv"
        assert run(["outer-eval", "--measure", atom_path,
                    "--points", "2j,1+1j", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == "z_re,z_im,F_re,F_im"
        assert len(rows) == 2
        for row in rows:
            v = complex(float(row[2]), float(row[3]))
            assert np.isfinite(v.real) and np.isfinite(v.imag)

    def test_symbol_unimodular(self, atom_path, tmp_path):
        out = tmp_path / "symbol.csv"
        assert run(["symbol", "--measure", atom_path,
                    "--points", "0.5,1,2", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == "x,h_re,h_im"
        for row in rows:
            v = complex(float(row[1]), float(row[2]))
            assert abs(abs(v) - 1.0) < 1e-12

    def test_symbol_from_measure_i_sgn(self, two_lebesgue_path, tmp_path):
        out = tmp_path / "h.csv"
        # a leading minus needs the = form, as with --range
        assert run(["symbol-from-measure", "--measure", two_lebesgue_path,
                    "--points=-1,1", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == "p,h_re,h_im"
        for row in rows:
            p = float(row[0])
            v = complex(float(row[1]), float(row[2]))
            assert abs(v - 1j * np.sign(p)) < 1e-6

    def test_symbol_from_measure_is_one_call(self, sample_path, tmp_path,
                                             monkeypatch):
        calls = count_calls(monkeypatch, "symbol_from_measure")
        out = tmp_path / "h.csv"
        assert run(["symbol-from-measure", "--measure", sample_path,
                    "--points", "0.5,1,3", "--out", str(out)]) == 0
        assert len(calls) == 1
        _, rows = read_csv(out)
        assert len(rows) == 3 and all(float(r[1]) == 0.0 for r in rows)
        assert run(["symbol-from-measure", "--measure", sample_path,
                    "--points", "1,0"]) == 2


class TestHankelCommands:
    def test_gram_shape_and_header(self, atom_path, tmp_path):
        out = tmp_path / "gram.csv"
        assert run(["hankel-gram", "--measure", atom_path,
                    "--anchors", "1j,2j,1+1j", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("# anchors: ")
        assert len(lines) == 4
        assert all(len(line.split(",")) == 6 for line in lines[1:])

    def test_certify_psd_passes(self, atom_path, tmp_path):
        out = tmp_path / "cert.json"
        assert run(["certify-psd", "--measure", atom_path,
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["psd"] is True
        assert payload["min_eig"] >= -1e-8

    def test_certify_psd_passes_on_table_density(self, tmp_path):
        # 64 samples of the positive 1.3/(1+l^2): the Gram integrals must
        # split at the table's kinks, or the form is certified non-PSD
        rows = [[float(l), 1.3 / (1.0 + float(l) ** 2)]
                for l in np.geomspace(0.1, 10.0, 64)]
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"density": [
            {"interval": [0.1, 10.0], "kind": "table", "samples": rows}]}))
        out = tmp_path / "cert.json"
        assert run(["certify-psd", "--measure", str(path),
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["psd"] is True

    def test_rp_certify_passes(self, atom_path, tmp_path):
        out = tmp_path / "rp.json"
        assert run(["rp-certify", "--measure", atom_path,
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["psd"] is True

    def test_rp_certify_atom_at_zero_passes(self, tmp_path):
        # a positive measure: the parent's quadrature of psi_big ~ 1/p^2
        # missed the 1/p_min term and reported min eig -4.7
        path = tmp_path / "atom0.json"
        path.write_text(json.dumps({"atom0": 0.3, "atoms": [[1, 1]]}))
        out = tmp_path / "rp.json"
        assert run(["rp-certify", "--measure", str(path),
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["psd"] is True

    def test_rp_certify_divergent_phi_exits_two(self, lebesgue_path, capsys):
        # the default times include 0, where phi of Lebesgue diverges
        assert run(["rp-certify", "--measure", lebesgue_path]) == 2
        assert "diverges" in capsys.readouterr().err
        assert run(["rp-certify", "--measure", lebesgue_path,
                    "--times", "0.5,1,2"]) == 0

    def test_rp_certify_cauchy_default_times_name_phi0(self, cauchy_path, capsys):
        # the default times include 0, and the density's t = 0 integrand
        # never decays: the message named the cut, not phi(0)
        assert run(["rp-certify", "--measure", cauchy_path]) == 2
        err = capsys.readouterr().err
        assert "phi(0)" in err and "times above 0" in err

    def test_rp_certify_cauchy_positive_times_pass(self, cauchy_path, tmp_path):
        out = tmp_path / "rp.json"
        assert run(["rp-certify", "--measure", cauchy_path,
                    "--times", "0.5,1,2,4", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["psd"] is True

    @pytest.mark.parametrize("command", ["certify-psd", "rp-certify"])
    def test_sample_measure_certifies(self, command, sample_path, tmp_path):
        out = tmp_path / "cert.json"
        assert run([command, "--measure", sample_path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["psd"] is True

    def test_os_check_passes(self, lebesgue_path, tmp_path):
        out = tmp_path / "os.json"
        assert run(["os-check", "--measure", lebesgue_path,
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        want = 1.0 / (2.0 * math.pi ** 2)
        assert abs(payload["rhs"][0] - want) < 1e-6 * want
        assert payload["deviation"] <= 1e-6

    def test_os_check_fails_tight_tolerance(self, lebesgue_path):
        # on atoms the two sides are closed forms that can agree exactly;
        # the density's two quadratures differ by about 1e-10
        assert run(["--tol-rel", "1e-30", "os-check",
                    "--measure", lebesgue_path]) == 1

    def test_compactness_atom(self, atom_path, tmp_path):
        out = tmp_path / "c.json"
        assert run(["compactness", "--measure", atom_path,
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == {"compact": True}

    def test_compactness_divergent_exits_one(self, tmp_path):
        path = tmp_path / "flat.json"
        mu = BoundaryMeasure(density=[DensityPiece(1e-12, 1.0, expr="1")])
        path.write_text(json.dumps(dump_measure(mu)))
        out = tmp_path / "c.json"
        assert run(["compactness", "--measure", str(path),
                    "--out", str(out)]) == 1
        assert json.loads(out.read_text()) == {"compact": False}

    def test_fixed_point_atom(self, atom_path, tmp_path):
        out = tmp_path / "fp.json"
        assert run(["--tol-abs", "1e-4", "fixed-point",
                    "--measure", atom_path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["deviation"] <= 1e-4

    # expo and cauchy (ROADMAP) reach down to l = 1e-12, toward which F_nu
    # grows; the table density on [0.1, 10] is a control that stays away
    @pytest.mark.parametrize("measure", [
        {"atoms": [[2.0, 0.5]], "density": [{"interval": [1e-12, "inf"],
                                             "expr": "exp(-lam)"}]},
        {"atoms": [[1.0, 1.0]], "density": [{"interval": [1e-12, "inf"],
                                             "expr": "2/(1+lam**2)"}]},
        {"density": [{"interval": [0.1, 10.0], "kind": "table", "samples": [
            [float(l), 1.3 / (1.0 + l * l)] for l in np.geomspace(0.1, 10.0, 64)]}]},
    ], ids=["expo", "cauchy", "table"])
    def test_fixed_point_density(self, measure, tmp_path):
        path, out = tmp_path / "measure.json", tmp_path / "fp.json"
        path.write_text(json.dumps(measure))
        assert run(["fixed-point", "--measure", str(path),
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["deviation"] <= 1e-9


class TestRationalPath:
    COMMANDS = [["os-check"], ["fixed-point"],
                ["symbol", "--points=-2,0.5,1,3"],
                ["outer-eval", "--points", "2j,1+1j,-0.5+0.01j"]]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_atom_only_measure_integrates_nothing(self, command, two_atom_path,
                                                  monkeypatch, capsys):
        # sqrt(psi_big) of atoms is rational: F_nu, h_nu and the axis values
        # are closed forms
        calls = count_passes(monkeypatch)
        assert run([command[0], "--measure", two_atom_path, *command[1:]]) == 0
        assert not calls
        if command[0] == "fixed-point":
            assert json.loads(capsys.readouterr().out)["deviation"] <= 1e-10

    @pytest.mark.parametrize("command", ["os-check", "fixed-point"])
    def test_wide_atoms_pass(self, command, wide_atom_path, capsys):
        # both pairings are residue sums, exact to roundoff however far
        # apart the atoms lie
        assert run([command, "--measure", wide_atom_path]) == 0
        assert json.loads(capsys.readouterr().out)["deviation"] <= 1e-12

    @pytest.mark.parametrize("command", COMMANDS)
    def test_density_measure_still_integrates(self, command, sample_path,
                                              monkeypatch):
        calls = count_passes(monkeypatch)
        assert run([command[0], "--measure", sample_path, *command[1:]]) == 0
        assert calls


class TestKernelDemo:
    def test_table(self, tmp_path):
        out = tmp_path / "demo.csv"
        assert run(["kernel-demo", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == "n,halfmass_error,approx_identity_error"
        assert [int(r[0]) for r in rows] == [100, 300, 1000, 3000, 10000]
        hm = [float(r[1]) for r in rows]
        assert hm[-1] <= 0.02 and hm[0] > hm[-1]

    def test_spent_panel_budget_exits_three(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernels, "_KERNEL_QUADRATURE", QuadratureConfig(
            abs_tol=1e-12, rel_tol=1e-10, max_subdivisions=8))
        out = tmp_path / "demo.csv"
        assert run(["kernel-demo", "--out", str(out)]) == 3
        assert not out.exists()


class TestInputErrors:
    def test_missing_measure_file(self, tmp_path):
        assert run(["psi", "--measure", str(tmp_path / "nope.json"),
                    "--points", "1"]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run(["psi", "--measure", str(path), "--points", "1"]) == 2

    def test_bad_points(self, atom_path):
        assert run(["psi", "--measure", atom_path, "--points", "abc"]) == 2

    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 2

    def test_missing_required_flag(self):
        assert run(["psi", "--points", "1"]) == 2

    def test_usage_reaches_each_callers_stderr(self):
        # the parser is built once; its messages follow the current stderr
        for argv in (["frobnicate"], ["psi", "--points", "1"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert run(argv) == 2
            assert err.getvalue().startswith("usage: hardyrp")
        assert hardyrp.cli.build_parser() is hardyrp.cli.build_parser()

    def test_negative_density_interval_rejected(self, tmp_path):
        path = tmp_path / "neg.json"
        path.write_text(json.dumps(
            {"density": [{"interval": [-1.0, 1.0], "kind": "closed-form",
                          "expr": "1"}]}))
        assert run(["psi", "--measure", str(path), "--points", "1"]) == 2


def per_point_polylines(curves, width=640, height=480):
    """The points attributes as the writer once made them, point by point."""
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

    return [" ".join(f"{sx(x):.3f},{sy(y):.3f}" for x, y in zip(cx, cy))
            for cx, cy in curves]


class TestSvgWriter:
    @pytest.mark.parametrize("example", ["worked", "poles3"])
    def test_points_match_per_point_formula(self, example):
        if example == "worked":
            F = RationalPickFunction(
                np.array([[1.0, 1.0], [1.0, 0.0]], dtype=complex),
                np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex))
        else:
            v = np.array([1.0, 1j, -0.5])
            F = RationalPickFunction(
                np.array([[0.5, 1.0, 0.0], [1.0, -0.5, 0.3], [0.0, 0.3, 2.0]],
                         dtype=complex),
                np.diag([1.0, 0.0, 0.5]).astype(complex),
                ((-1.0, np.outer(v, v.conj())),
                 (2.0, np.diag([0.0, 1.0, 1.0]).astype(complex))))
        xs = np.linspace(-7.0, 7.0, 1024)
        xs = xs[np.all(np.abs(xs[:, None] - [l for l, _ in F.poles]) > 1e-9,
                       axis=1)]
        branches = eigencurves(F, xs)
        curves = [(xs, branches[:, k]) for k in range(F.dim)]
        svg = polyline_svg(curves)
        got = [part.split('"')[0] for part in svg.split('points="')[1:]]
        assert got == per_point_polylines(curves)


    def test_single_point_range(self):
        xs = np.array([0.0, 1.0])
        svg = polyline_svg([(xs, np.zeros(2))])
        assert "<polyline" in svg and svg.startswith("<svg")

    def test_two_curves_two_colors(self):
        xs = np.linspace(0.0, 1.0, 10)
        svg = polyline_svg([(xs, xs), (xs, xs * xs)])
        assert "crimson" in svg and "steelblue" in svg
