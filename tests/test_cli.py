import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

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
def atom_inf_path(tmp_path):
    path = tmp_path / "atom_inf.json"
    path.write_text(json.dumps({"atomInf": 0.5, "atoms": [[1, 1]], "density": [
        {"interval": [0.5, 2], "expr": "1"}]}))
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


# the function 328 of the weak family W11 (tests/test_pick.py, weak_family)
TINY_RESIDUE = """{"dim": 3,
 "C": [[[3.7280531654808713, 0.0], [-3.3842944105554547, 0.0],
        [0.812854730673824, 0.0]],
       [[-3.3842944105554547, 0.0], [8.980465292534666, 0.0],
        [12.914218511381684, 0.0]],
       [[0.812854730673824, 0.0], [12.914218511381684, 0.0],
        [4.720405208328597, 0.0]]],
 "D": [[[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]],
       [[0, 0], [0, 0], [0, 0]]],
 "poles": [{"lambda": -1.6755848857619835,
            "A": [[[5.830811084183931e-15, -1.6173258789275057e-32],
                   [-1.997700055079417e-15, -1.0913286040799295e-14],
                   [-4.8583413163395495e-15, -3.839737677679138e-15]],
                  [[-1.997700055079417e-15, 1.0913286040799295e-14],
                   [2.1110376573895907e-14, 4.089898204884508e-31],
                   [8.851198155499176e-15, -7.777618524096606e-15]],
                  [[-4.8583413163395495e-15, 3.839737677679138e-15],
                   [8.851198155499176e-15, 7.777618524096604e-15],
                   [6.57662634336706e-15, 1.1523871108506798e-31]]]}]}"""


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
        # F returns NaN at one point of the first block of circle points,
        # which every contour has: a numerical failure
        import hardyrp.pick
        real = hardyrp.pick._entries
        calls = []

        def poisoned(F, z, shifts=(0.0,)):
            calls.append(None)
            M = real(F, z, shifts)
            if len(calls) == 1:
                M[..., 0] = np.nan
            return M

        monkeypatch.setattr(hardyrp.pick, "_entries", poisoned)
        assert run(["degree", "--pick", pick_path, "--method", "winding"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("F", [
        # residues 2e-8, 4e-13 and 1.3e-10: all three count
        RationalPickFunction.scalar(0.3, 0.0, [(-1.0, 2e-8), (0.5, 4e-13),
                                               (2.0, 1.3e-10)]),
        # rank 1, but its mirror root maps within rounding of the circle
        RationalPickFunction.scalar(0.3, 1e-13),
    ], ids=["weak", "tiny-linear-term"])
    def test_counts_never_disagree_with_exit_zero(self, F, tmp_path, capsys):
        path = tmp_path / "weak.json"
        path.write_text(json.dumps(dump_pick(F)))
        rc = run(["degree", "--pick", str(path), "--method", "both"])
        out = capsys.readouterr().out
        assert rc in (0, 3)
        if rc == 0:
            counts = json.loads(out)
            assert counts["rank"] == counts["winding"] == counts["winding_pole_count"]

    def test_count_short_of_the_root_count_exits_three(self, tmp_path, capsys):
        # a rank-1 residue of 3.4e-14 against |C| = 21.8, whose mirror root
        # maps one ulp outside the unit circle: both curves wind 0 times
        path = tmp_path / "tiny-residue.json"
        path.write_text(TINY_RESIDUE)
        assert run(["degree", "--pick", str(path), "--method", "rank"]) == 0
        assert json.loads(capsys.readouterr().out)["rank"] == 1
        assert run(["degree", "--pick", str(path), "--method", "winding"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure" in captured.err
        assert "1 mirror root" in captured.err

    def test_disagreeing_counts_exit_three(self, pick_path, monkeypatch, capsys):
        monkeypatch.setattr(hardyrp.cli, "winding_counts", lambda F: (1, 2))
        assert run(["degree", "--pick", pick_path, "--method", "both"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rank 1, winding 1, winding_pole_count 2" in captured.err

    def test_one_factorization_per_call(self, tmp_path, monkeypatch, capsys):
        # the realization is factored once (D and each residue), though the
        # rank, the contour plan and is_regular all read it
        import hardyrp.pick
        real = hardyrp.pick._psd_eig
        calls = []

        def counted(A):
            calls.append(None)
            return real(A)

        monkeypatch.setattr(hardyrp.pick, "_psd_eig", counted)
        F = RationalPickFunction(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]),
                                 np.diag([1.0, 1.0, 0.0]),
                                 ((1.0, np.diag([0.0, 0.0, 1.0])),))
        path = tmp_path / "three.json"
        path.write_text(json.dumps(dump_pick(F)))
        assert run(["degree", "--pick", str(path), "--method", "both"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "rank": 3, "winding": 3, "winding_pole_count": 3, "regular": True}
        assert len(calls) == 2


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

    @staticmethod
    def compose_argv(tmp_path, **functions) -> list[str]:
        """The compose command on f, F and g, each written to a JSON file."""
        argv = ["compose"]
        for name, F in functions.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(dump_pick(F)))
            argv += [f"--{name}", str(path)]
        return argv

    def test_undefined_composition_is_input_error(self, tmp_path, capsys):
        # F = diag(z, 1) and f = 1/(1 - w): det(F - 1) vanishes identically
        argv = self.compose_argv(
            tmp_path, f=RationalPickFunction.scalar(0.0, 0.0, [(1.0, 1.0)]),
            F=RationalPickFunction(np.diag([0.0, 1.0]), np.diag([1.0, 0.0])),
            g=RationalPickFunction.scalar(0.0, 1.0))
        assert run(argv) == 2
        assert "vanishes identically" in capsys.readouterr().err

    def test_composition_law_break_exits_three(self, tmp_path, capsys):
        # two roots of z + 1/(1e10 - z) = n round to one double: degree 3,
        # where deg f deg F = 4, is a numerical failure, not an answer
        argv = self.compose_argv(
            tmp_path,
            f=RationalPickFunction.scalar(0.0, 0.0, [(0.0, 1.0), (1e-3, 1.0)]),
            F=RationalPickFunction.scalar(0.0, 1.0, [(1e10, 1.0)]),
            g=RationalPickFunction.scalar(0.0, 1.0))
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert not captured.out
        assert "numerical failure" in captured.err
        assert "degree 3" in captured.err and "= 4" in captured.err


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

    def test_linalg_error_is_numerical_failure(self, atom_path, monkeypatch,
                                               capsys):
        # LinAlgError is a ValueError, and it once exited 2 as an input error
        def fails(*args):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(hardyrp.cli, "rp_certify", fails)
        assert run(["rp-certify", "--measure", atom_path]) == 3
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("numerical failure: Eigenvalues")

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

    def test_os_check_fails_tight_tolerance(self, lebesgue_path, monkeypatch):
        # sides 1e-9 apart (relative), a resolved gap where the density's own
        # two quadratures may agree to the last digit: the exit code follows
        # --tol-rel, 1 below the gap and 0 above it
        real = hardyrp.cli.os_isometry_check

        def gapped(nu, f, g):
            lhs, _, _ = real(nu, f, g)
            rhs = lhs * (1.0 + 1e-9)
            return lhs, rhs, abs(lhs - rhs) / max(abs(lhs), abs(rhs))

        monkeypatch.setattr(hardyrp.cli, "os_isometry_check", gapped)
        for tol, code in (("1e-10", 1), ("1e-8", 0)):
            assert run(["--tol-rel", tol, "os-check",
                        "--measure", lebesgue_path]) == code

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

    @pytest.mark.parametrize("p", ["inf", "1e200"])
    def test_non_finite_p_exits_two(self, p, tmp_path):
        out = tmp_path / "demo.csv"
        assert run(["kernel-demo", f"--p={p}", "--out", str(out)]) == 2
        assert not out.exists()

    def test_unresolved_resonance_exits_three(self, tmp_path):
        out = tmp_path / "demo.csv"
        assert run(["kernel-demo", "--p=1e8", "--out", str(out)]) == 3
        assert not out.exists()


def _pick_text(C="[[[0.3, 0]]]", D="[[[1, 0]]]", pole="1.0"):
    return ('{"dim": 1, "C": %s, "D": %s, "poles": [{"lambda": %s, '
            '"A": [[[1, 0]]]}]}' % (C, D, pole))


# (command, input flag, file text, what the error message says)
MALFORMED = [
    ("psi", "--measure", "{not json", "error:"),
    ("degree", "--pick", '{"dim": 1, "C": [[1]], "D": [[[0, 0]]]}',
     "malformed Pick JSON"),
    ("degree", "--pick", '{"dim": 1, "C": 5, "D": [[[0, 0]]]}',
     "malformed Pick JSON"),
    ("degree", "--pick", "[1, 2]", "malformed Pick JSON"),
    ("psi", "--measure", '{"atoms": 5}', "malformed measure JSON"),
    ("psi", "--measure", "[1, 2]", "malformed measure JSON"),
    ("psi", "--measure",
     '{"density": [{"interval": [0.5, 2.0], "expr": "lam +"}]}',
     "density expression"),
    ("degree", "--pick", _pick_text(pole="NaN"), "pole locations must be finite"),
    ("degree", "--pick", _pick_text(pole="Infinity"),
     "pole locations must be finite"),
    ("degree", "--pick", _pick_text(C="[[[NaN, 0]]]"), "C must be finite"),
    ("degree", "--pick", _pick_text(D="[[[NaN, 0]]]"), "D must be finite"),
    ("degree", "--pick", _pick_text(D="[[[Infinity, 0]]]"), "D must be finite"),
    # JSON reads 1e400 as inf, which no int holds
    ("degree", "--pick", '{"dim": 1e400, "C": [[[1, 0]]], "D": [[[0, 0]]]}',
     "malformed Pick JSON"),
    # a missing key, not a bare KeyError's "error: 'dim'"
    ("degree", "--pick", '{"C": [[[1, 0]]], "D": [[[0, 0]]]}',
     "malformed Pick JSON: 'dim'"),
    ("degree", "--pick",
     '{"dim": 1, "C": [[[1, 0]]], "D": [[[0, 0]]], "poles": [{"A": [[[1, 0]]]}]}',
     "malformed Pick JSON: 'lambda'"),
    ("psi", "--measure", '{"density": [{"expr": "1"}]}',
     "malformed measure JSON: 'interval'"),
]


class TestInputErrors:
    def test_missing_measure_file(self, tmp_path):
        assert run(["psi", "--measure", str(tmp_path / "nope.json"),
                    "--points", "1"]) == 2

    def test_malformed_json(self, tmp_path, capsys):
        # every case is an input error (exit 2) with a one-line message, not
        # a traceback: exit 1 would read as a negative certification
        path = tmp_path / "bad.json"
        for command, flag, text, says in MALFORMED:
            path.write_text(text)
            argv = [command, flag, str(path)]
            if command == "psi":
                argv += ["--points", "1"]
            assert run(argv) == 2, text
            assert says in capsys.readouterr().err, text

    @pytest.mark.parametrize("command", ["psi", "certify-psd"])
    def test_non_finite_atom_weight_rejected(self, tmp_path, command):
        # NaN passes "w < 0", and certify-psd's "atom0 > 0" reads it as no atom
        path = tmp_path / "nan.json"
        path.write_text('{"atom0": NaN, "atoms": [[1.0, 1.0]]}')
        argv = [command, "--measure", str(path)]
        if command == "psi":
            argv += ["--points", "1"]
        assert run(argv) == 2

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

    @pytest.mark.parametrize("command, flag, anchors", [
        ("certify-psd", "--anchors", "inf+1j,2j"),
        ("hankel-gram", "--anchors", "inf+1j,2j"),
        ("fixed-point", "--anchors", "inf+1j"),
        ("os-check", "--anchor", "inf+1j"),
        ("os-check", "--anchor", "nan+1j"),
        ("certify-psd", "--anchors", "1+nanj,2j"),
        ("fixed-point", "--anchors", "1+infj"),
    ])
    @pytest.mark.parametrize("measure", ["two_atom_path", "sample_path"])
    def test_non_finite_anchor_rejected(self, command, flag, anchors, measure,
                                        request, capsys):
        # certify-psd once printed min_eig NaN with exit 1, a false
        # refutation; hankel-gram a row of zeros and os-check a deviation
        # of 0 with exit 0
        path = request.getfixturevalue(measure)
        assert run([command, "--measure", path, flag, anchors]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == ("error: kernel anchors must be finite and lie "
                                "in the open upper half-plane\n")

    @pytest.mark.parametrize("points", ["0j", "1+infj", "inf+1j", "2j,nanj"])
    @pytest.mark.parametrize("measure", ["two_atom_path", "sample_path"])
    def test_outer_eval_outside_rejected(self, points, measure, request,
                                         capsys):
        # on atoms 1+infj once printed 1,inf,nan,nan and 0j a value, both
        # with exit 0; on the sample measure 0j failed in psi_big after
        # three RuntimeWarnings
        path = request.getfixturevalue(measure)
        assert run(["outer-eval", "--measure", path, "--points", points]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (
            "error: out_eval requires a finite z with Im z > 0 and Im z >= "
            "0.001 min(1, |z|); use boundary formulas below\n")

    @pytest.mark.parametrize("args, says", [
        (["symbol", "--points=nan,1"], "the boundary phase requires finite "
                                       "nonzero x"),
        (["symbol", "--points=-inf"], "the boundary phase requires finite "
                                      "nonzero x"),
        (["symbol-from-measure", "--points=inf"], "the symbol requires "
                                                  "finite nonzero p"),
        (["rp-certify", "--times=0,nan"], "times must be finite and "
                                          "nonnegative"),
        (["rp-certify", "--times=nan"], "times must be finite and "
                                        "nonnegative"),
        (["rp-certify", "--times=1,inf"], "times must be finite and "
                                          "nonnegative"),
    ], ids=["symbol-nan", "symbol-minus-inf", "symbol-from-measure-inf",
            "rp-certify-0-nan", "rp-certify-nan", "rp-certify-inf"])
    @pytest.mark.parametrize("measure", ["two_atom_path", "sample_path"])
    def test_non_finite_point_rejected(self, args, says, measure, request,
                                       capsys):
        # symbol printed nan,nan,nan with exit 0 on atoms, and -inf read
        # "boundary modulus vanishes"; symbol-from-measure warned before
        # failing; rp-certify with a NaN time failed in a reshape or in
        # phi_from_psi
        path = request.getfixturevalue(measure)
        assert run([*args, "--measure", path]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == f"error: {says}\n"

    def test_psi_where_p_squared_underflows(self, two_atom_path, tmp_path,
                                            capsys):
        # without an atom at 0, p = 1e-200 is the p -> 0 limit 3.25/pi,
        # and no divide-by-zero warning; with one, atom0 / p^2 overflows
        assert run(["psi", "--measure", two_atom_path,
                    "--points", "1e-200"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ("p,psi\n"
                                "9.9999999999999998e-201,1.0345071300973196\n")
        assert not captured.err
        path = tmp_path / "atom0.json"
        path.write_text(json.dumps({"atom0": 1, "atoms": [[1.0, 1.0]]}))
        assert run(["psi", "--measure", str(path), "--points", "1e-160"]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == (
            "error: psi_big overflows: the atom at 0 contributes atom0 / p^2, "
            "which is not finite at the smallest p\n")

    @pytest.mark.parametrize("command", ["fixed-point", "certify-psd",
                                         "hankel-gram"])
    @pytest.mark.parametrize("measure", ["two_atom_path", "sample_path"])
    def test_empty_anchor_list_rejected(self, command, measure, request,
                                        capsys):
        # fixed-point once printed a deviation of 0.0 with exit 0, and the
        # Gram commands failed in numpy with exit 2
        path = request.getfixturevalue(measure)
        assert run([command, "--measure", path, "--anchors", ","]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err == ("error: at least one kernel anchor is "
                                "required\n")

    @pytest.mark.parametrize("argv, density, says", [
        (["psi", "--points", "1"], {"interval": [0.5, 2.0], "expr": "-1"},
         "negative at l ="),
        (["psi", "--points", "1"], {"interval": [0.5, 2.0], "kind": "table",
                                    "samples": [[0.5, 1.0], [1.0, -5.0],
                                                [2.0, 1.0]]},
         "nonnegative density values"),
        # the band pass once read the density unchecked and said compact
        (["compactness"], {"interval": [1e-6, 1.0], "expr": "lam-0.5"},
         "the density on (1e-06, 1) is negative at l ="),
    ], ids=["closed-form", "table", "compactness"])
    def test_negative_density_rejected(self, tmp_path, capsys, argv, density,
                                       says):
        # psi_big of a negative density once printed a negative value
        path = tmp_path / "neg.json"
        path.write_text(json.dumps({"density": [density]}))
        assert run([*argv, "--measure", str(path)]) == 2
        captured = capsys.readouterr()
        assert says in captured.err and not captured.out


def run_recording_warnings(argv):
    """run(argv) and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run(argv)
    return code, [str(w.message) for w in caught]


# points whose log window [log|x| - 40, log|x| + 40] leaves the doubles
OUTSIDE_THE_DOUBLES = [("outer-eval", "1e-310j"), ("symbol", "1e-310"),
                       ("outer-eval", "1e300j"), ("symbol", "1e300")]


class TestExtremePoints:
    @pytest.mark.parametrize("command, points", OUTSIDE_THE_DOUBLES)
    def test_window_outside_the_doubles_exits_three(self, command, points,
                                                    sample_path, capsys):
        # these once warned from numpy and then exited 2, saying psi_big is
        # undefined at p = 0 or the boundary modulus vanishes
        code, caught = run_recording_warnings(
            [command, "--measure", sample_path, "--points", points])
        assert code == 3 and not caught
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith(
            "numerical failure: a point of modulus ")
        assert "leaves the doubles" in captured.err
        assert "RuntimeWarning" not in captured.err

    @pytest.mark.parametrize("command, points", OUTSIDE_THE_DOUBLES)
    def test_closed_forms_take_any_point(self, command, points, two_atom_path,
                                         capsys):
        code, caught = run_recording_warnings(
            [command, "--measure", two_atom_path, "--points", points])
        assert code == 0 and not caught
        assert not capsys.readouterr().err

    @pytest.mark.parametrize("command, points", [("outer-eval", "1e140j"),
                                                 ("symbol", "1e140")])
    def test_psi_big_underflow_exits_three(self, command, points, sample_path,
                                           capsys):
        # the window reaches p = 1.49e154, where p^2 overflows and psi_big is
        # 0; these once exited 2, saying the boundary modulus vanishes
        code, caught = run_recording_warnings(
            [command, "--measure", sample_path, "--points", points])
        assert code == 3 and not caught
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith(
            "numerical failure: psi_big underflows to 0 at p = 1.49e+154")

    @pytest.mark.parametrize("args, measure, out", [
        (["psi", "--points", "1e200"], "sample_path",
         "p,psi\n9.9999999999999997e+199,0\n"),
        (["psi", "--points", "1e200"], "two_atom_path",
         "p,psi\n9.9999999999999997e+199,0\n"),
        (["symbol", "--points", "1e300"], "two_atom_path",
         "x,h_re,h_im\n1.0000000000000001e+300,-1,1.2246467991473532e-16\n"),
        (["outer-eval", "--points", "1e130j"], "sample_path",
         "z_re,z_im,F_re,F_im\n0,1.0000000000000001e+130,"
         "1.3962979814050006e-130,0\n"),
        (["outer-eval", "--points", "1e200j"], "atom_inf_path",
         "z_re,z_im,F_re,F_im\n0,9.9999999999999997e+199,"
         "0.3989422804014327,0\n"),
    ], ids=["psi-sample", "psi-atoms", "symbol-atoms", "outer-sample",
            "outer-atom-inf"])
    def test_huge_points_do_not_overflow(self, args, measure, out, request,
                                         capsys):
        # p * p in psi_big and x * x in the rational phase once warned of
        # an overflow before printing these values; the window of 1e130j
        # stays below the p where psi_big underflows, and an atom at
        # infinity keeps psi_big >= atom_inf / pi at every p
        code, caught = run_recording_warnings(
            [*args, "--measure", request.getfixturevalue(measure)])
        assert code == 0 and not caught
        assert capsys.readouterr() == (out, "")

    @pytest.mark.parametrize("args, density", [
        (["psi", "--points", "1e120"], "2/(1+lam**2)"),
        (["outer-eval", "--points", "1e90j"], "(1+lam)**-1.5"),
    ], ids=["psi-lebesgue", "outer-heavy"])
    def test_beyond_the_density_cut_exits_three(self, args, density, tmp_path,
                                                capsys):
        # the mass is finite, so a psi_big whose integrand has not decayed at
        # the cut l = e^300 is out of reach, not divergent: these once
        # exited 2, saying the integral diverges
        path = tmp_path / "finite.json"
        path.write_text(json.dumps({"density": [
            {"interval": [1e-12, "inf"], "expr": density}]}))
        code, caught = run_recording_warnings([*args, "--measure", str(path)])
        assert code == 3 and not caught
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("numerical failure: psi_big at p = ")
        assert captured.err.endswith(" is beyond the reach of the density "
                                     "cut l = e^300, though the mass is "
                                     "finite\n")

    def test_infinite_mass_exits_two_without_warning(self, tmp_path, capsys):
        # w (1 + l^2) overflowed with a numpy warning on the way to exit 2;
        # under python -W error the warning was a traceback and exit 1
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({"density": [
            {"interval": [1, "inf"], "expr": "1"}]}))
        code, caught = run_recording_warnings(
            ["psi", "--points", "1", "--measure", str(path)])
        assert code == 2 and not caught
        assert capsys.readouterr() == (
            "", "error: integral against the measure is not finite\n")


class TestSecularRoots:
    """Atoms so far apart that the rational form's roots lose their
    doubles: an answer to 1e-13 or exit 3, never a wrong one or a warning."""

    @pytest.mark.parametrize("far", ["1e20", "1e40", "1e80", "1e150"])
    def test_far_atom_answers_or_exits_three(self, far, capsys):
        # 1e40 once printed 1/sqrt(pi), and from 1e80 on with numpy's
        # overflow warnings, both with exit 0
        code, caught = run_recording_warnings(
            ["outer-eval", "--points", "1j", "--measure",
             f'{{"atoms": [[1, 1], [{far}, 1]]}}'])
        assert not caught
        out, err = capsys.readouterr()
        if code == 0:
            assert abs(float(out.splitlines()[1].split(",")[2])
                       - 0.77069730367679801) <= 1e-13
        else:
            assert code == 3 and not out
            assert err.startswith("numerical failure: the roots of "
                                  "psi_big's numerator have not converged")

    @pytest.mark.parametrize("atoms, says", [
        # w (1 + l^2) overflows at l = 1e200
        ("[[1e-200, 1], [1, 1], [1e200, 1]]", "the atom at l = 1e+200 "),
        # both l^2 underflow to 0
        ("[[1e-170, 1], [1e-165, 1], [1, 1]]",
         "the atoms at l = 1e-170 and 1e-165 ")])
    def test_atoms_beyond_the_doubles_exit_three(self, atoms, says, capsys):
        # both once printed nan,nan with exit 0, after numpy warnings
        code, caught = run_recording_warnings(
            ["symbol", "--points", "1,2", "--measure",
             f'{{"atoms": {atoms}}}'])
        assert code == 3 and not caught
        out, err = capsys.readouterr()
        assert not out
        assert err.startswith(f"numerical failure: {says}")


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


# runs each argv list of sys.argv[1] in this interpreter, then prints the
# exit codes and the scipy modules it loaded
EVERY_SUBCOMMAND = """
import contextlib, io, json, sys
from hardyrp.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    codes = [run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy"
                                or m.split(".")[:2] == ["numpy", "ma"])]))
"""


def test_no_subcommand_imports_scipy(sample_path, pick_path, tmp_path):
    # numpy is hardyrp's one run-time dependency; numpy.ma, which np.unique
    # imports, stays out too (11-13 ms of each command's start-up)
    m, pick = ["--measure", sample_path], ["--pick", pick_path]
    argvs = [["psi", *m, "--points", "0.5,1,3"],
             ["outer-eval", *m, "--points", "2j,1+1j"],
             ["symbol", *m, "--points=-2,0.5,3"],
             ["symbol-from-measure", *m, "--points", "0.5,1,3"],
             ["hankel-gram", *m], ["certify-psd", *m], ["rp-certify", *m],
             ["os-check", *m], ["compactness", *m], ["fixed-point", *m],
             ["kernel-demo"], ["degree", *pick],
             ["compose", "--f", TestCompose.shift(tmp_path, -1.0), "--F",
              pick_path, "--g", TestCompose.shift(tmp_path, 1.0)],
             ["plot-eigencurves", *pick]]
    usage = hardyrp.cli.build_parser().format_usage()
    assert {a[0] for a in argvs} == set(
        usage.split("{")[1].split("}")[0].split(","))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", EVERY_SUBCOMMAND, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    codes, unwanted = json.loads(done.stdout)
    assert codes == [0] * len(argvs), done.stderr
    assert unwanted == []
