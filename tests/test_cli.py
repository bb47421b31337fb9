"""Command-line interface tests: golden files, exit codes, output routing.

The help and generators goldens live in tests/data and are compared byte for
byte at a fixed 80-column width.  Exit codes follow the contract: 0 success,
1 verdict failure, 2 usage, input or write error.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gcelab
from gcelab.cli import main
from gcelab.scenario import builtin_scenario_names

DATA = Path(__file__).parent / "data"
FLAGS = ("--scenario", "--out", "--grid", "--h", "--lambda", "--convention", "--tol")


def run_cli(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = int(e.code or 0)
    out, err = capsys.readouterr()
    return code, out, err


def child_env(**extra) -> dict:
    """The environment with this gcelab's source root first on PYTHONPATH,
    so that child processes import the package under test."""
    src = str(Path(gcelab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


def run_proc(argv, env_extra=None, cwd=None):
    env = child_env(COLUMNS="80", **(env_extra or {}))
    return subprocess.run(
        [sys.executable, "-m", "gcelab.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
    )


class TestHelpGoldens:
    @pytest.mark.parametrize(
        "argv,golden",
        [
            (["--help"], "help_main.txt"),
            (["run", "--help"], "help_run.txt"),
            (["scan", "--help"], "help_scan.txt"),
        ],
    )
    def test_help_matches_golden(self, argv, golden, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out == (DATA / golden).read_text()

    def test_every_flag_documented(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        text = ""
        for sub in ("solve", "currents", "gce-verify", "scan", "run"):
            _, out, _ = run_cli([sub, "--help"], capsys)
            text += out
        for flag in FLAGS:
            assert flag in text, flag


class TestGenerators:
    def test_su2_matches_golden(self, capsys):
        code, out, _ = run_cli(["generators", "2"], capsys)
        assert code == 0
        assert out == (DATA / "generators_2.txt").read_text()

    def test_su3_antisymmetric_constants(self, capsys):
        code, out, _ = run_cli(["generators", "3"], capsys)
        assert code == 0
        assert "8 generators" in out
        assert "f(1,2,3) = 1" in out
        assert "f(4,5,8) = 0.866025403784" in out

    def test_rank_one_rejected(self, capsys):
        code, _, err = run_cli(["generators", "1"], capsys)
        assert code == 2
        assert "error" in err


class TestDecompose:
    def test_diagonal_matrix(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("[[0.5, 0], [0, -0.5]]\n")
        code, out, _ = run_cli(["decompose", str(path)], capsys)
        assert code == 0
        assert out.splitlines() == ["n = 2", "v0 = 0", "C(1) = 0", "C(2) = 0", "C(3) = 1"]

    def test_complex_entries(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("[[0, [0, -0.5]], [[0, 0.5], 0]]\n")
        code, out, _ = run_cli(["decompose", str(path)], capsys)
        assert code == 0
        assert "C(2) = 1" in out.splitlines()

    def test_non_hermitian_rejected(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("[[0, 1], [0, 0]]\n")
        code, _, err = run_cli(["decompose", str(path)], capsys)
        assert code == 2 and "Hermitian" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(["decompose", str(tmp_path / "gone.json")], capsys)
        assert code == 2 and "no such matrix file" in err

    def test_non_finite_entry_rejected(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("[[NaN, 0], [0, 1]]\n")
        code, out, err = run_cli(["decompose", str(path)], capsys)
        assert code == 2 and out == ""
        assert f"{path}[0][0]: expected a finite real" in err


class TestExitContract:
    def test_run_fig2_lambda_zero_succeeds(self, tmp_path):
        out = str(tmp_path / "rep")
        proc = run_proc(["run", "--scenario", "fig2", "--lambda", "0", "--out", out])
        assert proc.returncode == 0, proc.stderr
        assert "verdict: pass" in proc.stdout
        summary = json.loads(Path(out, "summary.json").read_text())
        assert summary["passed"] is True
        assert summary["domains"]["count"] == 1  # single constant current

    def test_scan_reports_second_order(self, tmp_path):
        out = str(tmp_path / "rep")
        proc = run_proc(
            ["scan", "--scenario", "unequal", "--h", "1e-2,5e-3,2.5e-3", "--out", out]
        )
        assert proc.returncode == 0, proc.stderr
        order = float(proc.stdout.split("order: ")[1].split("\n")[0])
        assert abs(order - 2.0) <= 0.2

    @pytest.mark.parametrize("name", builtin_scenario_names())
    def test_scan_passes_for_every_builtin(self, name, tmp_path, capsys):
        argv = ["scan", "--scenario", name, "--h", "1e-2,5e-3,2.5e-3", "--out", str(tmp_path)]
        code, stdout, _ = run_cli(argv, capsys)
        assert code == 0, stdout
        assert "verdict: pass" in stdout

    @pytest.mark.parametrize("name", builtin_scenario_names())
    def test_gce_verify_passes_for_every_builtin(self, name, tmp_path, capsys):
        argv = ["gce-verify", "--scenario", name, "--out", str(tmp_path)]
        code, stdout, _ = run_cli(argv, capsys)
        assert code == 0, stdout
        assert "verdict: pass" in stdout
        if name == "globalpair":
            # Unequal energies: the pair current is conserved on no domain.
            summary = json.loads((tmp_path / "summary.json").read_text())
            assert summary["domains"]["count"] == 0

    def test_scan_of_a_structurally_cancelling_current_passes_at_rounding(
        self, tmp_path, capsys
    ):
        # T_2's current of two free systems at one energy cancels to about
        # 1e-31; a floor taken from the results sat below that and read an
        # order of -0.95 from rounding.
        doc = {
            "model": "dirac",
            "n_systems": 2,
            "profile": {"segments": [{"x_lo": -2.0, "x_hi": 2.0, "v": [[0.0, 0.0], [0.0, 0.0]]}]},
            "energies": [1.3, 1.3],
            "boundaries": [
                {"kind": "incoming", "amplitude": 1.0},
                {"kind": "incoming", "amplitude": 0.5},
            ],
            "grid": {"x_min": -1.5, "x_max": 1.5, "n_points": 301},
            "generator_index": 2,
        }
        path = tmp_path / "free_pair.json"
        path.write_text(json.dumps(doc))
        argv = ["scan", "--scenario", str(path), "--h", "1e-2,5e-3,2.5e-3",
                "--out", str(tmp_path / "rep")]
        code, stdout, _ = run_cli(argv, capsys)
        assert code == 0, stdout
        assert "order: none (residuals at rounding)" in stdout
        summary = json.loads((tmp_path / "rep" / "summary.json").read_text())
        assert summary["scan"]["at_rounding"] is True

    def test_verdict_failure_exits_one_with_summary(self, tmp_path, capsys):
        out = str(tmp_path / "rep")
        code, stdout, _ = run_cli(
            ["run", "--scenario", "fig1a", "--tol", "1e-18", "--out", out], capsys
        )
        assert code == 1
        assert "verdict: fail" in stdout
        summary = json.loads(Path(out, "summary.json").read_text())
        assert summary["passed"] is False
        # One line per failing check, before the verdict.
        failed = [ln for ln in stdout.splitlines() if ln.startswith("failed check:")]
        assert failed == [
            f"failed check: domain_constancy value={summary['checks'][0]['value']:.12g} "
            "tol=1e-18 where=[0, 2]"
        ]
        assert stdout.index("domain_constancy") < stdout.index("verdict: fail")
        ok, stdout, _ = run_cli(["run", "--scenario", "fig1a", "--out", out], capsys)
        assert ok == 0 and "failed check" not in stdout

    def test_usage_errors_exit_two(self, tmp_path, capsys):
        cases = [
            ["run", "--scenario", "nope", "--out", str(tmp_path)],
            ["run", "--scenario", "translate", "--lambda", "1.0", "--out", str(tmp_path)],
            ["run", "--scenario", "free2", "--convention", "vector", "--out", str(tmp_path)],
            ["run", "--scenario", "fig1a", "--grid", "2", "--out", str(tmp_path)],
            ["scan", "--scenario", "unequal", "--h", "abc", "--out", str(tmp_path)],
            ["run"],
            ["run", "--scenario", "fig1a", "--frobnicate"],
        ]
        for argv in cases:
            code, _, err = run_cli(argv, capsys)
            assert code == 2, argv
            assert err, argv

    @pytest.mark.parametrize(
        "edit, argv, error",
        [
            pytest.param(
                lambda d: d["grid"].update(x_max=math.inf), ["run"],
                r"gcelab: error: grid\.x_max: expected a finite real number, got inf",
                id="grid.x_max"),
            pytest.param(
                lambda d: d.update(transform={"sigma": -1, "rho": math.nan}), ["run"],
                r"gcelab: error: transform\.rho: expected a finite real number, got nan",
                id="transform.rho"),
            pytest.param(
                lambda d: d["profile"]["segments"][2].update(x_hi=math.inf), ["run"],
                r"gcelab: error: profile\.segments\[2\]\.x_hi: expected a finite real",
                id="segment.x_hi"),
            pytest.param(
                lambda d: d["profile"]["segments"][0].update(x_lo=-10**400), ["run"],
                r"gcelab: error: profile\.segments\[0\]\.x_lo: expected a finite real",
                id="segment.x_lo-beyond-double"),
            pytest.param(
                lambda d: d["profile"]["segments"][1]["v"][0].__setitem__(1, math.nan), ["run"],
                r"gcelab: error: profile\.segments\[1\]\.v\[0\]\[1\]: expected a finite",
                id="segment.v"),
            pytest.param(
                lambda d: d["boundaries"][0].update(amplitude=math.nan), ["run"],
                r"gcelab: error: boundaries\[0\]\.amplitude: expected a finite real or",
                id="amplitude"),
            pytest.param(
                lambda d: d["boundaries"][1].update(amplitude=[1.0, -math.inf]), ["run"],
                r"gcelab: error: boundaries\[1\]\.amplitude: expected a finite real or",
                id="amplitude-pair"),
            pytest.param(
                lambda d: d.update(energies=[math.nan, math.nan]), ["run"],
                r"gcelab: error: energies\[0\]: expected a finite real number",
                id="energies"),
            pytest.param(None, ["run", "--lambda", "nan"],
                         r"argument --lambda: expected a finite number", id="--lambda"),
            pytest.param(None, ["run", "--tol", "nan"],
                         r"argument --tol: expected a finite number", id="--tol-nan"),
            pytest.param(None, ["run", "--tol", "inf"],
                         r"argument --tol: expected a finite number", id="--tol-inf"),
            pytest.param(None, ["run", "--tol", "-0.5"],
                         r"argument --tol: a tolerance must be >= 0", id="--tol-negative"),
            pytest.param(None, ["scan", "--h", "nan,1e-2"],
                         r"argument --h: grid spacings must be positive and finite", id="--h-nan"),
            pytest.param(None, ["scan", "--h", "1e-2,inf"],
                         r"argument --h: grid spacings must be positive and finite", id="--h-inf"),
        ],
    )
    def test_non_finite_numbers_exit_two(self, edit, argv, error, tmp_path, capsys):
        doc = json.loads((Path(gcelab.__file__).parent / "scenarios" / "fig1a.json").read_text())
        if edit is not None:
            edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "rep"
        code, _, err = run_cli([*argv, "--scenario", str(path), "--out", str(out)], capsys)
        assert code == 2
        assert re.search(error, err), err
        if edit is not None:
            assert err.count("\n") == 1, err
        assert not (out / "summary.json").exists()

    def test_coupling_at_unequal_energies_names_its_cause(self, tmp_path, capsys):
        doc = json.loads((Path(gcelab.__file__).parent / "scenarios" / "unequal.json").read_text())
        doc["profile"]["segments"][0]["v"] = [[0.2, 0.2], [0.2, 0.5]]
        path = tmp_path / "coupled.json"
        path.write_text(json.dumps(doc))
        code, stdout, err = run_cli(
            ["run", "--scenario", str(path), "--out", str(tmp_path / "out")], capsys
        )
        assert code == 2 and stdout == ""
        assert err == (
            "gcelab: error: solving the scenario systems: profile.segments[0] couples "
            "systems 1 and 2 at energies 1.5 and 1.1; a coupled profile needs one "
            "energy and one boundary kind for all systems\n"
        )

    def test_malformed_scenario_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"model": "dirac"\n')
        code, _, err = run_cli(
            ["run", "--scenario", str(bad), "--out", str(tmp_path)], capsys
        )
        assert code == 2 and "parse error" in err

    def test_output_under_a_regular_file_exits_two(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"
        code, stdout, err = run_cli(["run", "--scenario", "fig2", "--out", str(out)], capsys)
        assert code == 2 and stdout == ""
        assert err.startswith("gcelab: error: ") and err.count("\n") == 1
        assert str(out) in err

    def test_directory_in_place_of_a_table_exits_two(self, tmp_path, capsys):
        (tmp_path / "currents.csv").mkdir()
        code, stdout, err = run_cli(
            ["run", "--scenario", "fig2", "--out", str(tmp_path)], capsys
        )
        assert code == 2 and stdout == ""
        assert err.startswith(f"gcelab: error: writing {tmp_path / 'currents.csv'}: ")
        assert err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["currents.csv"]

    def test_failed_rerun_leaves_the_earlier_run_whole(self, tmp_path, capsys):
        out = str(tmp_path)
        assert run_cli(["run", "--scenario", "fig2", "--out", out], capsys)[0] == 0
        kept = {name: (tmp_path / name).read_bytes() for name in ("currents.csv", "summary.json")}
        (tmp_path / "domains.csv").unlink()
        (tmp_path / "domains.csv").mkdir()
        code, stdout, err = run_cli(
            ["run", "--scenario", "fig2", "--lambda", "0", "--out", out], capsys
        )
        assert code == 2 and stdout == ""
        assert err.startswith(f"gcelab: error: writing {tmp_path / 'domains.csv'}: ")
        # No table of the rerun replaces its file unless all of them do.
        assert {name: (tmp_path / name).read_bytes() for name in kept} == kept
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "currents.csv", "domains.csv", "summary.json"
        ]


class TestOutputRouting:
    def test_out_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("GCE_LAB_OUT", str(tmp_path / "env"))
        out = tmp_path / "flag"
        code, _, _ = run_cli(
            ["currents", "--scenario", "free2", "--grid", "51", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert (out / "currents.csv").exists()
        assert not (tmp_path / "env").exists()

    def test_env_var_used_without_flag(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "env"
        monkeypatch.setenv("GCE_LAB_OUT", str(target))
        code, _, _ = run_cli(["currents", "--scenario", "free2", "--grid", "51"], capsys)
        assert code == 0
        assert (target / "currents.csv").exists()

    def test_default_directory_under_cwd(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("GCE_LAB_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(["currents", "--scenario", "free2", "--grid", "51"], capsys)
        assert code == 0
        assert (tmp_path / "gcelab_out" / "currents.csv").exists()


class TestSubcommandOutputs:
    def test_lambda_and_delta_relation_pick_the_first_delta_in_the_file(
        self, tmp_path, capsys
    ):
        doc = json.loads((Path(gcelab.__file__).parent / "scenarios" / "fig2.json").read_text())
        doc["profile"]["deltas"].append({"x0": -1.5, "strength": [[0.4, 0.0], [0.0, 0.0]]})
        path = tmp_path / "two_deltas.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "rep"
        code, _, err = run_cli(
            ["run", "--scenario", str(path), "--lambda", "0.7", "--out", str(out)], capsys
        )
        assert code == 0, err
        summary = json.loads((out / "summary.json").read_text())
        deltas = summary["scenario"]["profile"]["deltas"]
        assert [d["x0"] for d in deltas] == [0.0, -1.5]
        assert deltas[0]["strength"][0][0] == 0.7
        # The relation judges the delta --lambda set, not the leftmost one.
        assert summary["delta_relation"]["x0"] == 0.0

    def test_solve_writes_sampled_states(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code, _, _ = run_cli(
            ["solve", "--scenario", "free2", "--grid", "101", "--out", str(out)], capsys
        )
        assert code == 0
        lines = (out / "solution.csv").read_text().rstrip("\n").split("\n")
        assert lines[0].startswith("x,re_u1,im_u1")
        assert len(lines[0].split(",")) == 1 + 2 * 4
        assert len(lines) == 1 + 101

    def test_currents_header_contract(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code, _, _ = run_cli(
            ["currents", "--scenario", "globalpair", "--grid", "101", "--out", str(out)],
            capsys,
        )
        assert code == 0
        first = (out / "currents.csv").read_text().split("\n")[0]
        assert first == "x,re_j1,im_j1,re_j0,im_j0"

    def test_gce_verify_emits_residuals_and_domains(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code, stdout, _ = run_cli(
            ["gce-verify", "--scenario", "fig1a", "--grid", "1001", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert (out / "residuals.csv").exists()
        assert (out / "domains.csv").exists()
        assert "verdict: pass" in stdout

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            code, _, _ = run_cli(
                ["run", "--scenario", "fig2", "--grid", "501", "--out", str(out)], capsys
            )
            assert code == 0
            outs.append(out)
        for name in ("currents.csv", "domains.csv", "summary.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_convention_override_accepted_for_dirac(self, tmp_path, capsys):
        out = tmp_path / "rep"
        code, _, _ = run_cli(
            [
                "currents", "--scenario", "fig1a", "--grid", "101",
                "--convention", "rotated", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["convention"] == "rotated"


def test_runtime_never_imports_scipy(tmp_path):
    """scipy is a test-only oracle: a full run must not load it, even lazily."""
    script = (
        "import sys, gcelab, gcelab.cli\n"
        f"code = gcelab.cli.main(['run', '--scenario', 'fig2', '--out', {str(tmp_path)!r}])\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(code, loaded)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_no_command_imports_numpy_ma(tmp_path):
    """numpy.ma costs a cold process about 13 ms and 1.2 MiB; set routines
    such as np.unique import it lazily, so the residual path avoids them."""
    runs = [
        ["run", "--scenario", "fig1a"],
        ["scan", "--scenario", "fig1a", "--h", "1e-2,5e-3"],
        ["gce-verify", "--scenario", "unequal"],
    ]
    script = (
        "import sys, gcelab.cli\n"
        f"for i, args in enumerate({runs!r}):\n"
        f"    code = gcelab.cli.main(args + ['--out', {str(tmp_path)!r} + str(i)])\n"
        "    print('ma', code, 'numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    seen = [line for line in proc.stdout.splitlines() if line.startswith("ma ")]
    assert seen == ["ma 0 False"] * 3
