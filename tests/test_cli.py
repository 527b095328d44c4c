"""Command-line interface: exit codes, CSV/JSON output shape, config-file
override semantics, and bit-for-bit determinism of repeated runs.

Determinism here means repeatability: the same command on the same source
tree, machine, BLAS build and BLAS thread count gives the same bytes.  It is
not promised across thread counts; between one and two OpenBLAS threads the
last digits move (row 0 of ``minimize --n 5 --seed 3`` reads
24527.749611897143 against …154), because GEMM blocking changes the order of
summation.  The tests compare runs made in one environment."""
from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ncgauge.cli import _classify_orbit, build_config, main
from ncgauge.errors import ConfigError
from ncgauge.tolerances import Check


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


MINIMIZE_HEADER = ["iter", "action", "grad_norm", "step", "backtracks"]


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def test_positional_and_flag_command_agree():
    a = build_config(["verify", "--n", "3"])
    b = build_config(["--command", "verify", "--n", "3"])
    assert (a.command, a.n) == (b.command, b.n) == ("verify", 3)


def test_config_file_overrides_flags(tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"command": "minimize", "seed": 3, "n": 3}))
    cfg = build_config(["verify", "--config", str(cfg_file), "--seed", "99"])
    assert cfg.command == "minimize"
    assert cfg.seed == 3
    assert cfg.n == 3


def test_config_rejections(tmp_path):
    with pytest.raises(ConfigError):
        build_config([])  # no command
    with pytest.raises(ConfigError):
        build_config(["verify", "--n", "1"])
    with pytest.raises(ConfigError):
        build_config(["minimize", "--dims", "8,8,8"])
    with pytest.raises(ConfigError):
        build_config(["minimize", "--dims", "128"])
    with pytest.raises(ConfigError):
        build_config(["minimize", "--dims", "xyz"])
    with pytest.raises(ConfigError):
        build_config(["minimize", "--steps", "-1"])
    with pytest.raises(ConfigError):
        build_config(["two_point", "--N", "0"])
    with pytest.raises(ConfigError):
        build_config(["verify", "--mu", "-1"])
    # NaN passes a `<= 0` test; mu and tol must be finite and positive
    for flag in ("--mu", "--tol"):
        for value in ("nan", "inf", "-inf", "0"):
            with pytest.raises(ConfigError):
                build_config(["minimize", flag, value])
    # a config number where an integer is expected is never truncated
    cfg_file = tmp_path / "numbers.json"
    for entry in ({"n": 2.5}, {"n": True}, {"dims": [8.7]}, {"dims": [8, False]},
                  {"seed": 0.5}, {"steps": float("inf")}, {"N": 1.5}, {"mu": True},
                  {"mu": 10**400}):
        cfg_file.write_text(json.dumps({"command": "minimize", **entry}))
        with pytest.raises(ConfigError):
            build_config(["--config", str(cfg_file)])
    # an integral float is still the integer it spells
    cfg_file.write_text(json.dumps({"command": "minimize", "n": 3.0, "dims": [8.0]}))
    assert build_config(["--config", str(cfg_file)]).n == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ConfigError):
        build_config(["verify", "--config", str(bad)])
    bad.write_text(json.dumps(["a", "list"]))
    with pytest.raises(ConfigError):
        build_config(["verify", "--config", str(bad)])
    bad.write_text(json.dumps({"command": "verify", "bogus_key": 1}))
    with pytest.raises(ConfigError):
        build_config(["verify", "--config", str(bad)])


def test_config_rejects_an_out_that_is_not_a_path(capsys, tmp_path):
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"command": "two_point", "out": 5}))
    with pytest.raises(ConfigError, match="out"):
        build_config(["--config", str(cfg_file)])
    code, out, err = run_main(capsys, ["--config", str(cfg_file)])
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error: out must be a path string")


@pytest.mark.parametrize("command", ["verify", "minimize", "two_point"])
def test_negative_seed_is_a_config_error(capsys, tmp_path, command):
    with pytest.raises(ConfigError, match="seed"):
        build_config([command, "--seed", "-1"])
    code, out, err = run_main(capsys, [command, "--seed", "-1"])
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: seed must be non-negative, got -1")
    cfg_file = tmp_path / "run.json"
    cfg_file.write_text(json.dumps({"command": command, "seed": -5}))
    with pytest.raises(ConfigError, match="seed"):
        build_config(["--config", str(cfg_file)])
    assert build_config([command, "--seed", "0"]).seed == 0


def test_mass_matrix_parsing(tmp_path):
    cfg_file = tmp_path / "m.json"
    cfg_file.write_text(
        json.dumps({"command": "two_point", "N": 2, "M": [[1, 0], [0, 2]]})
    )
    cfg = build_config(["--config", str(cfg_file)])
    assert cfg.m_matrix is not None and cfg.m_matrix.shape == (2, 2)
    cfg_file.write_text(
        json.dumps({"command": "two_point", "N": 3, "M": [[1, 0], [0, 2]]})
    )
    with pytest.raises(ConfigError):
        build_config(["--config", str(cfg_file)])


@pytest.mark.parametrize("im", [0.5, [[0.0, 0.0]]], ids=["scalar", "one-row"])
def test_mass_matrix_with_an_imaginary_part_of_another_shape_exits_two(capsys, tmp_path, im):
    # broadcast, 0.5 would read as 0.5j in every entry
    cfg_file = tmp_path / "m.json"
    m = {"re": [[1.0, 0.0], [0.0, 2.0]], "im": im}
    cfg_file.write_text(json.dumps({"command": "two_point", "N": 2, "M": m}))
    code, out, err = run_main(capsys, ["--config", str(cfg_file)])
    assert code == 2 and out == ""
    assert "M must be a complex matrix" in err and "shapes differ" in err


def test_exit_code_two_on_bad_config(capsys):
    code, _out, err = run_main(capsys, ["verify", "--n", "0"])
    assert code == 2
    assert "configuration error" in err
    code, _out, err = run_main(capsys, ["not_a_command"])
    assert code == 2


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_command_green_and_deterministic(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out1, _ = run_main(
        capsys, ["verify", "--n", "2", "--seed", "0", "--out", str(out_file)]
    )
    assert code == 0
    payload = json.loads(out1)
    assert payload["passed"] is True
    assert out_file.read_text() == out1
    code, out2, _ = run_main(capsys, ["verify", "--n", "2", "--seed", "0"])
    assert code == 0
    assert out2 == out1  # byte-identical rerun


# ---------------------------------------------------------------------------
# minimize command (matrix mode)
# ---------------------------------------------------------------------------

def test_minimize_converges_and_reports(capsys):
    code, out, err = run_main(capsys, ["minimize", "--n", "2", "--seed", "1"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == MINIMIZE_HEADER
    assert rows[0][0] == 0.0 and rows[-1][1] < 1e-8
    actions = [r[1] for r in rows]
    assert all(b <= a + 1e-15 for a, b in zip(actions, actions[1:]))
    # each row says how its step was taken: row 0 took none, every later
    # row a positive step after a whole number of halvings
    raw = list(csv.reader(io.StringIO(out)))[1:]
    assert all(row[4].isdigit() for row in raw)
    assert rows[0][3:] == [0.0, 0.0]
    assert all(r[3] > 0.0 for r in rows[1:])
    summary = json.loads(err)
    assert summary["converged"] is True and summary["flat"] is True
    assert summary["classification"] in ("symmetric", "canonical-flat")


@pytest.mark.parametrize(
    "argv, flat",
    [(["--seed", "1"], True), (["--r", "4", "--seed", "4"], True), (["--steps", "0"], False)],
)
def test_minimize_reports_the_flatness_bound_beside_its_verdict(capsys, argv, flat):
    _, _, err = run_main(capsys, ["minimize", "--n", "2", *argv])
    summary = json.loads(err)
    assert summary["flat"] is flat
    assert summary["flat"] == (summary["curvature_residual"] <= summary["curvature_tolerance"])
    # the default tolerance is 1e-8, the bound's tol
    assert summary["curvature_tolerance"] == 1e-8 * summary["curvature_scale"] > 0.0


@pytest.mark.parametrize("seed", [4, 6, 7])
def test_minimize_labels_the_canonical_casimir_off_r_equal_n_flat_other(capsys, seed):
    # at r = 4 a Casimir of n(n² − 1) = 6 is a spin-1/2 block beside two
    # trivial ones: the orbit of A_k = iE_k exists only on r = n
    code, _, err = run_main(capsys, ["minimize", "--n", "2", "--r", "4", "--seed", str(seed)])
    summary = json.loads(err)
    assert code == 0 and summary["flat"] is True and summary["r"] == 4
    assert summary["casimir"] == pytest.approx(6.0, abs=1e-6)
    assert summary["classification"] == "flat-other"


@pytest.mark.parametrize("residual", [float("nan"), float("inf"), math.nextafter(2e-8, 1.0)])
def test_a_failing_flatness_check_is_unconverged(residual):
    # the label reads the scale-free verdict that also sets `flat`: a NaN or
    # infinite residual, or one just past its bound tol·scale = 2e-8, is
    # unconverged; one at the bound passes, as every Check does
    assert _classify_orbit(Check("flatness", 0.0, 1e-8, 2.0), 24.0, 3, 3) == "canonical-flat"
    assert _classify_orbit(Check("flatness", 2e-8, 1e-8, 2.0), 24.0, 3, 3) == "canonical-flat"
    assert _classify_orbit(Check("flatness", residual, 1e-8, 2.0), 24.0, 3, 3) == "unconverged"


def test_minimize_is_bit_for_bit_deterministic(capsys):
    argv = ["minimize", "--n", "2", "--seed", "7", "--steps", "200"]
    code1, out1, err1 = run_main(capsys, argv)
    code2, out2, err2 = run_main(capsys, argv)
    assert (code1, out1, err1) == (code2, out2, err2)


def test_minimize_zero_steps_exits_one(capsys):
    code, out, err = run_main(capsys, ["minimize", "--n", "2", "--steps", "0", "--seed", "3"])
    assert code == 1  # budget exhausted before tolerance
    header, rows = parse_csv(out)
    assert len(rows) == 1 and rows[0][0] == 0.0
    summary = json.loads(err)
    assert summary["converged"] is False and summary["iterations"] == 0


def test_minimize_reports_stop_reason(capsys):
    for argv, reason in (
        (["minimize", "--n", "2", "--seed", "1"], "gtol"),
        (["minimize", "--n", "2", "--seed", "1", "--steps", "3"], "max_iter"),
    ):
        code, _, err = run_main(capsys, argv)
        summary = json.loads(err)
        assert summary["stop_reason"] == reason
        assert code == (0 if reason == "gtol" else 1)


def test_minimize_out_file_swaps_streams(capsys, tmp_path):
    out_file = tmp_path / "trace.csv"
    code, out, err = run_main(
        capsys, ["minimize", "--n", "2", "--seed", "1", "--out", str(out_file)]
    )
    assert code == 0
    summary = json.loads(out)  # summary moves to stdout
    assert summary["mode"] == "matrix"
    header, rows = parse_csv(out_file.read_text())
    assert header == MINIMIZE_HEADER and rows


# ---------------------------------------------------------------------------
# minimize command (lattice mode)
# ---------------------------------------------------------------------------

def test_lattice_broken_vacuum_exits_zero(capsys):
    code, out, err = run_main(capsys, ["minimize", "--dims", "8", "--n", "2"])
    assert code == 0
    # the lattice row takes no step
    raw = list(csv.reader(io.StringIO(out)))
    assert raw[0] == MINIMIZE_HEADER and [row[3:] for row in raw[1:]] == [["0.0", "0"]]
    summary = json.loads(err)
    assert summary["mode"] == "lattice"
    assert summary["action"] == 0.0
    assert summary["classification"] == "broken"


def test_lattice_two_dimensional_and_symmetric(capsys, tmp_path):
    cfg_file = tmp_path / "lat.json"
    cfg_file.write_text(
        json.dumps({"command": "minimize", "dims": [4, 4], "init": "symmetric"})
    )
    code, _out, err = run_main(capsys, ["--config", str(cfg_file)])
    assert code == 0
    summary = json.loads(err)
    assert summary["dims"] == [4, 4]
    assert summary["classification"] == "symmetric"


def test_lattice_random_start_exits_one(capsys, tmp_path):
    cfg_file = tmp_path / "lat.json"
    cfg_file.write_text(
        json.dumps({"command": "minimize", "dims": [8], "init": "random", "seed": 5})
    )
    code, _out, err = run_main(capsys, ["--config", str(cfg_file)])
    assert code == 1
    summary = json.loads(err)
    assert summary["action"] > 1e-8
    assert summary["classification"] == "unconverged"


@pytest.mark.parametrize(
    "init, code, classification", [("broken", 0, "broken"), ("random", 1, "unconverged")]
)
def test_lattice_verdict_does_not_depend_on_mu(capsys, tmp_path, init, code, classification):
    # at mu = 1e6 the exact broken vacuum's roundoff reads 2.5e-8, above an absolute
    # 1e-8; the bound grows as mu⁴ with it, so a random start still fails
    cfg_file = tmp_path / "init.json"
    cfg_file.write_text(json.dumps({"init": init}))
    argv = ["minimize", "--dims", "8", "--n", "3", "--mu", "1e6", "--config", str(cfg_file)]
    exit_code, _out, err = run_main(capsys, argv)
    assert exit_code == code
    summary = json.loads(err)
    assert summary["classification"] == classification
    assert summary["action_tolerance"] == 1e-12 * summary["action_scale"]
    assert summary["converged"] == (summary["action"] <= summary["action_tolerance"])


# ---------------------------------------------------------------------------
# two_point command
# ---------------------------------------------------------------------------

def test_two_point_real_grid_defaults(capsys):
    code, out, err = run_main(capsys, ["two_point", "--N", "2"])
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["re_phi", "im_phi", "action"]
    assert len(rows) == 81
    by_re = {round(r[0], 10): r[2] for r in rows}
    assert by_re[0.0] == pytest.approx(4.0)  # 2N at the origin, M = identity
    assert by_re[1.0] == pytest.approx(0.0, abs=1e-12)
    assert by_re[-1.0] == pytest.approx(0.0, abs=1e-12)
    summary = json.loads(err)
    assert summary["points"] == 81
    assert summary["min_action"] < 1e-12


def test_two_point_circle_grid_is_flat_minimum(capsys, tmp_path):
    cfg_file = tmp_path / "tp.json"
    cfg_file.write_text(json.dumps({"command": "two_point", "grid": "circle", "N": 3}))
    code, out, err = run_main(capsys, ["--config", str(cfg_file)])
    assert code == 0
    _header, rows = parse_csv(out)
    assert len(rows) == 64
    assert max(r[2] for r in rows) < 1e-12  # entire unit circle is a minimum
    for r in rows:
        assert r[0] ** 2 + r[1] ** 2 == pytest.approx(1.0)


def test_two_point_custom_mass_matrix(capsys, tmp_path):
    cfg_file = tmp_path / "tp.json"
    cfg_file.write_text(
        json.dumps(
            {"command": "two_point", "N": 2, "M": [[1, 0], [0, 2]], "steps": 5}
        )
    )
    code, out, _err = run_main(capsys, ["--config", str(cfg_file)])
    assert code == 0
    _header, rows = parse_csv(out)
    assert len(rows) == 5
    by_re = {round(r[0], 10): r[2] for r in rows}
    # grid -2..2 with 5 points hits 0: S(0) = 2 tr((M*M)^2) = 2(1 + 16)
    assert by_re[0.0] == pytest.approx(34.0)


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parents[1]
CONSOLE_ARGS = ["two_point", "--N", "1", "--steps", "5"]


def declared_entry_point(name):
    """The ``module:attr`` that ``[project.scripts]`` in this tree's
    ``pyproject.toml`` declares for the console script ``name``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def check_console_run(proc):
    assert proc.returncode == 0, proc.stderr
    assert "re_phi" in proc.stdout
    assert json.loads(proc.stderr)["mode"] == "two_point"


def test_console_script_installed_and_runs(tmp_path):
    # Launch the entry point the way an installed console-script wrapper
    # does -- import the declared attribute and exit with main()'s return
    # value, arguments read from sys.argv -- against this tree's src/, so
    # the check needs no install and cannot pick up another checkout.
    module, attr = declared_entry_point("ncgauge").split(":")
    wrapper = (
        "import sys\n"
        f"from {module} import {attr}\n"
        "sys.argv[0] = 'ncgauge'\n"
        f"sys.exit({attr}())\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, *CONSOLE_ARGS],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env=env,
    )
    check_console_run(proc)

    # An installed script, where there is one, is held to the same contract.
    exe = shutil.which("ncgauge")
    if exe is not None:
        proc = subprocess.run(
            [exe, *CONSOLE_ARGS],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=tmp_path,
        )
        check_console_run(proc)


def test_help_exits_zero_with_usage_on_stdout(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-m", "ncgauge.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: ncgauge")
    assert proc.stderr == ""


def top_level_modules(tmp_path, imports: str) -> set[str]:
    """Top-level names in ``sys.modules`` of a fresh interpreter, with this
    tree's ``src/`` first on ``PYTHONPATH``, after ``imports``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    code = f"import sys\n{imports}\nprint(*sorted({{m.partition('.')[0] for m in sys.modules}}))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_import_loads_no_third_party_module_beyond_numpy(tmp_path):
    # a module such as scipy.sparse would add its import time and memory to
    # every run of every command
    loaded = top_level_modules(tmp_path, "import ncgauge, ncgauge.cli, ncgauge.verify")
    extra = loaded - top_level_modules(tmp_path, "import numpy") - sys.stdlib_module_names
    assert extra == {"ncgauge"}
