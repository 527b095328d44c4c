"""The benchmark's checks accept right answers and reject wrong ones.

Run from the root of a checkout:

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ncgauge import basis as nb  # noqa: E402
from ncgauge import connections as con  # noqa: E402
from ncgauge import lattice as lat  # noqa: E402
from ncgauge import spectral as spec  # noqa: E402
from ncgauge import verify as ver  # noqa: E402


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_frame_and_structure_constants_match_the_program(n):
    frame = checks.gellmann_frame(n)
    basis = nb.MatrixBasis.gellmann(n)
    assert np.array_equal(frame, basis.mats)
    np.testing.assert_allclose(checks.structure_constants(frame), basis.c, atol=1e-13)


@pytest.fixture(scope="module")
def descended():
    frames = workloads.Frames((2,))
    start = workloads._base_start(2, 2, 1)
    res = con.minimize(con.MatrixConnection(frames.basis[2], start), gtol=workloads.GTOL)
    return frames, start, res


def _descent_problems(frames, start, res, casimir=None):
    a = np.asarray(res.connection.coeffs)
    reported = checks.casimir(a, 2) if casimir is None else casimir
    return checks.check_descent(start, res, frames.c[2], 2, reported)


def test_descent_check_accepts_a_descent(descended):
    frames, start, res = descended
    assert res.iterations == 1794
    assert _descent_problems(frames, start, res) == []


def test_descent_check_rejects_a_connection_off_flatness(descended):
    frames, start, res = descended
    rng = np.random.default_rng(3)
    bumped = res.connection.coeffs + checks.antihermitian(rng, res.connection.coeffs.shape, 1e-3)
    off = replace(res, connection=con.MatrixConnection(frames.basis[2], bumped), action=checks.ym_action(bumped, frames.c[2], 2))
    problems = _descent_problems(frames, start, off)
    assert any("curvature residual" in p for p in problems)


def test_descent_check_rejects_hermitian_parts_and_wrong_reports(descended):
    frames, start, res = descended
    bumped = res.connection.coeffs + 1e-6 * np.eye(2)
    off = replace(res, connection=con.MatrixConnection(frames.basis[2], bumped))
    assert any("anti-Hermitian" in p for p in _descent_problems(frames, start, off))
    assert any("reported action" in p for p in _descent_problems(frames, start, replace(res, action=res.action + 1e-6)))
    assert any("reported Casimir" in p for p in _descent_problems(frames, start, res, casimir=6.001))
    assert any("not converged" in p for p in _descent_problems(frames, start, replace(res, converged=False)))
    # a final action above the start's: descent from the zero connection
    assert any("outside" in p for p in _descent_problems(frames, 0.0 * start, res))


def test_descent_check_rejects_a_wrong_casimir():
    frames = workloads.Frames((2,))
    # half the canonical connection: its Casimir, 1.5, is neither 0 nor 6
    a = 1j * frames.frame[2] * 0.5
    fake = con.MinimizeResult(con.MatrixConnection(frames.basis[2], a), checks.ym_action(a, frames.c[2], 2), 0.0, 1, True)
    problems = checks.check_descent(a, fake, frames.c[2], 2, checks.casimir(a, 2))
    assert any("neither 0 nor 6" in p for p in problems)


@pytest.mark.parametrize("dims,n,mu", [((16,), 2, 1.0), ((4, 4), 3, 2.0)])
def test_spectrum_check(dims, n, mu):
    frames = workloads.Frames((n,))
    g = checks.haar_unitary(n, np.random.default_rng(0))
    eigs = lat.mass_spectrum(workloads._broken_vacuum(dims, n, mu, frames, g))
    sites = int(np.prod(dims))
    assert checks.check_spectrum(eigs, len(dims), n, sites, mu) == []
    assert checks.check_spectrum(eigs * 1.001, len(dims), n, sites, mu) != []
    shifted = np.sort(eigs).copy()
    shifted[0] += 1e-3 * sites * mu**2 / n
    assert checks.check_spectrum(shifted, len(dims), n, sites, mu) != []
    assert checks.check_spectrum(eigs[1:], len(dims), n, sites, mu) != []


@pytest.mark.parametrize("dims,n", [((8,), 2), ((4, 4), 3)])
def test_lattice_action_reference(dims, n):
    rng = np.random.default_rng(5)
    frames = workloads.Frames((n,))
    m = len(dims)
    a = checks.antihermitian(rng, dims + (m, n, n), 0.5)
    b = checks.antihermitian(rng, dims + (n * n - 1, n, n), 0.5)
    cfg = lat.LatticeConfig(dims, frames.basis[n], a, b, 1.5)
    ref = checks.lattice_action(a, b, frames.c[n], 1.5)
    assert checks.close(lat.lattice_action(cfg), ref)
    assert not checks.close(lat.lattice_action(cfg) * (1 + 1e-8), ref)
    # a wrong field strength or a missing term is seen
    assert not checks.close(checks.lattice_action(a, 0.0 * b, frames.c[n], 1.5), ref)
    g = np.array([checks.haar_unitary(n, rng) for _ in range(int(np.prod(dims)))]).reshape(dims + (n, n))
    a_g, b_g = checks.gauge_fields(a, b, g)
    assert checks.close(lat.lattice_action(lat.lattice_gauge_transform(cfg, g)), checks.lattice_action(a_g, b_g, frames.c[n], 1.5))
    assert not checks.close(checks.lattice_action(a_g, b, frames.c[n], 1.5), checks.lattice_action(a_g, b_g, frames.c[n], 1.5))


def test_two_point_checks():
    m = np.random.default_rng(2).standard_normal((3, 3))
    massive = spec.check_axioms(spec.two_point_triple(3, m))
    massless = spec.check_axioms(spec.two_point_triple(3, np.zeros((3, 3))))
    assert checks.check_two_point_report(massive, True) == []
    assert checks.check_two_point_report(massless, False) == []
    assert checks.check_two_point_report(massless, True) != []
    assert checks.check_two_point_report(massive, False) != []
    assert checks.check_clean_report(massless) == []
    assert checks.check_clean_report(massive) != []
    phi = 0.3 + 0.4j
    assert checks.close(spec.two_point_action(phi, m), checks.two_point_potential(phi, m), 1e-12)
    assert not checks.close(spec.two_point_action(phi, m) * 1.001, checks.two_point_potential(phi, m), 1e-12)


def test_scaled_triple_fault_is_seen():
    ops = workloads.build("lattice_spectral", 0)
    small = next(op for op in ops if op.metric == "small_s")
    judged = small.check(small.run())
    faults = [(label, ok) for label, ok, known in judged if known]
    assert len(faults) == 1
    assert all(ok for label, ok, known in judged if not known)


@pytest.fixture(scope="module")
def report_text():
    return json.dumps(ver.run_all(n=2, seed=0))


def test_verify_check_reads_each_residual(report_text):
    assert checks.check_verify_output(report_text, 0, 2, 0) == []
    report = json.loads(report_text)
    chk = report["suites"][2]["checks"][0]
    chk["residual"] = 2 * chk["tolerance"]  # the "passed" flags stay true
    problems = checks.check_verify_output(json.dumps(report), 0, 2, 0)
    assert len(problems) == 1 and chk["name"] in problems[0]
    chk["residual"] = float("nan")
    assert checks.check_verify_output(json.dumps(report), 0, 2, 0) != []


def test_verify_check_rejects_wrong_reports(report_text):
    report = json.loads(report_text)
    assert checks.check_verify_output(report_text, 1, 2, 0) != []
    assert checks.check_verify_output(report_text, 0, 3, 0) != []
    assert checks.check_verify_output("not json", 0, 2, 0) != []
    del report["suites"][1]
    assert checks.check_verify_output(json.dumps(report), 0, 2, 0) != []


def test_tracer_nests_spans_and_restores_the_program():
    basis = nb.MatrixBasis.gellmann(2)
    original = (con.action, vars(nb.MatrixBasis)["gellmann"], ver.action)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert con.action is not original[0] and ver.action is con.action
        with tracer.span("bench.op"):
            start = con.MatrixConnection(basis, workloads._base_start(2, 2, 0))
            res = con.minimize(start, gtol=workloads.GTOL)
            nb.MatrixBasis.gellmann(2)
    finally:
        tracer.uninstall()
    assert (con.action, vars(nb.MatrixBasis)["gellmann"], ver.action) == original
    summary = tracer.summarize(0, len(tracer.spans))
    assert summary["connections.minimize.calls"] == 1
    assert summary["connections.minimize.iterations"] == res.iterations == 13
    assert summary["basis.gellmann.calls"] == 1
    assert summary["basis.structure_constants.calls"] == 1
    assert summary["connections.minimize.action_evals"] == summary["connections.action.calls"] > res.iterations
    assert summary["connections.curvature.calls"] == summary["connections.action.calls"] + summary["connections.action_gradient.calls"]
    root = tracer.spans[0]
    total_self = sum(summary[f"{name}.self_s"] for name in spans.TRACED)
    assert 0.0 < total_self <= root[spans.END] - root[spans.START]
    assert all(s[spans.PARENT] < s[spans.ID] for s in tracer.spans)
