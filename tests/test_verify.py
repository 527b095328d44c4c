"""The runnable invariant suites: every check green, deterministic output,
and honest structure (each suite reports named checks with residuals)."""
from __future__ import annotations

import json
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from ncgauge import (
    TAU_ALG,
    CheckReport,
    LatticeConfig,
    MatrixBasis,
    MatrixConnection,
    action_gradient,
    frob_norm,
    gellmann_basis,
    inner_gauge,
    random_connection,
    verify,
)


@pytest.mark.parametrize("n", [2, 3])
def test_run_all_passes(n):
    report = verify.run_all(n=n, seed=0)
    assert report["passed"] is True
    assert report["n"] == n
    names = [s["suite"] for s in report["suites"]]
    assert names == [
        "universal_forms",
        f"matrix_calculus_n{n}",
        f"gauge_engine_n{n}",
        f"lattice_higgs_n{n}",
        "spectral_core",
    ]
    for suite in report["suites"]:
        assert suite["passed"] is True
        for check in suite["checks"]:
            assert check["residual"] < check["tolerance"], check


#: frame scales the verdicts must not depend on
FRAME_SCALES = [0.05, 1.0, 1e3]


def _scale_frame(monkeypatch, scale):
    # scaling the frame by s scales √g by s^dim (0.05^8 and 1e24 against
    # (2/3)^4 at n = 3): every verdict must read the same
    monkeypatch.setattr(
        MatrixBasis,
        "gellmann",
        classmethod(lambda cls, n: cls.from_matrices(scale * gellmann_basis(n))),
    )


@pytest.mark.parametrize("scale", [1.0, 0.05, 1e3])
def test_calculus_suite_does_not_depend_on_frame_scale(monkeypatch, scale):
    _scale_frame(monkeypatch, scale)
    for n in (2, 3):
        report = verify.suite_calculus(n=n)
        assert report["passed"] is True, (n, report["checks"])


@pytest.mark.parametrize("scale", FRAME_SCALES)
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("suite", ["suite_gauge", "suite_lattice"])
def test_gauge_and_lattice_suites_do_not_depend_on_frame_scale(monkeypatch, suite, n, scale):
    _scale_frame(monkeypatch, scale)
    report = getattr(verify, suite)(n=n)
    assert report["passed"] is True, report["checks"]


def _inflate(x):
    """``x`` with a relative error of 1e-6 in every entry."""
    if isinstance(x, MatrixConnection):
        return MatrixConnection(x.basis, (1 + 1e-6) * x.coeffs)
    if isinstance(x, LatticeConfig):
        return replace(x, a=(1 + 1e-6) * x.a, b=(1 + 1e-6) * x.b)
    return (1 + 1e-6) * x


#: suite -> (the name in ``verify`` whose result is inflated, the checks that
#: must fail: the targeted one and any that share the operand)
MUTATIONS = {
    "suite_universal": ("uinvolution", {"involution_antimultiplicative"}),
    "suite_calculus": ("hodge", {"double_hodge_sign"}),
    "suite_gauge": ("gauge_transform", {"gauge_invariance", "curvature_covariance"}),
    "suite_lattice": ("lattice_gauge_transform", {"constant_gauge_invariance"}),
    "suite_spectral": ("two_point_action", {"action_operator_vs_closed_form"}),
}


@pytest.mark.parametrize("suite", sorted(MUTATIONS))
def test_a_relative_error_fails_its_check_at_every_frame_scale(monkeypatch, suite):
    target, expected = MUTATIONS[suite]
    original = getattr(verify, target)
    monkeypatch.setattr(verify, target, lambda *args, **kw: _inflate(original(*args, **kw)))
    # the universal and spectral suites take no frame
    sizes = [{}] if suite in ("suite_universal", "suite_spectral") else [{"n": 2}, {"n": 3}]
    for scale in FRAME_SCALES:
        _scale_frame(monkeypatch, scale)
        for kw in sizes:
            report = getattr(verify, suite)(**kw)
            failing = {c["name"] for c in report["checks"] if not c["passed"]}
            assert failing == expected, (scale, kw, report["checks"])


def _with_hermitian_part(g):
    """``g`` plus a Hermitian part of 1e-6 of its norm."""
    x = np.random.default_rng(0).standard_normal(g.shape)
    herm = x + x.swapaxes(-1, -2)
    return g + 1e-6 * frob_norm(g) * herm / frob_norm(herm)


#: mutation of ``verify.action_gradient`` -> the gradient checks it must fail:
#: a relative error shows along the directions, a Hermitian part only in the
#: anti-Hermitian check, since the directions are anti-Hermitian
GRADIENT_MUTATIONS = {
    "inflated": (_inflate, {"gradient_vs_finite_differences"}),
    "hermitian_part": (_with_hermitian_part, {"gradient_antihermitian"}),
}


@pytest.mark.parametrize("mutation", sorted(GRADIENT_MUTATIONS))
def test_a_wrong_gradient_fails_its_check_at_every_frame_scale(monkeypatch, mutation):
    mutate, expected = GRADIENT_MUTATIONS[mutation]
    monkeypatch.setattr(verify, "action_gradient", lambda conn: mutate(action_gradient(conn)))
    for scale in FRAME_SCALES:
        _scale_frame(monkeypatch, scale)
        for n in (2, 3):
            report = verify.suite_gauge(n=n)
            failing = {c["name"] for c in report["checks"] if not c["passed"]}
            assert failing == expected, (scale, n, report["checks"])


def _polynomial(x, w, b, degree):
    """``Σ_i (w_i·x + b_i)^degree``."""
    return float(np.sum((w @ x + b) ** degree))


@pytest.mark.parametrize(
    "x_norm, v_norm", [(1e-3, 5e-4), (1.0, 0.5), (1e3, 500.0), (0.0, 1e-3), (0.0, 1e3)]
)
def test_line_derivative_is_exact_on_quartics_at_any_step(x_norm, v_norm):
    # Σ (w_i·x + b_i)⁴ is a quartic along every line; the step is
    # max(‖x‖, ‖v‖) long, here 1e-3 to 1e3, at x = 0 too, and b is as large
    rng = np.random.default_rng(3)
    for _ in range(5):
        w, b = rng.standard_normal((6, 5)), max(x_norm, v_norm) * rng.standard_normal(6)
        x, v = rng.standard_normal(5), rng.standard_normal(5)
        x *= x_norm / np.linalg.norm(x)
        v *= v_norm / np.linalg.norm(v)
        for degree in (4, 5):
            deriv, size = verify.line_derivative(partial(_polynomial, w=w, b=b, degree=degree), x, v)
            error = abs(deriv - np.sum(degree * (w @ x + b) ** (degree - 1) * (w @ v)))
            # exact on the quartic; on a quintic an error far above roundoff,
            # so exactness, not luck, carries the gradient checks
            if degree == 4:
                assert error <= 1e-13 * size, (error, size)
            else:
                assert error > 1e-6 * size, (error, size)


def test_run_all_rejects_degenerate_size():
    with pytest.raises(ValueError):
        verify.run_all(n=1)
    with pytest.raises(ValueError):
        verify.run_all(n=0)


def test_run_all_is_deterministic():
    a = json.dumps(verify.run_all(n=2, seed=7), sort_keys=True)
    b = json.dumps(verify.run_all(n=2, seed=7), sort_keys=True)
    assert a == b


def test_run_all_seed_changes_data_not_verdict():
    r1 = verify.run_all(n=2, seed=1)
    r2 = verify.run_all(n=2, seed=2)
    assert r1["passed"] and r2["passed"]
    assert json.dumps(r1) != json.dumps(r2)  # residuals differ with the draw


def test_individual_suites_report_check_names():
    s = verify.suite_calculus(n=2, seed=0)
    names = {c["name"] for c in s["checks"]}
    assert any("nilpotent" in x or "square" in x for x in names)
    assert any("leibniz" in x for x in names)
    g = verify.suite_gauge(n=2, seed=0)
    gnames = {c["name"] for c in g["checks"]}
    assert any("action" in x for x in gnames)
    assert any("gradient" in x or "gauge" in x for x in gnames)


def test_fd_gradient_helper_matches_analytic():
    basis = MatrixBasis.gellmann(2)
    conn = random_connection(basis, rng=np.random.default_rng(5))
    g_an = action_gradient(conn)
    g_fd = verify.fd_action_gradient(conn)
    assert frob_norm(g_an - g_fd) <= TAU_ALG * frob_norm(g_an)


@pytest.mark.parametrize("seed", [0, 3])
def test_spectral_suite_reports_inner_gauges_own_lines(monkeypatch, seed):
    # each gauge_* line is the inner_gauge report's line, renamed: the worst
    # of the suite's samples, field for field
    results = []

    def spy(*args):
        results.append(inner_gauge(*args))
        return results[-1]

    monkeypatch.setattr(verify, "inner_gauge", spy)
    checks = {c["name"]: c for c in verify.suite_spectral(seed=seed)["checks"]}
    assert len(results) == 6
    for name in ("route_coincidence", "gamma_invariant", "j_invariant"):
        worst = CheckReport("samples", [res.report.line(name) for res in results]).line(name)
        assert checks[f"gauge_{name}"] == replace(worst, name=f"gauge_{name}").to_record()
