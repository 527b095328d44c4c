"""The runnable invariant suites: every check green, deterministic output,
and honest structure (each suite reports named checks with residuals)."""
from __future__ import annotations

import json
from dataclasses import replace

import pytest

from ncgauge import LatticeConfig, MatrixBasis, MatrixConnection, gellmann_basis, verify


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
    import numpy as np

    from ncgauge import MatrixBasis, action_gradient, random_connection

    basis = MatrixBasis.gellmann(2)
    conn = random_connection(basis, rng=np.random.default_rng(5))
    g_an = action_gradient(conn)
    g_fd = verify.fd_action_gradient(conn)
    assert np.max(np.abs(g_an - g_fd)) < 1e-6
