"""The runnable invariant suites: every check green, deterministic output,
and honest structure (each suite reports named checks with residuals)."""
from __future__ import annotations

import json

import pytest

from ncgauge import MatrixBasis, gellmann_basis, verify


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


@pytest.mark.parametrize("scale", [1.0, 0.05])
def test_calculus_suite_does_not_depend_on_frame_scale(monkeypatch, scale):
    # scaling the frame by s scales √g by s^dim (here 0.05^8 against
    # (2/3)^4): every verdict must read the same
    monkeypatch.setattr(
        MatrixBasis,
        "gellmann",
        classmethod(lambda cls, n: cls.from_matrices(scale * gellmann_basis(n))),
    )
    report = verify.suite_calculus(n=3)
    assert report["passed"] is True, report["checks"]


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
