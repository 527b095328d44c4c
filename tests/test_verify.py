"""The runnable invariant suites: every check green, deterministic output,
and honest structure (each suite reports named checks with residuals)."""
from __future__ import annotations

import json
import re
import tracemalloc
from dataclasses import replace
from functools import lru_cache, partial

import numpy as np
import pytest

from ncgauge import (
    TAU_ALG,
    CheckReport,
    DerForm,
    LatticeConfig,
    MatrixBasis,
    MatrixConnection,
    RealStructure,
    action_gradient,
    canonical_theta,
    frob_norm,
    gellmann_basis,
    inner_gauge,
    random_connection,
    spectral,
    universal,
    verify,
    wedge,
)

from conftest import skewed_frame_of


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


def _scaled_frame(n, scale):
    # scaling the frame by s scales √g by s^dim (0.05^8 and 1e24 against
    # (2/3)^4 at n = 3): every verdict must read the same
    return MatrixBasis.from_matrices(scale * gellmann_basis(n))


def _frames(scales):
    """Frame builders ``n -> MatrixBasis``: the Gell-Mann frame times each
    scale, and ``conftest.skewed_frame_of``, whose metric is far from diagonal."""
    scaled = [pytest.param(partial(_scaled_frame, scale=s), id=str(s)) for s in scales]
    return [*scaled, pytest.param(lambda n: skewed_frame_of(n)[0], id="skewed")]


def test_run_all_builds_one_frame(monkeypatch):
    calls, gellmann = [], MatrixBasis.gellmann.__func__
    spy = classmethod(lambda cls, n: calls.append(n) or gellmann(cls, n))
    monkeypatch.setattr(MatrixBasis, "gellmann", spy)
    verify.run_all(n=2, seed=0)
    assert calls == [2]


@pytest.mark.parametrize("frame", _frames([1.0, 0.05, 1e3]))
def test_calculus_suite_does_not_depend_on_frame_scale(frame):
    for n in (2, 3):
        report = verify.suite_calculus(frame(n))
        assert report.passed, (n, report.lines)


@pytest.mark.parametrize("frame", _frames(FRAME_SCALES))
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("suite", ["suite_gauge", "suite_lattice"])
def test_gauge_and_lattice_suites_do_not_depend_on_frame_scale(suite, n, frame):
    report = getattr(verify, suite)(frame(n))
    assert report.passed, report.lines


@pytest.mark.parametrize("suite", ["suite_gauge", "suite_lattice"])
def test_gauge_and_lattice_suites_pass_on_the_skewed_frame_at_n4(suite):
    # κ(g) = 2.05e4 here
    report = getattr(verify, suite)(skewed_frame_of(4)[0])
    assert report.passed, report.lines


@lru_cache(maxsize=None)
def _skewed_calculus_n4(seed):
    return verify.suite_calculus(skewed_frame_of(4)[0], seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_calculus_suite_passes_on_the_skewed_frame_at_n4_but_for_the_double_star(seed):
    assert _failing(_skewed_calculus_n4(seed)) <= {"double_hodge_sign"}, _skewed_calculus_n4(seed).lines


@pytest.mark.xfail(strict=True, reason="the LU roundoff of the large minors of g_inv (ROADMAP item 16)")
@pytest.mark.parametrize("seed", [0, 1])
def test_double_hodge_sign_passes_on_the_skewed_frame_at_n4(seed):
    # reads 22.6 and 19.9 times its bound at seeds 0 and 1: the fix of ROADMAP
    # item 16 must turn this into a pass
    assert "double_hodge_sign" not in _failing(_skewed_calculus_n4(seed))


def _inflate(x):
    """``x`` with a relative error of 1e-6 in every entry."""
    if isinstance(x, MatrixConnection):
        return MatrixConnection(x.basis, (1 + 1e-6) * x.coeffs)
    if isinstance(x, LatticeConfig):
        return replace(x, a=(1 + 1e-6) * x.a, b=(1 + 1e-6) * x.b)
    return (1 + 1e-6) * x


def _failing(report):
    return {c.name for c in report.lines if not c.passed}


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
    run = getattr(verify, suite)
    # the universal and spectral suites take no frame
    if suite in ("suite_universal", "suite_spectral"):
        reports = [run()]
    else:
        reports = [run(_scaled_frame(n, scale)) for scale in FRAME_SCALES for n in (2, 3)]
    for report in reports:
        assert _failing(report) == expected, report.lines


def test_a_relative_error_in_the_pairing_route_fails_its_check_at_every_frame_scale(monkeypatch):
    # action_route_agreement is the one line that reads the product F* ∧ ⋆F
    original = verify.action_via_pairing
    monkeypatch.setattr(verify, "action_via_pairing", lambda conn: _inflate(original(conn)))
    for scale in FRAME_SCALES:
        for n in (2, 3, 4):
            report = verify.suite_gauge(_scaled_frame(n, scale))
            assert _failing(report) == {"action_route_agreement"}, (scale, n, report.lines)


def _unit_bracket(f):
    """The graded bracket ``[e, f]`` with the universal one-form ``e(x, y) = 1`` for
    ``x ≠ y``: a graded derivation that commutes with the involution (``e* = −e``), so
    ``duniv`` plus it keeps Leibniz and ``d(f*) = (df)*``, but its square with ``duniv``
    is the bracket with ``de ≠ 0``."""
    e = universal.UniversalForm(f.size, 1, 1.0 - np.eye(f.size))
    return universal.uproduct(e, f) - (-1.0) ** f.degree * universal.uproduct(f, e)


#: (suite, check) -> (the name in ``verify`` that is replaced, its mutation of the
#: original, the universal checks that must fail).  A uniform relative inflation of
#: ``duniv``, ``uproduct`` or ``uinvolution`` scales both sides of these three
#: checks, so each row adds a forbidden term or an error that depends on the degree
UNIVERSAL_WITNESSES = {
    ("universal_forms", "d_squared_zero"): (
        "duniv",
        lambda f: lambda w: f(w) + 1e-6 * _unit_bracket(w),
        {"d_squared_zero"},
    ),
    ("universal_forms", "graded_leibniz"): (
        "duniv",
        lambda f: lambda w: (1 + 1e-6) * f(w) if w.degree >= 1 else f(w),
        {"graded_leibniz"},
    ),
    # (−1)^p f* is still an antimultiplicative involution, but it anticommutes with d
    ("universal_forms", "d_commutes_with_involution"): (
        "uinvolution",
        lambda f: lambda w: (-1.0) ** w.degree * f(w),
        {"d_commutes_with_involution"},
    ),
}


def test_every_universal_check_has_a_witness():
    names = {("universal_forms", c.name) for c in verify.suite_universal().lines}
    rows = {("universal_forms", name) for name in MUTATIONS["suite_universal"][1]}
    assert rows | set(UNIVERSAL_WITNESSES) == names


@pytest.mark.parametrize("witness", sorted(UNIVERSAL_WITNESSES), ids="-".join)
def test_a_universal_witness_fails_its_check(monkeypatch, witness):
    target, mutate, expected = UNIVERSAL_WITNESSES[witness]
    monkeypatch.setattr(verify, target, mutate(getattr(verify, target)))
    for seed in (0, 3):
        report = verify.suite_universal(seed)
        assert report.name == witness[0]
        assert _failing(report) == expected, (seed, report.lines)


def _theta_bracket(w):
    """The graded bracket ``[θ, w]``: a derivation, so d' plus it keeps Leibniz,
    but it does not square to zero with d'."""
    theta = canonical_theta(w.basis)
    return wedge(theta, w) - (-1.0) ** w.degree() * wedge(w, theta)


def _plus_volume(w):
    """``w`` plus a top form of 1e-6 of its norm with a nonzero trace, which no
    exact form has."""
    b = w.basis
    volume = DerForm.monomial(b, tuple(range(b.dim)), np.eye(b.n) / np.sqrt(b.n))
    return w + 1e-6 * w.norm() * volume


#: witness -> (the name in ``verify`` that is replaced, its mutation of the
#: original, the calculus checks that must fail); a relative inflation leaves
#: an exact zero at zero, so d'∘d' and ∫d' are witnessed by forbidden terms
CALCULUS_WITNESSES = {
    "theta_inflated": (
        "canonical_theta",
        lambda f: lambda basis: _inflate(f(basis)),
        {"canonical_form_structure_eq", "d_equals_theta_bracket"},
    ),
    "d_plus_theta_bracket": (
        "dprime",
        lambda f: lambda w: f(w) + 1e-6 * _theta_bracket(w),
        {"canonical_form_structure_eq", "d_equals_theta_bracket", "d_squared_zero"},
    ),
    "d_inflated_from_degree_2": (
        "dprime",
        lambda f: lambda w: _inflate(f(w)) if w.degree() >= 2 else f(w),
        {"graded_leibniz"},
    ),
    "integral_of_a_volume": (
        "nc_integrate",
        lambda f: lambda w: f(_plus_volume(w)),
        {"integral_kills_exact_forms"},
    ),
}


def test_every_calculus_check_has_a_witness():
    names = {c.name for c in verify.suite_calculus(MatrixBasis.gellmann(2)).lines}
    rows = [*(row[2] for row in CALCULUS_WITNESSES.values()), MUTATIONS["suite_calculus"][1]]
    witnessed = set().union(*rows)
    assert witnessed == names


@pytest.mark.parametrize("witness", sorted(CALCULUS_WITNESSES))
def test_a_calculus_witness_fails_its_checks_at_every_frame_scale(monkeypatch, witness):
    target, mutate, expected = CALCULUS_WITNESSES[witness]
    monkeypatch.setattr(verify, target, mutate(getattr(verify, target)))
    for scale in FRAME_SCALES:
        for n in (2, 3):
            report = verify.suite_calculus(_scaled_frame(n, scale))
            assert _failing(report) == expected, (scale, n, report.lines)


def _broken_vacuum_inflated(f):
    """``vacuum_config`` with the broken vacuum's Higgs field inflated by ε = 1e-5.  The
    action is stationary at a vacuum, so the error reads at second order,
    ``(2n/(n²−1))·ε²(1 + ε)²`` of the check's scale: 1.33·ε² at n = 2 and 0.75·ε² at
    n = 3.  So 1e-6 fails its 1e-12 bound at n = 2 but not at n = 3."""
    def mutated(kind, dims, basis, *args):
        cfg = f(kind, dims, basis, *args)
        return replace(cfg, b=(1 + 1e-5) * cfg.b) if kind == "broken" else cfg
    return mutated


def _symmetric_vacuum_with_higgs(f):
    """``vacuum_config`` with ε = 1e-5 of the broken vacuum's Higgs field, ``b = ε·iE_k``,
    on the symmetric vacuum: a forbidden term, since a relative error leaves its zero
    fields at zero.  It reads at second order, ``(2n/(n²−1))·ε²(1 − ε)²`` of the check's
    scale: 1.3e-10 at n = 2 and 7.5e-11 at n = 3, against the 1e-12 bound.  A
    site-dependent ``a`` would not do on the suite's 1-D lattice: with
    ``b = 0`` its only curvature there is ``F_00 = 0``."""
    def mutated(kind, dims, basis, *args):
        cfg = f(kind, dims, basis, *args)
        broken = f("broken", dims, basis, *args)
        return replace(cfg, b=1e-5 * broken.b) if kind == "symmetric" else cfg
    return mutated


#: witness -> (the name in ``verify`` that is replaced, its mutation of the
#: original, the lattice checks that must fail)
LATTICE_WITNESSES = {
    "frame_inflated": (
        "bracket_defect",
        lambda f: lambda c, b: f(c, _inflate(b)),
        {"frame_bracket_identity"},
    ),
    "broken_vacuum_inflated": ("vacuum_config", _broken_vacuum_inflated, {"broken_vacuum_zero"}),
    "symmetric_vacuum_with_higgs": (
        "vacuum_config",
        _symmetric_vacuum_with_higgs,
        {"symmetric_vacuum_zero"},
    ),
}


@pytest.mark.parametrize("frame", _frames(FRAME_SCALES))
@pytest.mark.parametrize("witness", sorted(LATTICE_WITNESSES))
def test_a_lattice_witness_fails_its_checks_at_every_frame_scale(monkeypatch, witness, frame):
    target, mutate, expected = LATTICE_WITNESSES[witness]
    monkeypatch.setattr(verify, target, mutate(getattr(verify, target)))
    for n in (2, 3):
        report = verify.suite_lattice(frame(n))
        assert _failing(report) == expected, (n, report.lines)


def _suite(record_name):
    """A suite's name without the ``_n{n}`` of a frame suite: ``gauge_engine_n2`` is ``gauge_engine``."""
    return re.sub(r"_n\d+$", "", record_name)


def _pairs(record, failing=True):
    """The (suite, check) pairs of a ``run_all`` record: the failing ones, or all."""
    suites = record["suites"]
    return {(_suite(s["suite"]), c["name"]) for s in suites for c in s["checks"] if not (failing and c["passed"])}


#: witness -> (the name in ``verify`` that is replaced, its mutation of the
#: original, the (suite, check) pairs of ``run_all`` that must fail)
RUN_ALL_WITNESSES = {
    "broken_vacuum_inflated": (
        "vacuum_config",
        _broken_vacuum_inflated,
        {("lattice_higgs", "broken_vacuum_zero")},
    ),
    # a mass with a relative imaginary part of 1e-6 breaks only JD = DJ, which
    # needs a real mass; the massless triple is left as it is
    "complex_mass": (
        "two_point_triple",
        lambda f: lambda size, m: f(size, (1 + 1e-6j) * m),
        {("spectral_core", "two_point_sign_rows")},
    ),
}


@pytest.mark.parametrize("witness", sorted(RUN_ALL_WITNESSES))
def test_a_run_all_witness_fails_its_checks(monkeypatch, witness):
    target, mutate, expected = RUN_ALL_WITNESSES[witness]
    monkeypatch.setattr(verify, target, mutate(getattr(verify, target)))
    for n in (2, 3):
        record = verify.run_all(n=n, seed=0)
        assert _pairs(record) == expected, (n, record)


def _reality_rotated(f):
    """``inner_gauge`` reading a real structure ``J`` turned by 1e-6 between the two
    points.  The model's ``J`` is entrywise conjugation, so the implementing unitary
    ``U = π(u) J π(u) J⁻¹`` is exactly 1, and no error in ``γ`` or ``u`` moves either
    invariance line; a ``J`` that mixes the points moves both."""
    def mutated(t, u, omega):
        half, turn = t.hilbert_dim // 2, np.eye(t.hilbert_dim)
        turn[[0, half], [0, half]] = np.cos(1e-6)
        turn[[0, half], [half, 0]] = -np.sin(1e-6), np.sin(1e-6)
        return f(replace(t, j=RealStructure(turn @ t.j.u)), u, omega)
    return mutated


def _chirality_inflated(f):
    """``two_point_triple`` with ``γ`` inflated by 1e-6: ``γ² = 1`` reads it at first
    order.  Of the massive triple the suite reports only the sign rows, and
    ``Jγ = γJ`` holds at any size of ``γ``."""
    def mutated(size, m):
        t = f(size, m)
        return replace(t, gamma=_inflate(t.gamma))
    return mutated


#: witness -> (the module and the name in it that is replaced, its mutation of the
#: original, the spectral checks that must fail)
SPECTRAL_WITNESSES = {
    # only route two transforms the universal form, through spectral.uproduct
    "route_two_inflated": (
        spectral,
        "uproduct",
        lambda f: lambda *forms: _inflate(f(*forms)),
        {"gauge_route_coincidence"},
    ),
    "reality_rotated": (
        verify,
        "inner_gauge",
        _reality_rotated,
        {"gauge_gamma_invariant", "gauge_j_invariant"},
    ),
    "chirality_inflated": (
        verify,
        "two_point_triple",
        _chirality_inflated,
        {"two_point_all_axioms_massless"},
    ),
}


@pytest.mark.parametrize("witness", sorted(SPECTRAL_WITNESSES))
def test_a_spectral_witness_fails_its_checks(monkeypatch, witness):
    module, target, mutate, expected = SPECTRAL_WITNESSES[witness]
    monkeypatch.setattr(module, target, mutate(getattr(module, target)))
    for seed in (0, 3):
        report = verify.suite_spectral(seed)
        assert _failing(report) == expected, (seed, report.lines)


def test_calculus_suite_at_n5_keeps_few_top_degree_forms_alive():
    # a full degree-4 form at n = 5 is 4.25 MB, and a fresh frame makes its
    # plans (about 5.5 MB) inside the suite: the two sides of the Leibniz
    # rule and their difference fit under the bound, a fourth form does not
    basis = MatrixBasis.gellmann(5)
    tracemalloc.start()
    try:
        verify.suite_calculus(basis)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 23e6, peak


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
        for n in (2, 3):
            report = verify.suite_gauge(_scaled_frame(n, scale))
            assert _failing(report) == expected, (scale, n, report.lines)


def _negated(f):
    return lambda *args: -f(*args)


def _vacuum_scale(basis):
    """The scale ``suite_gauge`` holds both vacuum actions to: the action's size at a
    connection as large as the frame."""
    return (frob_norm(basis.g_inv) * frob_norm(basis.mats) ** 2) ** 2 / (8.0 * basis.n)


def _at_vacuum(is_vacuum):
    """A mutation of ``action`` that adds a forbidden term of 1e-6 of the vacuum check's
    scale at the connections ``is_vacuum`` picks, whose action is exactly zero."""
    def mutate(f):
        return lambda conn: f(conn) + (1e-6 * _vacuum_scale(conn.basis) if is_vacuum(conn) else 0.0)
    return mutate


def _flatness_raised(f):
    """``flat_connection_check`` with a forbidden term of 1e-6·a², ``a = ‖A‖``, added to
    its residual."""
    def mutated(conn):
        report = f(conn)
        residual = report.flatness.residual + 1e-6 * frob_norm(conn.coeffs) ** 2
        return replace(report, flatness=replace(report.flatness, residual=residual))
    return mutated


#: (suite, check) -> {the name in ``verify`` that is replaced: its mutation of the
#: original}; each row fails its own check and no other.  The action is a sum of
#: squares and each vacuum line holds an exact zero, so no relative error fails these
GAUGE_WITNESSES = {
    # the action negated wherever the suite reads it, through both routes and in its
    # gradient: consistent with itself, so only positivity sees the sign
    ("gauge_engine", "action_nonnegative"): {
        name: _negated for name in ("action", "action_via_pairing", "action_gradient")
    },
    ("gauge_engine", "symmetric_vacuum_action"): {
        "action": _at_vacuum(lambda conn: not conn.coeffs.any()),
    },
    ("gauge_engine", "canonical_flat_action"): {
        "action": _at_vacuum(lambda conn: np.array_equal(conn.coeffs, 1j * conn.basis.mats)),
    },
    ("gauge_engine", "canonical_flat_residual"): {"flat_connection_check": _flatness_raised},
}


@pytest.mark.parametrize("frame", _frames(FRAME_SCALES))
@pytest.mark.parametrize("witness", sorted(GAUGE_WITNESSES), ids="-".join)
def test_a_gauge_witness_fails_its_check_at_every_frame_scale(monkeypatch, witness, frame):
    for target, mutate in GAUGE_WITNESSES[witness].items():
        monkeypatch.setattr(verify, target, mutate(getattr(verify, target)))
    for n in (2, 3):
        report = verify.suite_gauge(frame(n))
        assert report.name == f"{witness[0]}_n{n}"
        assert _failing(report) == {witness[1]}, (n, report.lines)


def test_every_check_of_run_all_has_a_witness():
    suites = {
        "suite_universal": "universal_forms",
        "suite_calculus": "matrix_calculus",
        "suite_gauge": "gauge_engine",
        "suite_lattice": "lattice_higgs",
        "suite_spectral": "spectral_core",
    }
    rows = [
        *((suites[suite], names) for suite, (_, names) in MUTATIONS.items()),
        *(("matrix_calculus", names) for *_, names in CALCULUS_WITNESSES.values()),
        # test_a_relative_error_in_the_pairing_route_fails_its_check_at_every_frame_scale
        ("gauge_engine", {"action_route_agreement"}),
        *(("gauge_engine", names) for _, names in GRADIENT_MUTATIONS.values()),
        *(("lattice_higgs", names) for *_, names in LATTICE_WITNESSES.values()),
        *(("spectral_core", names) for *_, names in SPECTRAL_WITNESSES.values()),
        *((suite, {name}) for suite, name in [*UNIVERSAL_WITNESSES, *GAUGE_WITNESSES]),
    ]
    witnessed = {(suite, name) for suite, names in rows for name in names}
    witnessed |= {pair for *_, pairs in RUN_ALL_WITNESSES.values() for pair in pairs}
    emitted = _pairs(verify.run_all(2), failing=False)
    assert witnessed == emitted, sorted(witnessed ^ emitted)


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


def test_individual_suites_report_check_names(basis2):
    s = verify.suite_calculus(basis2, seed=0)
    names = {c.name for c in s.lines}
    assert any("nilpotent" in x or "square" in x for x in names)
    assert any("leibniz" in x for x in names)
    g = verify.suite_gauge(basis2, seed=0)
    gnames = {c.name for c in g.lines}
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
    checks = {c.name: c for c in verify.suite_spectral(seed=seed).lines}
    assert len(results) == 6
    for name in ("route_coincidence", "gamma_invariant", "j_invariant"):
        worst = CheckReport("samples", [res.report.line(name) for res in results]).line(name)
        assert checks[f"gauge_{name}"] == replace(worst, name=f"gauge_{name}")
