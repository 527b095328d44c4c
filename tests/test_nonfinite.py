"""No non-finite input passes a verdict.

A NaN or an infinity put into one entry of any operand of a public verdict
must either raise an ``NCGaugeError`` or make the verdict fail.  Python's
``max`` keeps its running value when the next item is NaN, and a gate written
``x > bound`` is False for NaN, so either would let one through; IEEE 754-2019
§9.6 defines ``maximum`` so that it propagates NaN, as ``np.max`` does.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from ncgauge import (
    TAU_ALG,
    Check,
    LatticeConfig,
    MatrixBasis,
    MatrixConnection,
    NCGaugeError,
    NotUnitaryError,
    RealStructure,
    UniversalForm,
    check_axioms,
    flat_connection_check,
    inner_gauge,
    two_point_triple,
    vacuum_config,
)

POISONS = [np.nan, np.inf, -np.inf]
B2 = MatrixBasis.gellmann(2)

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _leaks(x: np.ndarray, value: float, verdict) -> list[tuple[int, ...]]:
    """The entries of ``x`` where ``value``, put in alone, gives a passing
    ``verdict``; an ``NCGaugeError`` counts as a refusal."""
    leaks = []
    for idx in np.ndindex(np.shape(x)):
        poisoned = np.array(x, dtype=complex)
        poisoned[idx] = value
        try:
            if verdict(poisoned):
                leaks.append(idx)
        except NCGaugeError:
            pass
    return leaks


#: operand of a triple -> (its value, the triple with it replaced)
TRIPLE_OPERANDS = {
    "generator 0": (
        lambda t: t.generators[0], lambda t, x: replace(t, generators=(x, t.generators[1]))
    ),
    "generator 1": (
        lambda t: t.generators[1], lambda t, x: replace(t, generators=(t.generators[0], x))
    ),
    "D": (lambda t: t.d, lambda t, x: replace(t, d=x)),
    "gamma": (lambda t: t.gamma, lambda t, x: replace(t, gamma=x)),
    "U": (lambda t: t.j.u, lambda t, x: replace(t, j=RealStructure(x))),
}


@pytest.mark.parametrize("value", POISONS)
@pytest.mark.parametrize("operand", list(TRIPLE_OPERANDS))
@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_no_poisoned_triple_passes_its_axiom_audit(mass, operand, value):
    t = two_point_triple(2, mass * np.eye(2))
    get, put = TRIPLE_OPERANDS[operand]
    # the massive triple fails first_order already: its verdict is every other line
    judged = {c.name for c in check_axioms(t).lines if c.passed}
    assert len(judged) == len(check_axioms(t).lines) - (mass != 0.0)

    def verdict(x):
        return all(c.passed for c in check_axioms(put(t, x)).lines if c.name in judged)

    assert not _leaks(get(t), value, verdict)


OMEGA = UniversalForm(2, 1, np.array([[0.0, 0.3 + 0.2j], [-0.7j, 0.0]]))
PHASES = np.exp(1j * np.array([0.4, 1.3]))
GAUGED = two_point_triple(2, np.array([[1.0, 2.0], [0.5, -1.0]]))


@pytest.mark.parametrize("value", POISONS)
@pytest.mark.parametrize("operand", ["u", "omega", "D"])
def test_no_poisoned_inner_gauge_passes(operand, value):
    assert inner_gauge(GAUGED, PHASES, OMEGA).report.passed
    calls = {
        "u": (PHASES, lambda x: inner_gauge(GAUGED, x, OMEGA)),
        "omega": (OMEGA.values, lambda x: inner_gauge(GAUGED, PHASES, UniversalForm(2, 1, x))),
        "D": (GAUGED.d, lambda x: inner_gauge(replace(GAUGED, d=x), PHASES, OMEGA)),
    }
    clean, call = calls[operand]
    assert not _leaks(clean, value, lambda x: call(x).report.passed)


@pytest.mark.parametrize("value", POISONS)
def test_inner_gauge_refuses_a_non_finite_phase(value):
    # the unit-modulus gate itself, before any line is computed
    with pytest.raises(NotUnitaryError):
        inner_gauge(GAUGED, np.array([value, 1.0]), OMEGA)


@pytest.mark.parametrize("value", POISONS)
@pytest.mark.parametrize("vacuum", ["zero", "canonical_flat"])
def test_no_poisoned_connection_passes_the_flatness_check(vacuum, value):
    conn = getattr(MatrixConnection, vacuum)(B2)
    assert flat_connection_check(conn).flatness.passed

    def verdict(x):
        return flat_connection_check(MatrixConnection(B2, x)).flatness.passed

    assert not _leaks(conn.coeffs, value, verdict)


@pytest.mark.parametrize("value", POISONS)
@pytest.mark.parametrize("field", ["a", "b"])
def test_no_poisoned_lattice_field_passes_the_anti_hermitian_gate(field, value):
    cfg = vacuum_config("broken", (2,), B2)

    def verdict(x):
        fields = {"a": cfg.a, "b": cfg.b, field: x}
        return LatticeConfig(cfg.dims, B2, fields["a"], fields["b"], cfg.mu) is not None

    assert not _leaks(getattr(cfg, field), value, verdict)


@pytest.mark.parametrize("residual, scale", [(np.nan, 1.0), (0.0, np.nan), (np.nan, np.nan)])
def test_a_check_with_a_nan_residual_or_scale_fails(residual, scale):
    assert not Check("poisoned", residual, TAU_ALG, scale).passed


@pytest.mark.parametrize(
    "u",
    [np.zeros((4, 4)), np.diag([1.0, 1.0, 1.0, 0.0]), np.diag([np.nan, 1.0, 1.0, 1.0])],
    ids=["zero", "rank-3", "nan"],
)
@pytest.mark.parametrize("mass", [0.0, 1.0])
def test_check_axioms_reports_a_singular_reality_operator(mass, u):
    # J X J⁻¹ has no inverse to use: every line built from U⁻¹ fails instead of
    # the audit raising numpy's LinAlgError
    t = replace(two_point_triple(2, mass * np.eye(2)), j=RealStructure(u))
    report = check_axioms(t)
    assert not report.passed
    for name in ("reality_dirac_sign", "reality_chirality_sign", "zeroth_order", "first_order"):
        assert not report.line(name).passed, name
    assert np.isnan(report.line("zeroth_order").residual)
    assert np.isnan(report.line("reality_dirac_sign").residual)
