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
    Derivation,
    LatticeConfig,
    MatrixBasis,
    MatrixConnection,
    NCGaugeError,
    NotUnitaryError,
    RealStructure,
    ShapeError,
    UniversalForm,
    check_axioms,
    flat_connection_check,
    gauge_transform,
    gellmann_basis,
    grassmann_connection,
    inner_gauge,
    lattice_gauge_transform,
    random_connection,
    random_lattice_config,
    random_unitary,
    represent_form,
    sm_algebra_fixture,
    structure_constants,
    two_point_curvature,
    two_point_triple,
    vacuum_config,
)
from ncgauge import spectral

POISONS = [np.nan, np.inf, -np.inf]
B2 = MatrixBasis.gellmann(2)

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _each_poisoned(x: np.ndarray, value: float):
    """``(idx, x with value put into entry idx)`` for each entry of ``x`` in turn."""
    for idx in np.ndindex(np.shape(x)):
        poisoned = np.array(x, dtype=complex)
        poisoned[idx] = value
        yield idx, poisoned


def _leaks(x: np.ndarray, value: float, verdict) -> list[tuple[int, ...]]:
    """The entries of ``x`` where ``value``, put in alone, gives a passing
    ``verdict``; an ``NCGaugeError`` counts as a refusal."""
    leaks = []
    for idx, poisoned in _each_poisoned(x, value):
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


#: the C (+) H (+) M3(C) fixture, and the indices that are blocks of their own
#: in the joint support of its generators and their J-conjugates: generator 0
#: (the unit of C) is nonzero on each diagonal entry there
SM = sm_algebra_fixture().triple
SM_SINGLETONS = (0, 4, 16, 17)


def _singletons(t) -> set[int]:
    gens = np.array(t.generators)
    support = np.concatenate([gens, t.j.conjugate_operator(gens)]).any(axis=0)
    support = support | support.T
    return {i for i in range(t.hilbert_dim) if support[i].sum() == 1 and support[i, i]}


def _assert_zeroth_order_fails_non_finite(t):
    line = check_axioms(t).line("zeroth_order")
    assert not line.passed and not np.isfinite(line.residual), line


@pytest.mark.parametrize("value", POISONS)
@pytest.mark.parametrize("i", SM_SINGLETONS)
def test_a_poisoned_singleton_block_of_the_fixture_fails_zeroth_order(i, value):
    # the audit multiplies block by block: a block of one index must still carry
    # the poison into the residual, and a poisoned entry between two singletons
    # must join them; the poisoned generator goes last, so no fold meets it first
    assert _singletons(SM) == set(SM_SINGLETONS) and SM.generators[0][i, i] != 0
    assert check_axioms(SM).passed
    j = SM_SINGLETONS[(SM_SINGLETONS.index(i) + 1) % len(SM_SINGLETONS)]
    for entry in ((i, i), (i, j)):
        g = np.array(SM.generators[0])
        g[entry] = value
        _assert_zeroth_order_fails_non_finite(replace(SM, generators=SM.generators[1:] + (g,)))


@pytest.mark.parametrize("value", POISONS)
@pytest.mark.parametrize("i", SM_SINGLETONS)
def test_a_poisoned_reality_operator_fails_the_fixtures_zeroth_order(i, value):
    # on the diagonal entry of a singleton and on the nonzero entry of its row
    for j in (i, int(np.flatnonzero(SM.j.u[i])[0])):
        u = np.array(SM.j.u)
        u[i, j] = value
        _assert_zeroth_order_fails_non_finite(replace(SM, j=RealStructure(u)))


@pytest.mark.parametrize("value", POISONS)
def test_a_non_finite_entry_joins_the_blocks_it_couples(value):
    # the order audit's blocks come from the operators' joint support, where a
    # non-finite entry counts: off the blocks of the finite entries it would be lost
    x = np.diag([1.0, 2.0]).astype(complex)[None]
    x[0, 0, 1] = value
    zeroth, _ = spectral._order_residuals(x, np.diag([3.0, 4.0]).astype(complex)[None], np.zeros((2, 2)))
    assert not np.isfinite(zeroth)


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


# -- gates outside the verdicts: each refuses a poisoned operand -------------

def _accepts(call):
    """A verdict for :func:`_leaks` that passes whenever ``call`` returns."""
    return lambda x: call(x) is not None


@pytest.mark.parametrize("value", POISONS)
def test_expand_refuses_a_poisoned_matrix(value):
    a = B2.reconstruct(np.array([0.3, -1.2, 0.7]))
    assert not _leaks(a, value, _accepts(B2.expand))


@pytest.mark.parametrize("value", POISONS)
def test_structure_constants_refuse_a_poisoned_family(value):
    assert not _leaks(gellmann_basis(2), value, _accepts(structure_constants))


@pytest.mark.parametrize("value", POISONS)
def test_universal_form_refuses_a_poisoned_coincident_entry(value):
    # the entries where consecutive arguments coincide must vanish
    clean = np.array([[0.0, 1.0], [1.0, 0.0]])
    for idx in [(0, 0), (1, 1)]:
        poisoned = clean.astype(complex)
        poisoned[idx] = value
        with pytest.raises(ShapeError):
            UniversalForm(2, 1, poisoned)


@pytest.mark.parametrize("value", POISONS)
def test_derivation_refuses_poisoned_coefficients(value):
    gamma = 1j * B2.mats[0] - 0.5j * B2.mats[2]
    coeffs = Derivation(B2, gamma).coeffs
    assert not _leaks(coeffs, value, _accepts(lambda x: Derivation(B2, gamma, x)))


@pytest.mark.parametrize("value", POISONS)
def test_grassmann_connection_refuses_a_poisoned_projector(value):
    # a rank-one projector of C² ⊗ C² with every entry nonzero
    v = np.array([1.0, 2.0 - 1.0j, 0.5j, -1.5])
    p = (np.outer(v, v.conj()) / np.vdot(v, v)).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    assert grassmann_connection(p, B2).shape == (2, 2)
    assert not _leaks(p, value, _accepts(lambda x: grassmann_connection(x, B2)))


@pytest.mark.parametrize("value", POISONS)
def test_two_point_curvature_refuses_a_poisoned_value(value):
    assert two_point_curvature(1.0 + 1.0j) == 4.0  # |r + 1|² − 1
    with pytest.raises(ShapeError):
        two_point_curvature(value)


@pytest.mark.parametrize("value", POISONS)
@pytest.mark.parametrize("which", [0, 1])
def test_represent_form_refuses_a_poisoned_point_projection(which, value):
    t = two_point_triple(2, np.eye(2))
    assert np.all(np.isfinite(represent_form(t, OMEGA)))

    def call(x):
        gens = list(t.generators)
        gens[which] = x
        return represent_form(replace(t, generators=tuple(gens)), OMEGA)

    assert not _leaks(t.generators[which], value, _accepts(call))


# -- the gauge transforms refuse a poisoned or misshapen g --------------------

@pytest.mark.parametrize("value", POISONS)
@pytest.mark.parametrize("dims", [(3,), (2, 2)])
def test_lattice_gauge_transform_refuses_a_poisoned_site(dims, value):
    rng = np.random.default_rng(5)
    cfg = random_lattice_config(dims, B2, 1.0, rng)
    g = np.stack([random_unitary(2, rng) for _ in range(int(np.prod(dims)))]).reshape(dims + (2, 2))
    assert lattice_gauge_transform(cfg, g) is not None
    for _, poisoned in _each_poisoned(g, value):  # one site at a time
        with pytest.raises(NotUnitaryError):
            lattice_gauge_transform(cfg, poisoned)


@pytest.mark.parametrize("value", POISONS)
@pytest.mark.parametrize("r", [2, 3])
def test_gauge_transform_refuses_a_poisoned_matrix(r, value):
    rng = np.random.default_rng(6)
    conn = random_connection(B2, rng, r)
    g = random_unitary(r, rng)
    assert gauge_transform(conn, g) is not None
    for _, poisoned in _each_poisoned(g, value):
        with pytest.raises(NotUnitaryError):
            gauge_transform(conn, poisoned)


def test_gauge_transforms_refuse_a_misshapen_matrix():
    rng = np.random.default_rng(7)
    cfg = random_lattice_config((3,), B2, 1.0, rng)
    for g in (np.broadcast_to(np.eye(2), (2, 2, 2)), np.broadcast_to(np.eye(3), (3, 3, 3))):
        with pytest.raises(ShapeError):
            lattice_gauge_transform(cfg, g)
    conn = random_connection(B2, rng)
    for g in (np.eye(3), np.broadcast_to(np.eye(2), (1, 2, 2))):
        with pytest.raises(ShapeError):
            gauge_transform(conn, g)
