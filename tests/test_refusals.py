"""Refusals: each guard raises its own error type with its own message."""
from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from ncgauge import (
    TAU_ALG,
    BasisMismatchError,
    CheckReport,
    DegreeError,
    DerForm,
    Derivation,
    MatrixBasis,
    MissingStructureError,
    NotHermitianError,
    RealStructure,
    ShapeError,
    SingularBasisError,
    UniversalForm,
    cli,
    gellmann_basis,
    grassmann_connection,
    inner_gauge,
    product_triple,
    random_form,
    structure_constants,
    trivial_triple,
    two_point_triple,
    verify,
)

B2 = MatrixBasis.gellmann(2)
EYE2 = np.eye(2, dtype=complex)


def _mixed_form():
    return DerForm.matrix(B2, EYE2) + DerForm.monomial(B2, (0,), EYE2)


def _one_form_on_two_points():
    return UniversalForm(2, 1, np.array([[0.0, 1.0], [1.0, 0.0]]))


def _similar_to_pauli():
    """``S σ_k S⁻¹`` for a non-unitary ``S``: real, closed structure constants."""
    s = np.array([[1.0, 0.5], [0.0, 1.0]])
    return s @ gellmann_basis(2) @ np.linalg.inv(s)


def _nearly_hermitian_pair():
    """``σ_z`` and ``σ_x + ε·iσ_y``: each member Hermitian to ``TAU_ALG``, but the
    projection of ``i[E_0, E_1]`` on ``E_1`` is ``4iε``, and every real part is 0."""
    sx, _, sz = gellmann_basis(2)
    return np.array([sz, sx + 0.25 * TAU_ALG * np.array([[0.0, 1.0], [-1.0, 0.0]])])


def _triple_without_j():
    return replace(two_point_triple(1, np.zeros((1, 1))), j=None, ko_dim=None)


#: case -> (the call, the error it raises, its message)
REFUSALS = {
    "dependent_structure_constants": (
        lambda: structure_constants(np.concatenate([gellmann_basis(2), gellmann_basis(2)[:1]])),
        SingularBasisError,
        "basis matrices are linearly dependent",
    ),
    "non_hermitian_structure_constants": (
        lambda: structure_constants(_similar_to_pauli()),
        NotHermitianError,
        "basis matrix 0 is not Hermitian",
    ),
    "unreal_structure_constants": (
        lambda: structure_constants(_nearly_hermitian_pair()),
        NotHermitianError,
        "structure constants are not real; basis is not Hermitian",
    ),
    "expand_wrong_shape": (
        lambda: B2.expand(np.eye(3)),
        ShapeError,
        "expected (2, 2) matrix, got (3, 3)",
    ),
    "reconstruct_wrong_shape": (
        lambda: B2.reconstruct(np.ones(4)),
        ShapeError,
        "expected 3 coefficients, got (4,)",
    ),
    "derivation_gamma_shape": (
        lambda: Derivation(B2, np.zeros((3, 3))),
        ShapeError,
        "gamma must be 2x2",
    ),
    "mixed_form_degree": (
        lambda: _mixed_form().degree(),
        DegreeError,
        "form has mixed degrees [0, 1]",
    ),
    "record_over_another_basis": (
        lambda: DerForm.from_record(MatrixBasis.gellmann(3), DerForm.matrix(B2, EYE2).to_record()),
        BasisMismatchError,
        "record was written over a different basis",
    ),
    "random_form_degree": (
        lambda: random_form(B2, 4, np.random.default_rng(0)),
        DegreeError,
        "degree must lie in 0..3",
    ),
    "real_structure_not_square": (
        lambda: RealStructure(np.ones((2, 3))),
        ShapeError,
        "real-structure matrix must be square",
    ),
    "inner_gauge_without_j": (
        lambda: inner_gauge(_triple_without_j(), np.ones(2), _one_form_on_two_points()),
        MissingStructureError,
        "inner gauge transformations need a real structure",
    ),
    "product_without_ko_dim": (
        lambda: product_triple(trivial_triple(), replace(trivial_triple(), ko_dim=None)),
        MissingStructureError,
        "product factors must declare KO-dimensions",
    ),
    "two_point_no_points": (
        lambda: two_point_triple(0, np.zeros((0, 0))),
        ShapeError,
        "the per-point dimension must be at least 1",
    ),
    "two_point_mass_shape": (
        lambda: two_point_triple(2, np.zeros((3, 3))),
        ShapeError,
        "mass block must be 2x2, got (3, 3)",
    ),
    "universal_form_no_points": (
        lambda: UniversalForm(0, 0, np.zeros(0)),
        ShapeError,
        "point set must be nonempty, got size 0",
    ),
    "universal_sum_of_degrees": (
        lambda: _one_form_on_two_points() + UniversalForm(2, 0, np.ones(2)),
        DegreeError,
        "can only add forms of equal degree",
    ),
    "report_line_unknown": (
        lambda: CheckReport("r", []).line("absent"),
        KeyError,
        "'absent'",
    ),
    "grassmann_entry_shape": (
        lambda: grassmann_connection(np.zeros((2, 2, 3, 3)), B2),
        ShapeError,
        "projector entries must form (N, N, 2, 2)",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_each_refusal_raises_its_error_and_message(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_cli_turns_a_library_error_into_exit_1(monkeypatch, capsys):
    def refuse(n, seed):
        raise SingularBasisError("basis matrices are linearly dependent")

    monkeypatch.setattr(verify, "run_all", refuse)
    assert cli.main(["verify", "--n", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: basis matrices are linearly dependent\n"
