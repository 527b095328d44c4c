"""Basis construction: generalized Gell-Mann matrices, metric, structure
constants, expansion.  Frozen values are hand-derived from the Pauli algebra
and small commutator computations."""
from __future__ import annotations

import numpy as np
import pytest

from ncgauge import (
    MatrixBasis,
    NotHermitianError,
    ShapeError,
    SingularBasisError,
    commutator,
    dagger,
    frob_norm,
    gellmann_basis,
    is_antihermitian,
    is_hermitian,
    is_traceless,
    is_unitary,
    random_antihermitian,
    random_hermitian,
    random_traceless_hermitian,
    random_unitary,
)

PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


def test_n2_is_exactly_pauli():
    mats = gellmann_basis(2)
    assert np.array_equal(mats, PAULI)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_family_properties(n):
    mats = gellmann_basis(n)
    assert mats.shape == (n**2 - 1, n, n)
    for e in mats:
        assert is_hermitian(e)
        assert is_traceless(e)
    # normalization tr(E_k E_l) = 2 delta_kl
    overlaps = np.einsum("kab,lba->kl", mats, mats)
    assert np.abs(overlaps - 2.0 * np.eye(n**2 - 1)).max() < 1e-12


def test_grouped_ordering_n3():
    mats = gellmann_basis(3)
    # symmetric pairs first: (0,1), (0,2), (1,2)
    assert mats[0][0, 1] == 1.0 and mats[0][1, 0] == 1.0
    assert mats[1][0, 2] == 1.0 and mats[2][1, 2] == 1.0
    # antisymmetric pairs next, same (j, k) order
    assert mats[3][0, 1] == -1j and mats[3][1, 0] == 1j
    assert mats[5][1, 2] == -1j
    # diagonals last
    assert np.allclose(mats[6], np.diag([1.0, -1.0, 0.0]))
    assert np.allclose(mats[7], np.diag([1.0, 1.0, -2.0]) / np.sqrt(3.0))


def test_gellmann_rejects_n_below_2():
    with pytest.raises(ShapeError):
        gellmann_basis(1)
    with pytest.raises(ShapeError):
        MatrixBasis.gellmann(0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_metric_is_two_over_n(n):
    b = MatrixBasis.gellmann(n)
    d = n**2 - 1
    assert np.abs(b.g - (2.0 / n) * np.eye(d)).max() < 1e-13
    assert np.abs(b.g_inv - (n / 2.0) * np.eye(d)).max() < 1e-12
    assert b.g_det == pytest.approx((2.0 / n) ** d, rel=1e-12)
    assert b.sqrt_g_det == pytest.approx((2.0 / n) ** (d / 2.0), rel=1e-12)


def test_structure_constants_frozen_n2(basis2):
    c = basis2.c
    # hand value: i[sx, sy] = i(2i sz) = -2 sz
    assert c[0, 1, 2] == pytest.approx(-2.0, abs=1e-13)
    assert c[1, 0, 2] == pytest.approx(2.0, abs=1e-13)
    assert c[1, 2, 0] == pytest.approx(-2.0, abs=1e-13)
    assert c[2, 0, 1] == pytest.approx(-2.0, abs=1e-13)
    # all other entries vanish
    mask = np.ones((3, 3, 3), dtype=bool)
    for perm in [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (2, 1, 0), (0, 2, 1)]:
        mask[perm] = False
    assert np.abs(c[mask]).max() < 1e-13


def test_structure_constants_frozen_n3(basis3):
    c = basis3.c
    # hand values in grouped order (S01, S02, S12, A01, A02, A12, D1, D2):
    # i[S01, S02] = -A12 and i[S01, D1] = -2 A01
    assert c[0, 1, 5] == pytest.approx(-1.0, abs=1e-13)
    assert c[0, 3, 6] == pytest.approx(-2.0, abs=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_structure_constants_defining_identity(n):
    b = MatrixBasis.gellmann(n)
    lhs = 1j * (
        np.einsum("kab,lbc->klac", b.mats, b.mats)
        - np.einsum("lab,kbc->klac", b.mats, b.mats)
    )
    rhs = np.einsum("klm,mab->klab", b.c, b.mats)
    assert frob_norm(lhs - rhs) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_structure_constants_totally_antisymmetric(n):
    # for tr(E^2) = const orthogonal bases the lowered tensor is totally
    # antisymmetric; here g is proportional to the identity so C itself is
    c = MatrixBasis.gellmann(n).c
    assert frob_norm(c + c.transpose(1, 0, 2)) < 1e-13
    assert frob_norm(c + c.transpose(0, 2, 1)) < 1e-12
    assert frob_norm(c - c.transpose(1, 2, 0)) < 1e-12


@pytest.mark.parametrize("n", [6, 8, 10])
def test_gellmann_builds_where_the_volume_is_tiny(n):
    # det g = (2/n)^(n²−1) is below 1e-10 here; positivity is a matter of
    # eigenvalue ratios, not of the volume
    b = MatrixBasis.gellmann(n)
    assert np.abs(b.g_inv @ b.g - np.eye(b.dim)).max() < 1e-12
    assert b.g_det == pytest.approx((2.0 / n) ** b.dim, rel=1e-10)


def test_from_matrices_rejects_dependent_family():
    sx = PAULI[0]
    with pytest.raises(SingularBasisError):
        MatrixBasis.from_matrices(np.array([sx, sx]))


def test_from_matrices_rejects_empty_family():
    with pytest.raises(ShapeError):
        MatrixBasis.from_matrices(np.zeros((0, 2, 2), dtype=complex))


def test_from_matrices_rejects_non_hermitian():
    bad = np.array([[[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
    with pytest.raises(NotHermitianError):
        MatrixBasis.from_matrices(bad)


def test_from_matrices_rejects_non_traceless():
    with pytest.raises(SingularBasisError):
        MatrixBasis.from_matrices(np.array([np.eye(2, dtype=complex)]))


def test_from_matrices_rejects_unclosed_family():
    # sx alone is independent but [i sx, sx] = 0 is fine; sx with sz has
    # commutator proportional to sy, outside the two-element span
    with pytest.raises(SingularBasisError):
        MatrixBasis.from_matrices(np.array([PAULI[0], PAULI[2]]))


def test_expand_reconstruct_roundtrip(basis3, rng):
    a = random_traceless_hermitian(3, rng)
    coeff = basis3.expand(a)
    assert np.abs(basis3.reconstruct(coeff) - a).max() < 1e-12
    # Hermitian input in the real span of a Hermitian basis: real coefficients
    assert np.abs(coeff.imag).max() < 1e-12


def test_expand_strict_rejects_identity_component(basis2):
    with pytest.raises(ShapeError):
        basis2.expand(np.eye(2, dtype=complex), strict=True)
    # non-strict projects the identity away
    coeff = basis2.expand(np.eye(2, dtype=complex), strict=False)
    assert np.abs(coeff).max() < 1e-13


def test_same_as(basis2, basis3):
    assert basis2.same_as(MatrixBasis.gellmann(2))
    assert not basis2.same_as(basis3)


def test_basis_arrays_are_frozen(basis2):
    with pytest.raises(ValueError):
        basis2.mats[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        basis2.c[0, 0, 0] = 5.0


def test_helper_predicates(rng):
    h = random_hermitian(3, rng)
    assert is_hermitian(h) and not is_antihermitian(h + np.eye(3))
    ah = random_antihermitian(3, rng)
    assert is_antihermitian(ah)
    u = random_unitary(4, rng)
    assert is_unitary(u)
    t = random_traceless_hermitian(4, rng)
    assert is_hermitian(t) and is_traceless(t)
    assert frob_norm(commutator(h, h)) < 1e-14
    assert np.abs(dagger(u) @ u - np.eye(4)).max() < 1e-12


@pytest.mark.parametrize("size", [1e-11, 1.0, 1e11])
def test_predicates_judge_at_the_operands_scale(size):
    # a nilpotent block is neither Hermitian nor anti-Hermitian, and a
    # multiple of the identity is not traceless, however small
    nil = size * np.array([[0, 1], [0, 0]], dtype=complex)
    assert not is_hermitian(nil)
    assert not is_antihermitian(nil)
    assert not is_traceless(size * np.eye(2))
    # and the verdicts on genuine members do not change with the size either
    assert is_hermitian(size * PAULI[0]) and is_traceless(size * PAULI[0])
    assert is_antihermitian(1j * size * PAULI[1])
