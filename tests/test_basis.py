"""Basis construction: generalized Gell-Mann matrices, metric, structure
constants, expansion.  Frozen values are hand-derived from the Pauli algebra
and small commutator computations."""
from __future__ import annotations

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from ncgauge import basis as basis_module
from ncgauge import (
    TAU_ALG,
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


@pytest.mark.parametrize("n, scale", [(n, 1.0) for n in range(2, 9)] + [(5, 0.05), (5, 1e3)])
def test_an_orthogonal_family_has_an_exactly_diagonal_metric(n, scale):
    # tr(E_k E_l) of distinct Gell-Mann matrices is an exact zero; its roundoff
    # (up to 1.1e-17 in g and 1.1e-16 in g_inv at n = 5…8) is not kept, at any scale
    b = MatrixBasis.from_matrices(scale * gellmann_basis(n))
    for m in (b.g, b.g_inv):
        assert np.array_equal(m, np.diag(np.diag(m)))


NORMAL_FRAME_CASES = [(n, "gellmann") for n in (2, 3, 4, 5)] + [(n, "skewed") for n in (2, 3)]


@pytest.mark.parametrize("n, frame", NORMAL_FRAME_CASES)
def test_normal_frame_carries_the_gellmann_metric(n, frame, skewed_frame):
    b = MatrixBasis.gellmann(n) if frame == "gellmann" else skewed_frame(n)[0]
    lower, c = b.normal_frame
    assert np.array_equal(lower, np.tril(lower))
    assert np.abs(lower @ lower.T - (2.0 / n) * b.g_inv).max() <= 1e-13 * np.abs(b.g_inv).max()
    mats = np.einsum("ac,aij->cij", lower, b.mats)
    metric = np.einsum("kab,lba->kl", mats, mats).real / n
    assert np.abs(metric - (2.0 / n) * np.eye(b.dim)).max() < 1e-13
    bracket = 1j * (np.einsum("kab,lbc->klac", mats, mats) - np.einsum("lab,kbc->klac", mats, mats))
    assert frob_norm(bracket - np.einsum("klm,mab->klab", c, mats)) < 1e-12 * frob_norm(bracket)
    if frame == "gellmann" and n <= 4:
        # the frame is already normal: every Gell-Mann output is unchanged
        assert np.array_equal(lower, np.eye(b.dim)) and np.array_equal(c, b.c)


@pytest.mark.parametrize("n, frame", [(2, "gellmann"), (3, "gellmann"), (2, "skewed"), (3, "skewed")])
def test_basis_and_normal_frame_form_one_commutator_table(n, frame, skewed_frame, monkeypatch):
    # the normal frame's C̃ is C transformed as a tensor: building a basis and
    # then its normal frame projects one commutator table, not two, against
    # the one metric the basis forms
    calls, metrics = [], []
    structure_constants, metric = basis_module._structure_constants, basis_module._metric

    def counted(mats, g):
        calls.append(mats.shape)
        return structure_constants(mats, g)

    def counted_metric(mats):
        metrics.append(mats.shape)
        return metric(mats)

    monkeypatch.setattr(basis_module, "_structure_constants", counted)
    monkeypatch.setattr(basis_module, "_metric", counted_metric)
    b = MatrixBasis.gellmann(n) if frame == "gellmann" else skewed_frame(n)[0]
    lower, c = b.normal_frame
    assert calls == metrics == [(n * n - 1, n, n)]
    assert not c.flags.writeable and not lower.flags.writeable
    # C̃ is stored as C is, last index slowest, the layout the gradient's view reads
    assert c.strides == b.c.strides


def su_n_structure_constants(n: int) -> np.ndarray:
    """Closed-form ``C[k, l, m]`` of the grouped Gell-Mann basis, entry by entry from
    the labels ``S_jk``, ``A_jk`` and ``D_m`` (Bertlmann and Krammer, J. Phys. A 41
    (2008) 235303; Bossion and Huo, arXiv:2108.07219), with no matrix product.

    With ``tr(E_k E_l) = 2δ_kl`` the tensor ``f`` of ``[E_k, E_l] = 2i f_klm E_m`` is
    totally antisymmetric, and ``i[E_k, E_l] = C_klm E_m`` gives ``C = −2f``.  For
    ``j < k < l``: ``f(S_jk, S_jl, A_kl) = f(A_jk, S_jl, S_kl) = f(A_jk, A_jl, A_kl)
    = 1/2`` and ``f(S_jk, A_jl, S_kl) = −1/2``; for ``j < k``:
    ``f(S_jk, A_jk, D_m) = (d_m(j) − d_m(k))/2``, with ``d_m(i)`` the ``i``-th diagonal
    entry of ``D_m``.  Every other entry not a permutation of these is zero."""
    pairs = list(combinations(range(n), 2))
    sym = {jk: i for i, jk in enumerate(pairs)}
    asym = {jk: len(pairs) + i for i, jk in enumerate(pairs)}
    f = np.zeros((n * n - 1,) * 3)

    def put(x, y, z, value):
        for (p, q, r), sign in (((x, y, z), 1), ((y, z, x), 1), ((z, x, y), 1),
                                ((y, x, z), -1), ((x, z, y), -1), ((z, y, x), -1)):
            f[p, q, r] = sign * value

    def diag(m, i):  # entry i (from 0) of D_m = sqrt(2/(m(m+1)))·diag(1, …, 1, −m, 0, …)
        return math.sqrt(2.0 / (m * (m + 1))) * (1.0 if i < m else -m if i == m else 0.0)

    for j, k, l in combinations(range(n), 3):
        put(sym[j, k], sym[j, l], asym[k, l], 0.5)
        put(sym[j, k], asym[j, l], sym[k, l], -0.5)
        put(asym[j, k], sym[j, l], sym[k, l], 0.5)
        put(asym[j, k], asym[j, l], asym[k, l], 0.5)
    for j, k in pairs:
        for m in range(1, n):
            put(sym[j, k], asym[j, k], 2 * len(pairs) + m - 1, (diag(m, j) - diag(m, k)) / 2.0)
    return -2.0 * f


def test_su_n_oracle_reads_the_standard_su3_constants():
    # the textbook f_abc of λ_1 … λ_8, which are in grouped order
    # (S01, S02, S12, A01, A02, A12, D1, D2) = (λ1, λ4, λ6, λ2, λ5, λ7, λ3, λ8)
    grouped = {1: 0, 4: 1, 6: 2, 2: 3, 5: 4, 7: 5, 3: 6, 8: 7}
    f = -su_n_structure_constants(3) / 2.0
    half_root3 = math.sqrt(3.0) / 2.0
    textbook = {(1, 2, 3): 1.0, (1, 4, 7): 0.5, (1, 5, 6): -0.5, (2, 4, 6): 0.5, (2, 5, 7): 0.5,
                (3, 4, 5): 0.5, (3, 6, 7): -0.5, (4, 5, 8): half_root3, (6, 7, 8): half_root3}
    for (a, b, c), value in textbook.items():
        assert f[grouped[a], grouped[b], grouped[c]] == pytest.approx(value, abs=1e-15)
    assert np.count_nonzero(f) == 6 * len(textbook)


@pytest.mark.parametrize("n", range(2, 9))
def test_structure_constants_match_the_closed_form_su_n_oracle(n):
    c = MatrixBasis.gellmann(n).c
    assert frob_norm(c - su_n_structure_constants(n)) <= TAU_ALG * frob_norm(c)


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


def test_structure_constants_hold_no_projection_through_the_closure_check():
    # at n = 8 the commutator table and the projection rhs are 4 MB each;
    # holding rhs through the closure check read a 16.1 MB peak, and a
    # complex solve and its real copy read 12.1 MB
    mats = gellmann_basis(8)
    tracemalloc.start()
    try:
        basis_module.structure_constants(mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11e6, peak


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
        basis2.expand(np.eye(2, dtype=complex))


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


def test_unitary_verdict_does_not_depend_on_the_stack_size(rng):
    # each matrix of a stack is judged alone: 64 copies of a matrix at 0.8 of
    # its own bound τ·n read as one copy does, and one bad member fails them
    n = 3
    u = np.sqrt(1.0 + 0.8 * TAU_ALG * np.sqrt(n)) * random_unitary(n, rng)
    stack = np.broadcast_to(u, (64, n, n)).copy()
    assert is_unitary(u) and is_unitary(stack)
    stack[17] = np.diag([2.0, 1.0, 1.0])
    assert not is_unitary(stack)


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


def _frob_reference(a) -> float:
    return math.sqrt(math.fsum(abs(x) ** 2 for x in np.ravel(np.asarray(a))))


def test_frob_norm_matches_the_entrywise_sum(rng):
    c = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    cases = [
        rng.standard_normal((5, 7)),  # real
        c,  # complex
        c.T,  # transposed: not C-contiguous
        c[::3, 1::2],  # strided view
        rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4)),  # batched
        [[1.0 + 2.0j, -3.0], [0.5j, 4.0]],  # list input
    ]
    for a in cases:
        ref = _frob_reference(a)
        assert abs(frob_norm(a) - ref) <= 1e-15 * ref
        assert type(frob_norm(a)) is float


def test_frob_norm_of_zeros_is_exact_and_nan_propagates():
    assert frob_norm(np.zeros((4, 4), dtype=complex)) == 0.0
    assert frob_norm(np.zeros((2, 3, 3))) == 0.0
    bad = np.eye(3, dtype=complex)
    bad[1, 2] = np.nan
    assert math.isnan(frob_norm(bad))
    assert math.isnan(frob_norm(np.full((2, 2), np.nan)))
