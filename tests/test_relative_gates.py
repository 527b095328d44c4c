"""Constructor gates judge a defect against the input's own norm.

Each gate compares its defect with ``tol·‖x‖`` (strictly, so an exact zero
still passes).  A floor such as ``tol·max(1, ‖x‖)`` would accept every
defect below about 1e-10, however large it is next to the input itself;
each case below is such an input, 1e-11 or 1e-14 in size and broken at
its own scale, and the same input written at unit size.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from ncgauge import (
    BasisMismatchError,
    ConfigError,
    DerForm,
    Derivation,
    LatticeConfig,
    MatrixBasis,
    MatrixConnection,
    NotHermitianError,
    NotProjectorError,
    RealStructure,
    ShapeError,
    SingularBasisError,
    UniversalForm,
    flat_connection_check,
    fluctuate,
    grassmann_connection,
    inner_gauge,
    quaternion,
    random_connection,
    random_traceless_hermitian,
    sm_algebra_fixture,
    sm_represent,
    two_point_triple,
    wedge,
)

B2 = MatrixBasis.gellmann(2)
RAISE_UP = np.array([[0.0, 1.0], [0.0, 0.0]])
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def _hermitian(size: int, seed: int) -> np.ndarray:
    a = np.random.default_rng(seed).standard_normal((size, size)) + 0j
    return (a + a.T) / 2.0


def _fluctuate(scale):
    return fluctuate(two_point_triple(2, np.eye(2)), scale * np.kron(RAISE_UP, np.eye(2)))


def _derivation(scale):
    return Derivation(B2, scale * np.diag([1.0, 0.0]))


def _sm_self_adjoint(scale):
    d_f = np.zeros((32, 32), dtype=complex)
    d_f[0, 1] = scale
    return sm_algebra_fixture(d_f)


def _sm_first_order(scale):
    return sm_algebra_fixture(scale * _hermitian(32, 3))


def _lattice_alone(scale):
    # a Hermitian, not anti-Hermitian, gauge field and no algebraic field
    a = np.broadcast_to(scale * SIGMA_X, (2, 1, 2, 2))
    return LatticeConfig((2,), B2, a, np.zeros((2, 3, 2, 2)), 1.0)


def _lattice_beside_large(scale):
    # the same gauge field next to a valid algebraic field of norm about 5
    a = np.broadcast_to(scale * SIGMA_X, (2, 1, 2, 2))
    b = np.broadcast_to(1j * B2.mats, (2, 3, 2, 2))
    return LatticeConfig((2,), B2, a, b, 1.0)


def _expand(scale):
    return B2.expand(scale * np.eye(2))


def _grassmann(scale):
    # half the unit of M_2 as a 1 × 1 block: p² − p = −p/2 at every scale
    return grassmann_connection(0.5 * scale * np.eye(2)[None, None], B2)


def _open_family(scale):
    # σx and σy alone: their bracket leaves the span at every scale
    return MatrixBasis.from_matrices(scale * B2.mats[:2])


def _wedge_over_other_frame(scale):
    # two frames at the same scale whose first matrices differ by 30%
    one = MatrixBasis.from_matrices(scale * B2.mats)
    other = MatrixBasis.from_matrices(scale * B2.mats * np.array([1.3, 1.0, 1.0])[:, None, None])
    return wedge(DerForm.matrix(one, np.eye(2)), DerForm.matrix(other, np.eye(2)))


def _universal_diagonal(scale):
    # a one-form whose value at a repeated point is its whole size
    return UniversalForm(2, 1, scale * np.diag([1.0, 0.0]))


class NotFlatError(Exception):
    pass


def _require_flat(conn):
    # flat_connection_check reports a verdict; the tables expect a gate
    if not flat_connection_check(conn).flatness.passed:
        raise NotFlatError


def _curved(scale):
    # a random connection of the frame's size over the frame scaled by `scale`
    frame = MatrixBasis.from_matrices(scale * B2.mats)
    conn = random_connection(frame, np.random.default_rng(0))
    return _require_flat(MatrixConnection(frame, scale * conn.coeffs))


def _flat(scale):
    # the broken vacuum over the frame scaled by `scale`; at 0, A = 0
    if scale == 0:
        return _require_flat(MatrixConnection.zero(B2))
    return _require_flat(MatrixConnection.canonical_flat(MatrixBasis.from_matrices(scale * B2.mats)))


def _non_quaternion(scale):
    return sm_represent(1.0, scale * np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros((3, 3)))


BROKEN = {
    "basis.structure_constants": (_open_family, SingularBasisError),
    "basis.MatrixBasis.same_as": (_wedge_over_other_frame, BasisMismatchError),
    "universal.UniversalForm": (_universal_diagonal, ShapeError),
    "spectral.fluctuate": (_fluctuate, NotHermitianError),
    "derforms.Derivation": (_derivation, ShapeError),
    "spectral.sm_algebra_fixture.self_adjoint": (_sm_self_adjoint, ConfigError),
    "spectral.sm_algebra_fixture.first_order": (_sm_first_order, ConfigError),
    "lattice.LatticeConfig": (_lattice_alone, NotHermitianError),
    "lattice.LatticeConfig.beside_large_field": (_lattice_beside_large, NotHermitianError),
    "basis.MatrixBasis.expand": (_expand, ShapeError),
    "connections.grassmann_connection": (_grassmann, NotProjectorError),
    "connections.flat_connection_check": (_curved, NotFlatError),
    "spectral.sm_represent": (_non_quaternion, ShapeError),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
@pytest.mark.parametrize("scale", [1.0, 1e-11, 1e-14])
def test_gate_rejects_a_defect_at_the_inputs_own_scale(name, scale):
    build, error = BROKEN[name]
    with pytest.raises(error):
        build(scale)


VALID = {
    "spectral.fluctuate": lambda s: fluctuate(
        two_point_triple(2, np.eye(2)), s * np.kron(SIGMA_X, np.eye(2))
    ),
    "derforms.Derivation": lambda s: Derivation(B2, s * np.diag([1.0, -1.0])),
    "spectral.sm_algebra_fixture": lambda s: sm_algebra_fixture(s * np.eye(32)),
    "lattice.LatticeConfig": lambda s: LatticeConfig(
        (2,), B2, np.broadcast_to(s * 1j * SIGMA_X, (2, 1, 2, 2)), np.zeros((2, 3, 2, 2)), 1.0
    ),
    "basis.MatrixBasis.expand": lambda s: B2.expand(s * SIGMA_X),
    "connections.grassmann_connection": lambda s: grassmann_connection(
        np.eye(2)[None, None] * (s > 0), B2
    ),
    "universal.UniversalForm": lambda s: UniversalForm(2, 1, s * np.array([[0, 1], [2, 0]])),
    "connections.flat_connection_check": _flat,
    "spectral.sm_represent": lambda s: sm_represent(
        1.0, s * quaternion(1 + 2j, 3 - 1j), np.zeros((3, 3))
    ),
}


@pytest.mark.parametrize("name", sorted(VALID))
@pytest.mark.parametrize("scale", [1.0, 1e-11, 0.0])
def test_gate_accepts_valid_inputs_of_any_size_and_exact_zeros(name, scale):
    VALID[name](scale)


def test_large_universal_form_with_roundoff_on_its_diagonal_is_accepted():
    # a diagonal of 1e-13 of the form's size is roundoff, whatever the size
    UniversalForm(2, 1, 1e6 * np.array([[1e-13, 1.0], [2.0, 0.0]]))


def test_large_quaternion_with_roundoff_is_accepted():
    # a last-bit defect of a quaternion of norm about 5.5e8 is roundoff, not a
    # departure from ℍ, although it is far above 1e-10 in absolute terms
    q = 1e8 * quaternion(1 + 2j, 3 - 1j)
    sm_represent(1.0, q, np.zeros((3, 3)))
    q[1, 1] += 1e-7
    sm_represent(1.0, q, np.zeros((3, 3)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_flat_verdict_does_not_depend_on_the_frame_scale(n):
    mats = MatrixBasis.gellmann(n).mats
    rng = np.random.default_rng(n)
    for scale in (1e-4, 1e-2, 1.0, 1e2, 1e3, 1e4):
        basis = MatrixBasis.from_matrices(scale * mats)
        assert flat_connection_check(MatrixConnection.canonical_flat(basis)).flatness.passed, scale
        assert flat_connection_check(MatrixConnection.zero(basis)).flatness.passed, scale
    basis = MatrixBasis.gellmann(n)
    for scale in (1e-6, 1.0, 1e3):
        curved = MatrixConnection(basis, scale * random_connection(basis, rng).coeffs)
        assert not flat_connection_check(curved).flatness.passed, scale
    # the frame and the connection rescaled together keep their verdict
    curved = random_connection(basis, rng)
    for scale in (1e-11, 1e-6, 1e4):
        frame = MatrixBasis.from_matrices(scale * mats)
        rescaled = MatrixConnection(frame, scale * curved.coeffs)
        assert not flat_connection_check(rescaled).flatness.passed


def _inner_gauge(d_scale: float, leak: float):
    """Gauge routes on the two-point model with Dirac operator scaled by
    ``d_scale``, on a triple whose point projections leak ``leak`` between
    the points: they still sum to the identity but are no longer idempotent,
    so the two routes differ at the relative size of ``leak``."""
    t = two_point_triple(2, d_scale * np.array([[1.0, 2.0], [0.5, -1.0]]))
    shift = leak * np.kron(SIGMA_X, np.eye(2))
    t = replace(t, generators=(t.generators[0] + shift, t.generators[1] - shift))
    omega = UniversalForm(2, 1, np.array([[0.0, 0.3 + 0.2j], [-0.7j, 0.0]]))
    return inner_gauge(t, np.exp(1j * np.array([0.4, 1.3])), omega)


@pytest.mark.parametrize("d_scale", [1.0, 1e-6])
def test_inner_gauge_match_is_judged_at_the_dirac_operators_scale(d_scale):
    exact = _inner_gauge(d_scale, 0.0)
    assert exact.match
    leaking = _inner_gauge(d_scale, 1e-3)
    # the mismatch is the same relative size whatever the scale of D
    assert leaking.max_diff > 1e-7 * np.linalg.norm(leaking.d_transformed)
    assert not leaking.match


@pytest.mark.parametrize("scale", [1e-12, 1e-9, 1.0, 1e3])
def test_inner_gauge_invariance_flags_are_judged_at_the_operands_scale(scale):
    t = two_point_triple(2, np.array([[1.0, 2.0], [0.5, -1.0]]))
    swap = np.kron(SIGMA_X, np.eye(2))
    omega = UniversalForm(2, 1, np.array([[0.0, 0.3 + 0.2j], [-0.7j, 0.0]]))
    u = np.exp(1j * np.array([0.4, 1.3]))
    # under a swap J the implementing unitary moves a generic γ; a generic
    # U_J is moved by its own implementing unitary
    moved_gamma = replace(t, j=RealStructure(swap), gamma=scale * _hermitian(4, 1))
    moved_j = replace(t, j=RealStructure(scale * _hermitian(4, 2)))
    assert not inner_gauge(moved_gamma, u, omega).gamma_invariant
    assert not inner_gauge(moved_j, u, omega).j_invariant
    # the model's own γ and a swap J are invariant at any scale
    kept = inner_gauge(replace(t, j=RealStructure(scale * swap), gamma=scale * t.gamma), u, omega)
    assert kept.gamma_invariant and kept.j_invariant


def test_bracket_of_nearly_commuting_derivations_is_accepted():
    # the trace of [γ, η] is roundoff of size ‖γ‖‖η‖, far above the traceless
    # gate's bound tol·‖[γ, η]‖ when γ and η nearly commute
    b3 = MatrixBasis.gellmann(3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        h = random_traceless_hermitian(3, rng)
        x = Derivation(b3, 1j * h)
        y = Derivation(b3, 1j * (h + 1e-7 * random_traceless_hermitian(3, rng)))
        br = x.bracket(y)
        assert np.abs(br.gamma - (x.gamma @ y.gamma - y.gamma @ x.gamma)).max() < 1e-15
