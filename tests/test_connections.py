"""Matrix connections: curvature, Yang-Mills action (two routes), gauge
covariance, gradient descent to flat vacua, and representation invariants.

Frozen values are hand-derived Pauli-algebra computations; the gradient is
cross-checked against central finite differences computed directly on the
action (independent of the analytic formula)."""
from __future__ import annotations

import numpy as np
import pytest

from ncgauge import (
    MatrixBasis,
    MatrixConnection,
    MaxIterationsError,
    NotProjectorError,
    NotUnitaryError,
    ShapeError,
    action,
    action_gradient,
    action_via_pairing,
    casimir_invariant,
    curvature,
    curvature_form,
    dagger,
    flat_connection_check,
    frob_norm,
    gauge_transform,
    grassmann_connection,
    hermitian_compatibility_check,
    minimize,
    random_antihermitian,
    random_connection,
    random_unitary,
)
from ncgauge.verify import fd_action_gradient


def partial_frame_connection(b: MatrixBasis) -> MatrixConnection:
    """A = (i sx, i sy, 0): two frame legs kept, one dropped."""
    coeffs = 1j * b.mats.copy()
    coeffs[2] = 0.0
    return MatrixConnection(b, coeffs)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_connection_validation(basis2):
    with pytest.raises(ShapeError):
        MatrixConnection(basis2, np.zeros((2, 2, 2), dtype=complex))
    with pytest.raises(ShapeError):
        MatrixConnection(basis2, np.zeros((3, 2, 3), dtype=complex))
    conn = MatrixConnection.zero(basis2)
    assert conn.r == 2
    with pytest.raises(ValueError):
        conn.coeffs[0, 0, 0] = 1.0  # frozen storage


def test_random_connection_properties(basis3, rng):
    conn = random_connection(basis3, rng, r=4, scale=0.7)
    assert conn.coeffs.shape == (8, 4, 4)
    assert frob_norm(conn.coeffs + dagger(conn.coeffs)) < 1e-12
    # seed reproducibility
    c1 = random_connection(basis3, np.random.default_rng(9)).coeffs
    c2 = random_connection(basis3, np.random.default_rng(9)).coeffs
    assert np.array_equal(c1, c2)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def test_curvature_frozen_partial_frame(basis2):
    # A = (i sx, i sy, 0):
    #   F01 = [i sx, i sy] - C[0,1,2] A2 = -2i sz
    #   F02 = -C[0,2,1] A1 = -2i sy ;  F12 = -C[1,2,0] A0 = +2i sx
    f = curvature(partial_frame_connection(basis2))
    sx, sy, sz = basis2.mats
    assert np.abs(f[0, 1] - (-2j) * sz).max() < 1e-13
    assert np.abs(f[0, 2] - (-2j) * sy).max() < 1e-13
    assert np.abs(f[1, 2] - 2j * sx).max() < 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_curvature_antisymmetric(n, rng):
    b = MatrixBasis.gellmann(n)
    f = curvature(random_connection(b, rng))
    assert frob_norm(f + f.transpose(1, 0, 2, 3)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_both_vacua_are_flat(n):
    b = MatrixBasis.gellmann(n)
    for conn in (MatrixConnection.zero(b), MatrixConnection.canonical_flat(b)):
        assert frob_norm(curvature(conn)) < 1e-12
        assert action(conn) < 1e-13
        rep = flat_connection_check(conn)
        assert rep.is_flat


def test_curvature_form_collects_upper_pairs(basis2):
    conn = partial_frame_connection(basis2)
    f = curvature(conn)
    form = curvature_form(conn)
    assert form.degree() == 2
    for k in range(3):
        for l in range(k + 1, 3):
            assert np.abs(form.component((k, l)) - f[k, l]).max() < 1e-13


def test_curvature_form_needs_square_module(basis2, rng):
    conn = random_connection(basis2, rng, r=3)
    with pytest.raises(ShapeError):
        curvature_form(conn)


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------

def test_action_frozen_value(basis2):
    # -(1/16) * 2 * [tr(F01^2)+tr(F02^2)+tr(F12^2)] = -(1/8)(-8-8-8) = 3
    assert action(partial_frame_connection(basis2)) == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_action_nonnegative_and_route_agreement(n):
    b = MatrixBasis.gellmann(n)
    rng = np.random.default_rng(17 * n)
    for _ in range(25):
        conn = random_connection(b, rng)
        s = action(conn)
        assert s >= 0.0
        s_pairing = action_via_pairing(conn)
        assert s_pairing == pytest.approx(s, rel=1e-10, abs=1e-12)


def test_action_via_pairing_frozen(basis2):
    assert action_via_pairing(partial_frame_connection(basis2)) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# a non-orthonormal frame
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_action_is_frame_independent(n, skewed_frame):
    b = MatrixBasis.gellmann(n)
    skewed, t = skewed_frame(n)
    g_inv = skewed.g_inv
    assert np.max(np.abs(g_inv - np.diag(np.diag(g_inv)))) > 0.1
    rng = np.random.default_rng(60 + n)
    for r in (n, n + 1):
        conn = random_connection(b, rng, r=r)
        # A'_k = Σ_l T_kl A_l: the same connection in the skewed frame
        moved = MatrixConnection(skewed, np.einsum("kl,lab->kab", t, conn.coeffs))
        s = action(conn)
        assert action(moved) == pytest.approx(s, rel=1e-12)
        g_an = action_gradient(moved)
        g_fd = fd_action_gradient(moved)
        assert frob_norm(g_an - g_fd) < 1e-6 * frob_norm(g_an)
        if r == n:
            assert action_via_pairing(moved) == pytest.approx(s, rel=1e-12)


# ---------------------------------------------------------------------------
# gauge transformations
# ---------------------------------------------------------------------------

def test_gauge_invariance_and_covariance(basis2, rng):
    conn = random_connection(basis2, rng)
    f = curvature(conn)
    for _ in range(20):
        g = random_unitary(2, rng)
        moved = gauge_transform(conn, g)
        assert action(moved) == pytest.approx(action(conn), rel=1e-10, abs=1e-12)
        assert casimir_invariant(moved) == pytest.approx(
            casimir_invariant(conn), rel=1e-10
        )
        fg = curvature(moved)
        expect = np.einsum("ba,klbc,cd->klad", np.conj(g), f, g)
        assert frob_norm(fg - expect) < 1e-10 * max(1.0, frob_norm(f))


def test_gauge_transform_rejects_non_unitary(basis2, rng):
    conn = random_connection(basis2, rng)
    with pytest.raises(NotUnitaryError):
        gauge_transform(conn, np.diag([2.0, 1.0]).astype(complex))


def test_gauge_transform_preserves_antihermiticity(basis3, rng):
    conn = random_connection(basis3, rng)
    moved = gauge_transform(conn, random_unitary(3, rng))
    assert hermitian_compatibility_check(moved)


# ---------------------------------------------------------------------------
# gradient
# ---------------------------------------------------------------------------

def directional_fd(conn, h_dir, step=1e-6):
    sp = action(MatrixConnection(conn.basis, conn.coeffs + step * h_dir))
    sm = action(MatrixConnection(conn.basis, conn.coeffs - step * h_dir))
    return (sp - sm) / (2.0 * step)


@pytest.mark.parametrize("n", [2, 3])
def test_gradient_matches_directional_derivatives(n):
    b = MatrixBasis.gellmann(n)
    rng = np.random.default_rng(n + 40)
    conn = random_connection(b, rng)
    g = action_gradient(conn)
    # the gradient lives on the anti-Hermitian slice
    assert frob_norm(g + dagger(g)) < 1e-12
    for _ in range(6):
        h_dir = np.stack([random_antihermitian(b.n, rng) for _ in range(b.dim)])
        analytic = float(np.real(np.einsum("kab,kab->", np.conj(g), h_dir)))
        assert directional_fd(conn, h_dir) == pytest.approx(
            analytic, rel=2e-5, abs=1e-8
        )


def test_gradient_vanishes_at_flat_points(basis2, basis3):
    for b in (basis2, basis3):
        for conn in (MatrixConnection.zero(b), MatrixConnection.canonical_flat(b)):
            assert frob_norm(action_gradient(conn)) < 1e-12


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------

def test_minimize_reaches_flat_vacua(basis2):
    for seed in range(8):
        res = minimize(random_connection(basis2, np.random.default_rng(seed)))
        assert res.converged
        assert res.action < 1e-10
        rep = flat_connection_check(res.connection, tol=1e-8)
        assert rep.is_flat
        # trace rows never increase the action
        actions = [row[1] for row in res.trace]
        assert all(a2 <= a1 + 1e-15 for a1, a2 in zip(actions, actions[1:]))


def test_minimize_classifies_both_orbits(basis2):
    # over a few seeds both flat orbits appear, separated by the Casimir
    seen = set()
    for seed in range(12):
        res = minimize(random_connection(basis2, np.random.default_rng(seed)))
        cas = flat_connection_check(res.connection).casimir
        assert min(abs(cas), abs(cas - 6.0)) < 1e-6
        seen.add(round(cas))
    assert seen == {0, 6}


def test_minimize_zero_iterations(basis2):
    conn = random_connection(basis2, np.random.default_rng(3))
    res = minimize(conn, max_iter=0)
    assert res.iterations == 0 and not res.converged
    assert len(res.trace) == 1 and res.trace[0][0] == 0
    assert res.action == pytest.approx(action(conn))
    with pytest.raises(MaxIterationsError):
        res.raise_for_convergence()


def test_minimize_trace_subsampling(basis2):
    conn = random_connection(basis2, np.random.default_rng(5))
    res = minimize(conn, trace_every=5)
    iters = [row[0] for row in res.trace]
    assert iters[0] == 0 and iters[-1] == res.iterations
    assert all(i % 5 == 0 for i in iters[:-1])
    assert res.raise_for_convergence() is res


def test_minimize_starts_at_flat_point(basis2):
    res = minimize(MatrixConnection.canonical_flat(basis2))
    assert res.converged and res.iterations == 0


# iterations, final action and the trace actions at iterations 0, 5, 10 of
# three descents with the default settings, recorded with the einsum kernels
# that computed the curvature again for every gradient: reusing it, or
# reordering the contractions, must not move the path
FROZEN_DESCENTS = [
    (2, None, 9, 326, 6.984515436056659e-23, (7.917930223852342, 0.7969445773424403, 0.06115473767559167)),
    (2, 4, 3, 37, 1.0629196666074562e-29, (127.55748747986321, 9.095339153150974, 0.7572631663027592)),
    (4, None, 0, 12, 1.096258755947251e-35, (2767.920291339495, 5.710728110473825, 8.008243925115107e-09)),
]


@pytest.mark.parametrize("n, r, seed, iterations, final, early", FROZEN_DESCENTS)
def test_minimize_path_is_frozen(n, r, seed, iterations, final, early):
    b = MatrixBasis.gellmann(n)
    res = minimize(random_connection(b, np.random.default_rng(seed), r=r))
    assert res.converged and res.stop_reason == "gtol"
    assert res.iterations == iterations
    assert res.action == pytest.approx(final, abs=1e-12)
    by_iter = {row[0]: row[1] for row in res.trace}
    for it, s in zip((0, 5, 10), early):
        assert by_iter[it] == pytest.approx(s, rel=1e-12)


def test_minimize_stop_reasons(basis2):
    conn = random_connection(basis2, np.random.default_rng(1))
    assert minimize(conn).stop_reason == "gtol"
    capped = minimize(conn, max_iter=5)
    assert (capped.iterations, capped.converged, capped.stop_reason) == (5, False, "max_iter")
    with pytest.raises(MaxIterationsError, match="max_iter"):
        capped.raise_for_convergence()
    # no trial step above the line search's 1e-18 floor
    stalled = minimize(conn, step0=1e-19)
    assert (stalled.iterations, stalled.converged) == (0, False)
    assert stalled.stop_reason == "line_search_stalled"
    assert stalled.action == action(conn)
    with pytest.raises(MaxIterationsError, match="line_search_stalled"):
        stalled.raise_for_convergence()


def test_minimize_accepts_only_steps_that_lower_the_action(basis2):
    # gtol below the roundoff floor: once the Armijo margin is under the
    # action's last bit, no step can lower it, so the descent must stall
    # rather than spend max_iter on steps that leave it unchanged
    conn = random_connection(basis2, np.random.default_rng(1))
    res = minimize(conn, gtol=1e-300, max_iter=3000, trace_every=1)
    actions = [row[1] for row in res.trace]
    assert all(later < earlier for earlier, later in zip(actions, actions[1:]))
    assert res.stop_reason == "line_search_stalled"
    assert res.iterations < 3000


# ---------------------------------------------------------------------------
# representation invariants
# ---------------------------------------------------------------------------

def test_casimir_frozen_values(basis2, basis3):
    # canonical frame connection: -sum tr((iE_k)^2) * (n/2) = n(n^2-1)
    assert casimir_invariant(MatrixConnection.canonical_flat(basis2)) == pytest.approx(6.0)
    assert casimir_invariant(MatrixConnection.canonical_flat(basis3)) == pytest.approx(24.0)
    assert casimir_invariant(MatrixConnection.zero(basis2)) == 0.0


SPIN1 = np.array(
    [
        [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
        [[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]],
        [[np.sqrt(2), 0, 0], [0, 0, 0], [0, 0, -np.sqrt(2)]],
    ],
    dtype=complex,
) / np.sqrt(2.0)


def test_spin_one_embedding_is_flat_with_casimir_24(basis2):
    # [L_k, L_l] = i eps L_m, so A_k = 2i L_k satisfies the frame bracket
    # relations of the n=2 basis inside M_3
    conn = MatrixConnection(basis2, 2j * SPIN1)
    rep = flat_connection_check(conn)
    assert rep.is_flat and rep.r == 3
    assert rep.casimir == pytest.approx(24.0)


def test_spin_half_plus_trivial_summand(basis2):
    # A_k = iE_k (+) 0 in M_3: flat, Casimir stays 6 — distinguishes this
    # orbit from the spin-1 embedding at equal module size
    coeffs = np.zeros((3, 3, 3), dtype=complex)
    coeffs[:, :2, :2] = 1j * basis2.mats
    conn = MatrixConnection(basis2, coeffs)
    rep = flat_connection_check(conn)
    assert rep.is_flat
    assert rep.casimir == pytest.approx(6.0)


def test_hermitian_compatibility_check(basis2, rng):
    conn = random_connection(basis2, rng)
    assert hermitian_compatibility_check(conn)
    broken = MatrixConnection(basis2, conn.coeffs + 0.1 * basis2.mats)
    assert not hermitian_compatibility_check(broken)


@pytest.mark.parametrize("size", [1e-11, 1.0])
def test_hermitian_compatibility_is_judged_at_the_coefficients_scale(basis2, rng, size):
    nil = np.array([[0, 1], [0, 0]], dtype=complex)
    assert not hermitian_compatibility_check(MatrixConnection(basis2, size * np.stack([nil] * 3)))
    assert hermitian_compatibility_check(MatrixConnection(basis2, size * random_connection(basis2, rng).coeffs))


# ---------------------------------------------------------------------------
# projector (Grassmann) connections
# ---------------------------------------------------------------------------

def test_grassmann_curvature_frozen(basis2):
    # p = diag(1, 0): d'p has legs sy and -sx, so (d'p)(d'p) = 2i sz th0 th1
    # and p (d'p)(d'p) = diag(2i, 0) th0 th1
    p = np.zeros((1, 1, 2, 2), dtype=complex)
    p[0, 0] = np.diag([1.0, 0.0])
    curv = grassmann_connection(p, basis2)
    assert curv.shape == (1, 1)
    form = curv[0, 0]
    assert [key for key, _ in form] == [(0, 1)]
    assert np.abs(form.component((0, 1)) - np.diag([2j, 0.0])).max() < 1e-13


def test_grassmann_block_diagonal(basis2):
    # block projector diag(p, 0): curvature concentrates in the (0,0) slot
    p = np.zeros((2, 2, 2, 2), dtype=complex)
    p[0, 0] = np.diag([1.0, 0.0])
    curv = grassmann_connection(p, basis2)
    assert np.abs(curv[0, 0].component((0, 1)) - np.diag([2j, 0.0])).max() < 1e-13
    for idx in [(0, 1), (1, 0), (1, 1)]:
        assert curv[idx].norm() == 0.0


def test_grassmann_rejects_non_idempotent(basis2):
    p = np.zeros((1, 1, 2, 2), dtype=complex)
    p[0, 0] = np.diag([0.5, 0.0])
    with pytest.raises(NotProjectorError):
        grassmann_connection(p, basis2)


def test_grassmann_scalar_projector_is_flat(basis2):
    # constant multiples of the identity have d'p = 0
    p = np.zeros((2, 2, 2, 2), dtype=complex)
    p[0, 0] = np.eye(2)
    curv = grassmann_connection(p, basis2)
    assert all(curv[i, j].norm() == 0.0 for i in range(2) for j in range(2))
