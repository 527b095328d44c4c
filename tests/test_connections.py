"""Matrix connections: curvature, Yang-Mills action (two routes), gauge
covariance, gradient descent to flat vacua, and representation invariants.

Frozen values are hand-derived Pauli-algebra computations; the gradient is
cross-checked, independently of the analytic formula, against the exact
five-point stencil on the action (a quartic along every line, so the stencil
is exact at any step), to within ``TAU_ALG``."""
from __future__ import annotations

import tracemalloc
from functools import partial

import numpy as np
import pytest

from ncgauge import (
    TAU_ALG,
    DerForm,
    MatrixBasis,
    MatrixConnection,
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
from ncgauge import connections
from ncgauge.verify import fd_action_gradient, line_derivative


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
    conn = MatrixConnection(basis3, 0.7 * random_connection(basis3, rng, r=4).coeffs)
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
        assert rep.flatness.passed


def test_curvature_form_collects_upper_pairs(basis2):
    conn = partial_frame_connection(basis2)
    f = curvature(conn)
    form = curvature_form(conn)
    assert form.degree() == 2
    for k in range(3):
        for l in range(k + 1, 3):
            assert np.abs(form.component((k, l)) - f[k, l]).max() < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_curvature_form_equals_the_form_built_from_its_mapping(n, rng):
    # bit for bit: the zero connection has no component, the canonical flat
    # one keeps its roundoff, a random one has every pair k < l
    b = MatrixBasis.gellmann(n)
    for conn in (MatrixConnection.zero(b), MatrixConnection.canonical_flat(b), random_connection(b, rng)):
        f = curvature(conn)
        ref = DerForm(b, {(k, l): f[k, l] for k in range(b.dim) for l in range(k + 1, b.dim)})
        got = curvature_form(conn).components
        assert list(got) == list(ref.components)
        assert all(np.array_equal(got[kl], ref.components[kl]) for kl in got)


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
        assert frob_norm(g_an - g_fd) <= TAU_ALG * frob_norm(g_an)
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

def action_at(basis: MatrixBasis, coeffs: np.ndarray) -> float:
    return action(MatrixConnection(basis, coeffs))


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
        stencil, size = line_derivative(partial(action_at, b), conn.coeffs, h_dir)
        assert abs(stencil - analytic) <= TAU_ALG * size


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
        assert rep.flatness.passed
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


def test_minimize_starts_at_flat_point(basis2):
    res = minimize(MatrixConnection.canonical_flat(basis2))
    assert res.converged and res.iterations == 0


# iterations, final action and the trace actions at iterations 0, 5, 10 of
# three descents with the default settings, recorded from the descent with
# Barzilai–Borwein first trials: reusing the curvature, or reordering the
# contractions, must not move the path
FROZEN_DESCENTS = [
    (2, None, 9, 30, 1.843276325396968e-27, (7.917930223852341, 0.09226812721241509, 0.002117188088190764)),
    (2, 4, 3, 42, 4.314459462710224e-21, (127.5574874798632, 2.706475365999802, 0.8792592161926778)),
    (4, None, 0, 13, 5.620109917322081e-27, (2767.920291339495, 8.358066215061678, 2.6134415585830645e-06)),
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


# Casimirs of the flat connections that a descent may reach: at n = 2 a
# sum of 4j(j+1)(2j+1) over a split of r into irreducible dimensions 2j+1,
# and for r = n the trivial and the canonical orbit
LEGAL_CASIMIRS = [
    (2, 2, range(30), (0.0, 6.0)),
    (2, 4, range(30), (0.0, 6.0, 12.0, 24.0, 60.0)),
    (3, 3, range(6), (0.0, 24.0)),
    (4, 4, range(6), (0.0, 60.0)),
]


@pytest.mark.parametrize("n, r, seeds, casimirs", LEGAL_CASIMIRS)
def test_minimize_reaches_a_legal_flat_orbit_within_100_iterations(n, r, seeds, casimirs):
    # the ill-conditioned n = 2 starts once took up to 2,061 iterations;
    # which flat orbit a start reaches is not pinned, only that it is legal
    b = MatrixBasis.gellmann(n)
    for seed in seeds:
        res = minimize(random_connection(b, np.random.default_rng(seed), r=r), gtol=1e-8)
        assert res.stop_reason == "gtol" and res.iterations <= 100, (seed, res.iterations)
        cas = casimir_invariant(res.connection)
        assert min(abs(cas - c) for c in casimirs) <= 1e-6, (seed, cas)


def test_minimize_stop_reasons(basis2):
    conn = random_connection(basis2, np.random.default_rng(1))
    assert minimize(conn).stop_reason == "gtol"
    capped = minimize(conn, max_iter=5)
    assert (capped.iterations, capped.converged, capped.stop_reason) == (5, False, "max_iter")


@pytest.mark.parametrize("seed", [4, 5])
def test_minimize_accepts_only_steps_that_lower_the_action(basis2, seed):
    # gtol below the roundoff floor: once the Armijo margin is under the
    # action's last bit, no step can lower it, so the descent must stall
    # rather than spend max_iter on steps that leave it unchanged.  Most
    # starts instead reach a gradient of exactly 0.0 and stop on gtol, a correct
    # stop that turns on the gradient's last bits; these two stall under both the
    # batched and the block-matrix gradient
    conn = random_connection(basis2, np.random.default_rng(seed))
    res = minimize(conn, gtol=1e-300, max_iter=3000)
    actions = [row[1] for row in res.trace]
    assert all(later < earlier for earlier, later in zip(actions, actions[1:]))
    assert (res.stop_reason, res.converged) == ("line_search_stalled", False)
    assert res.iterations < 3000
    # the stall leaves the last accepted point, and its action, unchanged
    assert [row[0] for row in res.trace] == list(range(res.iterations + 1))
    assert res.action == actions[-1] == action(res.connection)


def test_minimize_forms_each_trial_curvature_once(basis2, monkeypatch):
    # F̃ is formed once for the start and once for every trial point (each
    # accepted step and the halvings before it); an accepted point's
    # gradient reuses the Ã and F̃ its action formed
    calls = []
    bracket_defect = connections.bracket_defect

    def counted(c, a):
        calls.append(a.shape)
        return bracket_defect(c, a)

    monkeypatch.setattr(connections, "bracket_defect", counted)
    res = minimize(random_connection(basis2, np.random.default_rng(1)), gtol=1e-8)
    assert res.stop_reason == "gtol" and res.iterations > 5
    assert sum(row[4] for row in res.trace) > 0  # some trial was rejected
    assert len(calls) == 1 + sum(1 + backtracks for *_, backtracks in res.trace[1:])


def test_minimize_keeps_at_most_two_curvatures_alive():
    # a trial needs its F̃ and bracket_defect's product buffer, and an accepted
    # point's gradient its F̃ and the block matrix F̃_B: no more F̃-sized arrays,
    # so no F̃ outlives its last reader, rejected trials' included
    b = MatrixBasis.gellmann(8)
    conn = random_connection(b, np.random.default_rng(0))
    b.normal_frame  # built before the count, as every later descent finds it
    f_bytes = b.dim**2 * b.n**2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        res = minimize(conn, max_iter=3)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert res.iterations == 3 and res.trace[1][4] > 0  # some trial was rejected
    assert peak <= 2.25 * f_bytes, peak / f_bytes


def test_minimize_maps_the_frame_once_each_way_and_builds_one_connection(monkeypatch):
    # the iterate stays the normal-frame Ã: Lᵀ maps the start in, L⁻ᵀ maps the
    # result out, and no trial point or gradient builds a connection
    b = MatrixBasis.gellmann(3)
    conn = random_connection(b, np.random.default_rng(1))
    maps, made = [], []
    frame_map = connections.frame_map

    def counted_map(t, x):
        maps.append(t.shape)
        return frame_map(t, x)

    class Counted(MatrixConnection):
        def __post_init__(self):
            made.append(self.coeffs.shape)
            super().__post_init__()

    monkeypatch.setattr(connections, "frame_map", counted_map)
    monkeypatch.setattr(connections, "MatrixConnection", Counted)
    res = minimize(conn, gtol=1e-8)
    assert res.iterations > 5 and sum(row[4] for row in res.trace) > 0
    assert len(made) == 1
    assert maps.count((b.dim, b.dim)) == 2  # the square maps are Lᵀ and L⁻ᵀ


@pytest.mark.parametrize("n", [2, 3])
def test_minimize_takes_the_same_path_in_every_frame(n, skewed_frame):
    # A on Gell-Mann and A' = T·A on the skewed frame are one connection, with
    # normal-frame coefficients that differ by a rotation: the descent must take
    # the same steps and reach the same flat connection
    b = MatrixBasis.gellmann(n)
    skewed, t = skewed_frame(n)
    for seed in range(6):
        conn = random_connection(b, np.random.default_rng(seed))
        res = minimize(conn, gtol=1e-8)
        same = MatrixConnection(skewed, np.einsum("kl,lab->kab", t, conn.coeffs))
        moved = minimize(same, gtol=1e-8)
        assert (moved.iterations, moved.stop_reason) == (res.iterations, res.stop_reason), seed
        assert [row[4] for row in moved.trace] == [row[4] for row in res.trace], seed
        s0, g0 = res.trace[0][1:3]
        for row, moved_row in zip(res.trace, moved.trace):
            assert abs(moved_row[1] - row[1]) <= 1e-12 * s0, (seed, row[0])
            assert abs(moved_row[2] - row[2]) <= 1e-12 * g0, (seed, row[0])
        cas = casimir_invariant(res.connection)
        assert abs(casimir_invariant(moved.connection) - cas) <= 1e-12, seed
        a_f = res.connection.coeffs
        back = np.einsum("kl,lab->kab", t, a_f)
        assert np.max(np.abs(moved.connection.coeffs - back)) <= 1e-8 * np.max(np.abs(a_f)), seed
        assert res.action == action(res.connection)
        assert abs(moved.action - action(moved.connection)) <= 1e-12 * s0, seed


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
    assert rep.flatness.passed and conn.r == 3
    assert rep.casimir == pytest.approx(24.0)


def test_spin_half_plus_trivial_summand(basis2):
    # A_k = iE_k (+) 0 in M_3: flat, Casimir stays 6 — distinguishes this
    # orbit from the spin-1 embedding at equal module size
    coeffs = np.zeros((3, 3, 3), dtype=complex)
    coeffs[:, :2, :2] = 1j * basis2.mats
    conn = MatrixConnection(basis2, coeffs)
    rep = flat_connection_check(conn)
    assert rep.flatness.passed
    assert rep.casimir == pytest.approx(6.0)


@pytest.mark.parametrize("tol", [1e-10, 1e-3])
def test_flatness_check_is_one_check_line_at_tol_times_its_scale(basis2, rng, tol):
    # a = max(‖A‖, ‖E‖), and the bound is tol·(a² + ‖C‖·a)
    for conn in (
        random_connection(basis2, rng),
        MatrixConnection.zero(basis2),
        MatrixConnection.canonical_flat(basis2),
        MatrixConnection(basis2, 2j * SPIN1),
        MatrixConnection(basis2, 1e-6 * random_connection(basis2, rng).coeffs),
    ):
        line = flat_connection_check(conn, tol=tol).flatness
        a = max(frob_norm(conn.coeffs), frob_norm(basis2.mats))
        assert (line.name, line.tol) == ("flatness", tol)
        assert line.scale == a**2 + frob_norm(basis2.c) * a
        assert line.tolerance == tol * (a**2 + frob_norm(basis2.c) * a)
        worst = max(frob_norm(f) for f in curvature(conn).reshape(-1, conn.r, conn.r))
        assert line.residual == pytest.approx(worst, rel=1e-14, abs=0.0)
        assert line.passed is (line.residual <= line.tolerance)


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
