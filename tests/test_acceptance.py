"""Acceptance gate: ten numbered criteria, one verdict line each.

Every test times itself against its stated wall-clock budget and registers a
``[C<k>] PASS/FAIL`` line that the terminal-summary hook prints after the run.
Tolerances: exact algebraic identities at 1e-10, numerically conditioned
quantities at 1e-8.
"""
from __future__ import annotations

import functools
import time
from dataclasses import replace
from itertools import combinations

import numpy as np

from ncgauge import (
    KO_TABLE,
    DerForm,
    FiniteSpectralTriple,
    MatrixBasis,
    MatrixConnection,
    RealStructure,
    action,
    action_via_pairing,
    canonical_theta,
    casimir_invariant,
    check_axioms,
    curvature,
    dagger,
    dprime,
    flat_connection_check,
    frob_norm,
    gauge_transform,
    hodge,
    inner_gauge,
    lattice_action,
    mass_spectrum,
    minimize,
    nc_integrate,
    random_connection,
    random_unitary,
    sm_algebra_fixture,
    two_point_action,
    two_point_one_form,
    two_point_triple,
    vacuum_config,
    wedge,
)
from ncgauge.derforms import random_form

from conftest import ACCEPTANCE_LINES

TAU_ALG = 1e-10
TAU_NUM = 1e-8


def criterion(num: int, budget: float):
    """Time the body, append one gate line, enforce the budget."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                took = time.monotonic() - t0
                ACCEPTANCE_LINES.append(
                    f"[C{num}] FAIL — {type(exc).__name__}: {exc} "
                    f"(budget {budget:.0f}s, took {took:.1f}s)"
                )
                raise
            took = time.monotonic() - t0
            ok = took <= budget
            ACCEPTANCE_LINES.append(
                f"[C{num}] {'PASS' if ok else 'FAIL'} — {detail} "
                f"(budget {budget:.0f}s, took {took:.1f}s)"
            )
            assert ok, f"[C{num}] over budget: {took:.1f}s > {budget:.0f}s"

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# C1 — derivation calculus identities, n in {2, 3}, 200 random forms
# ---------------------------------------------------------------------------

@criterion(1, 10.0)
def test_c1_calculus_identities():
    worst = 0.0
    n_forms = 0
    degree_pairs = [(0, 1), (1, 1), (0, 2), (1, 0), (2, 0), (0, 0)]
    for n in (2, 3):
        basis = MatrixBasis.gellmann(n)
        rng = np.random.default_rng(100 + n)
        theta = canonical_theta(basis)
        # structure identity d'(i theta) = (i theta)^2
        worst = max(
            worst, (dprime(theta) - wedge(theta, theta)).norm()
        )
        for it in range(50):
            p, q = degree_pairs[it % len(degree_pairs)]
            w = random_form(basis, p, rng)
            v = random_form(basis, q, rng)
            n_forms += 2
            scale = max(1.0, w.norm(), v.norm())
            # nilpotence on both draws
            worst = max(
                worst,
                dprime(dprime(w)).norm() / scale,
                dprime(dprime(v)).norm() / scale,
            )
            # graded Leibniz rule
            lhs = dprime(wedge(w, v))
            rhs = wedge(dprime(w), v) + (-1.0) ** p * wedge(w, dprime(v))
            worst = max(worst, (lhs - rhs).norm() / max(1.0, scale**2))
            # commutator formula for functions: d'a = [i theta, a]
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            fa = DerForm(basis, {(): a})
            comm = wedge(theta, fa) - wedge(fa, theta)
            worst = max(worst, (dprime(fa) - comm).norm() / max(1.0, frob_norm(a)))
            # the integral kills exact forms
            eta = random_form(basis, basis.dim - 1, rng)
            worst = max(
                worst, abs(nc_integrate(dprime(eta))) / max(1.0, eta.norm())
            )
    assert n_forms == 200
    assert worst < TAU_ALG
    return f"5 identities on {n_forms} random forms, max residual {worst:.2e} < 1e-10"


# ---------------------------------------------------------------------------
# C2 — Hodge involution sign and the two action routes, 100 connections
# ---------------------------------------------------------------------------

@criterion(2, 5.0)
def test_c2_star_square_and_action_routes():
    worst_star = 0.0
    for n in (2, 3):
        basis = MatrixBasis.gellmann(n)
        rng = np.random.default_rng(200 + n)
        top = basis.dim
        for p in range(top + 1):
            w = random_form(basis, p, rng)
            sign = (-1.0) ** (p * (top - p))
            worst_star = max(
                worst_star, (hodge(hodge(w)) - sign * w).norm() / max(1.0, w.norm())
            )
    assert worst_star < TAU_NUM
    basis2 = MatrixBasis.gellmann(2)
    rng = np.random.default_rng(22)
    worst_act = 0.0
    for _ in range(100):
        conn = random_connection(basis2, rng)
        s_direct = action(conn)
        s_pairing = action_via_pairing(conn)
        worst_act = max(worst_act, abs(s_direct - s_pairing) / max(1.0, abs(s_direct)))
    assert worst_act < TAU_NUM
    return (
        f"star-square sign residual {worst_star:.2e}, "
        f"action route mismatch {worst_act:.2e} over 100 connections"
    )


# ---------------------------------------------------------------------------
# C3 — action positivity, exact flat points, gradient descent from 20 seeds
# ---------------------------------------------------------------------------

@criterion(3, 60.0)
def test_c3_descent_to_flatness():
    basis = MatrixBasis.gellmann(2)
    rng = np.random.default_rng(33)
    for _ in range(50):
        assert action(random_connection(basis, rng)) >= 0.0
    assert action(MatrixConnection.zero(basis)) == 0.0
    assert action(MatrixConnection.canonical_flat(basis)) == 0.0
    worst_s = 0.0
    worst_f = 0.0
    orbits = set()
    for seed in range(20):
        conn0 = random_connection(basis, np.random.default_rng(seed))
        res = minimize(conn0)
        assert res.converged, f"seed {seed} did not converge"
        rep = flat_connection_check(res.connection, tol=TAU_NUM)
        worst_s = max(worst_s, res.action)
        worst_f = max(worst_f, rep.flatness.residual)
        orbits.add(round(rep.casimir))
    assert worst_s < TAU_NUM
    assert worst_f < TAU_NUM
    assert orbits <= {0, 6}
    return (
        f"20/20 seeds converged: worst action {worst_s:.2e}, worst curvature "
        f"residual {worst_f:.2e}, flat orbits hit {sorted(orbits)}"
    )


# ---------------------------------------------------------------------------
# C4 — gauge invariance of the action, covariance of the curvature, 100 maps
# ---------------------------------------------------------------------------

@criterion(4, 5.0)
def test_c4_gauge_invariance():
    basis = MatrixBasis.gellmann(2)
    rng = np.random.default_rng(44)
    worst = 0.0
    for trial in range(100):
        if trial % 10 == 0:
            conn = random_connection(basis, rng)
            f = curvature(conn)
            s = action(conn)
        g = random_unitary(2, rng)
        moved = gauge_transform(conn, g)
        worst = max(worst, abs(action(moved) - s) / max(1.0, abs(s)))
        expect = np.einsum("ba,klbc,cd->klad", np.conj(g), f, g)
        worst = max(
            worst, frob_norm(curvature(moved) - expect) / max(1.0, frob_norm(f))
        )
    assert worst < TAU_ALG
    return f"action invariant and curvature covariant over 100 unitaries, residual {worst:.2e}"


# ---------------------------------------------------------------------------
# C5 — representation-valued flat points distinguished by the Casimir
# ---------------------------------------------------------------------------

@criterion(5, 5.0)
def test_c5_module_embeddings():
    basis = MatrixBasis.gellmann(2)
    # half-spin frame inside M_2: the canonical flat point
    half = MatrixConnection.canonical_flat(basis)
    rep_half = flat_connection_check(half)
    assert rep_half.flatness.passed and rep_half.casimir == round(rep_half.casimir) == 6
    # integer-spin generators inside M_3
    sq2 = np.sqrt(2.0)
    spin1 = (
        np.array(
            [
                [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
                [[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]],
                [[sq2, 0, 0], [0, 0, 0], [0, 0, -sq2]],
            ],
            dtype=complex,
        )
        / sq2
    )
    whole = MatrixConnection(basis, 2j * spin1)
    rep_whole = flat_connection_check(whole)
    assert rep_whole.flatness.passed and round(rep_whole.casimir) == 24
    # reducible half (+) scalar inside M_3: flat but Casimir stays 6
    coeffs = np.zeros((3, 3, 3), dtype=complex)
    coeffs[:, :2, :2] = 1j * basis.mats
    mixed = flat_connection_check(MatrixConnection(basis, coeffs))
    assert mixed.flatness.passed and round(mixed.casimir) == 6
    assert round(rep_whole.casimir) != round(rep_half.casimir)
    return "flat embeddings in M2 and M3 verified; Casimir separates 6 vs 24 at equal size"


# ---------------------------------------------------------------------------
# C6 — lattice vacua, Hessian positivity, mass scaling, exact zero mode
# ---------------------------------------------------------------------------

@criterion(6, 120.0)
def test_c6_lattice_spectrum():
    basis = MatrixBasis.gellmann(2)
    for kind in ("broken", "symmetric"):
        assert lattice_action(vacuum_config(kind, (16,), basis, mu=1.0)) <= 1e-12
    spectrum = mass_spectrum(vacuum_config("broken", (16,), basis, mu=1.0))
    mass = 8.0  # L mu^2 / 2 at L = 16
    assert spectrum.min() >= -1e-10 * mass  # Hessian positive semidefinite
    assert abs(spectrum[0]) <= 1e-10 * mass  # exact zero mode along the identity
    nonzero = spectrum[1:]
    assert np.allclose(nonzero, mass, rtol=1e-10, atol=0.0)
    spectrum2 = mass_spectrum(vacuum_config("broken", (16,), basis, mu=2.0))
    ratios = spectrum2[1:] / nonzero
    assert np.all(np.abs(ratios - 4.0) < 1e-10)
    return (
        f"both vacua at zero action; spectrum {np.round(spectrum, 6).tolist()} "
        f"PSD with identity zero mode; mass-doubling ratios within 1e-10 of 4"
    )


# ---------------------------------------------------------------------------
# C7 — two-point potential: closed form vs operator trace, circle of minima
# ---------------------------------------------------------------------------

@criterion(7, 5.0)
def test_c7_two_point_potential():
    from ncgauge import represent_form, two_point_curvature_form

    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        big_n = int(rng.integers(1, 5))
        m = rng.standard_normal((big_n, big_n)) + 1j * rng.standard_normal(
            (big_n, big_n)
        )
        phi = complex(rng.standard_normal(), rng.standard_normal())
        t = two_point_triple(big_n, m)
        op = represent_form(t, two_point_curvature_form(phi - 1.0))
        s_op = float(np.real(np.trace(op @ op)))
        worst = max(
            worst, abs(two_point_action(phi, m) - s_op) / max(1.0, abs(s_op))
        )
    assert worst < TAU_ALG
    m_fixed = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    circle_max = max(
        two_point_action(np.exp(2j * np.pi * k / 64), m_fixed) for k in range(64)
    )
    assert circle_max < TAU_ALG
    for big_n in range(1, 7):
        assert two_point_action(0.0, np.eye(big_n)) == 2.0 * big_n
    return (
        f"closed form matches operator trace (residual {worst:.2e}); "
        f"64 unit-circle points at zero action; origin value 2N verified"
    )


# ---------------------------------------------------------------------------
# C8 — axiom checker: all-green baseline, single-mutation detection, KO table
# ---------------------------------------------------------------------------

def _ko_example(k: int) -> FiniteSpectralTriple:
    i2 = np.eye(2, dtype=complex)
    z2 = np.zeros((2, 2), dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    om = np.array([[0, -1], [1, 0]], dtype=complex)
    table = {
        0: ((i2,), z2, i2, i2),
        1: ((i2,), sy, None, i2),
        2: ((i2,), z2, sz, om),
        3: ((i2,), i2, None, om),
        4: (
            (np.eye(4, dtype=complex),),
            np.zeros((4, 4), dtype=complex),
            np.kron(i2, sz),
            np.kron(om, i2),
        ),
        5: ((i2,), sx, None, om),
        6: ((i2,), z2, sz, sx),
        7: ((i2,), sx, None, i2),
    }
    gens, d, gamma, u = table[k]
    return FiniteSpectralTriple(gens, d, gamma=gamma, j=RealStructure(u), ko_dim=k)


@criterion(8, 5.0)
def test_c8_axiom_checker():
    def failing(t):
        return {ln.name for ln in check_axioms(t).lines if not ln.passed}

    def blockdiag(a, b):
        out = np.zeros((a.shape[0] + b.shape[0],) * 2, dtype=complex)
        out[: a.shape[0], : a.shape[1]] = a
        out[a.shape[0] :, a.shape[1] :] = b
        return out

    i4 = np.eye(4, dtype=complex)
    z4 = np.zeros((4, 4), dtype=complex)
    green = two_point_triple(4, z4)
    assert check_axioms(green).passed
    assert (green.eps, green.eps_p, green.eps_pp) == (1, 1, 1)

    base = two_point_triple(4, i4)
    base_fails = {"first_order"}
    assert failing(base) == base_fails

    g_inv = np.zeros((4, 4), dtype=complex)
    g_inv[:2, :2] = [[1, 1], [0, -1]]
    g_inv[2:, 2:] = np.eye(2)
    om4 = np.block([[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    d_bump = base.d.copy()
    d_bump[0, 4] += 0.1
    h_sym = blockdiag(
        np.diag([1.0, 2, 3, 4]).astype(complex), (np.ones((4, 4)) + np.eye(4))
    )
    r2 = np.zeros((4, 4), dtype=complex)
    r2[0, 1] = r2[1, 0] = 1.0
    g_off = base.generators[0].copy()
    g_off[0, 4] += 1.0

    mutations = [
        ("dirac_self_adjoint", replace(base, d=d_bump), set()),
        ("chirality_self_adjoint", replace(base, gamma=blockdiag(g_inv, -g_inv)), set()),
        ("chirality_squares_to_one", replace(base, gamma=1.1 * base.gamma), set()),
        ("chirality_anticommutes_dirac", replace(base, d=base.d + h_sym), set()),
        ("reality_antiunitary", replace(base, j=RealStructure(blockdiag(g_inv, g_inv))), set()),
        ("reality_squares_sign", replace(base, j=RealStructure(blockdiag(om4, om4))), set()),
        ("reality_dirac_sign", two_point_triple(4, 1j * i4), set()),
        (
            "reality_chirality_sign",
            replace(base, j=RealStructure(np.block([[z4, i4], [i4, z4]]))),
            set(),
        ),
        (
            "zeroth_order",
            replace(
                base,
                generators=(
                    blockdiag(np.diag([1.0, 2, 3, 4]).astype(complex), z4),
                    blockdiag(r2, z4),
                ),
            ),
            set(),
        ),
        # structural companion: a chirality-breaking generator necessarily
        # also breaks the order-zero commutant condition
        (
            "chirality_commutes_algebra",
            replace(base, generators=(g_off, base.generators[1])),
            {"zeroth_order"},
        ),
    ]
    for target, mutated, companions in mutations:
        got = failing(mutated)
        assert got == base_fails | {target} | companions, (target, got)
    # first_order itself: caught when switched on from the all-green triple
    assert failing(two_point_triple(4, i4)) == {"first_order"}

    for k in range(8):
        t = _ko_example(k)
        assert check_axioms(t).passed, f"KO {k}"
        assert (t.eps, t.eps_p, t.eps_pp if t.gamma is not None else None) == KO_TABLE[k]
    return (
        "baseline all-green with signs (1,1,1); 11/11 axiom lines each caught "
        "by a targeted mutation (one documented companion flip); all 8 KO "
        "residues realized with table signs"
    )


# ---------------------------------------------------------------------------
# C9 — fluctuation-then-gauge equals gauge-then-fluctuation, 100 pairs
# ---------------------------------------------------------------------------

@criterion(9, 10.0)
def test_c9_gauge_fluctuation_square():
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(100):
        big_n = int(rng.integers(1, 9))
        m = rng.standard_normal((big_n, big_n)) + 1j * rng.standard_normal(
            (big_n, big_n)
        )
        t = two_point_triple(big_n, m)
        u = np.exp(2j * np.pi * rng.random(2))
        omega = two_point_one_form(
            complex(rng.standard_normal(), rng.standard_normal()),
            complex(rng.standard_normal(), rng.standard_normal()),
        )
        res = inner_gauge(t, u, omega)
        assert res.match and res.gamma_invariant and res.j_invariant, trial
        worst = max(worst, res.max_diff)
    assert worst < TAU_ALG
    return f"both routes coincide on 100 (u, omega) pairs, N up to 8, max diff {worst:.2e}"


# ---------------------------------------------------------------------------
# C10 — the C (+) H (+) M3(C) fixture with swap-adjoint reality operator
# ---------------------------------------------------------------------------

@criterion(10, 5.0)
def test_c10_three_summand_fixture():
    fx = sm_algebra_fixture()
    assert fx.homomorphism_residual < TAU_ALG
    assert fx.zeroth_order_residual < TAU_ALG
    j = fx.triple.j
    dim = fx.triple.hilbert_dim
    assert dim == 32 and len(fx.triple.generators) == 15
    assert frob_norm(dagger(j.u) @ j.u - np.eye(dim)) < TAU_ALG
    assert frob_norm(j.squared() - np.eye(dim)) < TAU_ALG
    return (
        f"32-dim fixture: homomorphism residual {fx.homomorphism_residual:.2e}, "
        f"commutant (order-zero) residual {fx.zeroth_order_residual:.2e}, "
        f"swap-adjoint reality operator is an antiunitary involution"
    )
