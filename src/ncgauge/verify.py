"""Runnable invariant suites: quick, seeded spot-checks of the algebraic
identities every module is built on.

Each suite returns a JSON-ready dict of named checks with residuals and
per-check verdicts; ``run_all`` aggregates them.  These are smaller and
faster than the test suite — they exist so a command-line run can
demonstrate the core identities from a fresh install, deterministically
for a fixed seed.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .basis import MatrixBasis, dagger, frob_norm, random_unitary
from .connections import (
    MatrixConnection,
    action,
    action_gradient,
    action_via_pairing,
    curvature,
    flat_connection_check,
    gauge_transform,
    random_connection,
)
from .derforms import (
    DerForm,
    canonical_theta,
    dinvolution,
    dprime,
    hodge,
    nc_integrate,
    random_form,
    wedge,
)
from .lattice import lattice_action, lattice_gauge_transform, vacuum_config
from .spectral import (
    check_axioms,
    inner_gauge,
    represent_form,
    two_point_action,
    two_point_triple,
)
from .tolerances import TAU_ALG, TAU_NUM
from .universal import (
    UniversalForm,
    duniv,
    random_form as random_universal_form,
    two_point_curvature_form,
    uinvolution,
    uproduct,
)

__all__ = [
    "suite_universal",
    "suite_calculus",
    "suite_gauge",
    "suite_lattice",
    "suite_spectral",
    "run_all",
    "fd_action_gradient",
]


def _check(name: str, residual: float, tol: float) -> dict[str, Any]:
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": tol,
        "passed": bool(residual < tol),
    }


def _suite(name: str, checks: list[dict[str, Any]]) -> dict[str, Any]:
    return {
        "suite": name,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def suite_universal(seed: int = 0, size: int = 4, samples: int = 8) -> dict[str, Any]:
    """Finite-set universal calculus: d² = 0, Leibniz, graded involution."""
    rng = np.random.default_rng(seed)
    r_d2 = r_leib = r_inv = r_dstar = 0.0
    for _ in range(samples):
        p = int(rng.integers(0, 2))
        q = int(rng.integers(0, 2))
        f = random_universal_form(size, p, rng)
        g = random_universal_form(size, q, rng)
        r_d2 = max(r_d2, duniv(duniv(f)).norm())
        lhs = duniv(uproduct(f, g))
        rhs = uproduct(duniv(f), g) + (-1.0) ** p * uproduct(f, duniv(g))
        r_leib = max(r_leib, (lhs - rhs).norm())
        sign = (-1.0) ** (p * q)
        r_inv = max(
            r_inv, (uinvolution(uproduct(f, g)) - sign * uproduct(uinvolution(g), uinvolution(f))).norm()
        )
        r_dstar = max(r_dstar, (duniv(uinvolution(f)) - uinvolution(duniv(f))).norm())
    return _suite(
        "universal_forms",
        [
            _check("d_squared_zero", r_d2, TAU_ALG),
            _check("graded_leibniz", r_leib, TAU_ALG),
            _check("involution_antimultiplicative", r_inv, TAU_ALG),
            _check("d_commutes_with_involution", r_dstar, TAU_ALG),
        ],
    )


def suite_calculus(n: int = 2, seed: int = 0, samples: int = 10) -> dict[str, Any]:
    """Derivation calculus on M_n: differential, canonical one-form, star."""
    rng = np.random.default_rng(seed)
    basis = MatrixBasis.gellmann(n)
    top = basis.dim
    theta = canonical_theta(basis)
    r_d2 = r_leib = r_theta0 = r_maurer = r_exact = r_starstar = 0.0
    for _ in range(samples):
        p = int(rng.integers(0, min(3, top)))
        q = int(rng.integers(0, min(3, top) - p + 1))
        w1 = random_form(basis, p, rng)
        w2 = random_form(basis, q, rng)
        r_d2 = max(r_d2, dprime(dprime(w1)).norm())
        lhs = dprime(wedge(w1, w2))
        rhs = wedge(dprime(w1), w2) + (-1.0) ** p * wedge(w1, dprime(w2))
        r_leib = max(r_leib, (lhs - rhs).norm())
        a = DerForm.matrix(
            basis, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )
        r_theta0 = max(r_theta0, (dprime(a) - (wedge(theta, a) - wedge(a, theta))).norm())
        # |∫ω| ≤ ‖ω_top‖_F / (√n·√g) for any top form ω, so this ratio is
        # the residual at the scale of d'η, whatever the frame's volume
        d_eta = dprime(random_form(basis, top - 1, rng))
        bound = frob_norm(d_eta.component(tuple(range(top)))) / np.sqrt(n) / basis.sqrt_g_det
        if bound:
            r_exact = max(r_exact, abs(nc_integrate(d_eta)) / bound)
        sign = (-1.0) ** (p * (top - p))
        r_starstar = max(r_starstar, (hodge(hodge(w1)) - sign * w1).norm())
    r_maurer = (dprime(theta) - wedge(theta, theta)).norm()
    return _suite(
        f"matrix_calculus_n{n}",
        [
            _check("d_squared_zero", r_d2, TAU_ALG),
            _check("graded_leibniz", r_leib, TAU_ALG),
            _check("d_equals_theta_bracket", r_theta0, TAU_ALG),
            _check("canonical_form_structure_eq", r_maurer, TAU_ALG),
            _check("integral_kills_exact_forms", r_exact, TAU_ALG),
            _check("double_hodge_sign", r_starstar, TAU_ALG),
        ],
    )


def fd_action_gradient(conn: MatrixConnection, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient over the real coordinates of
    anti-Hermitian coefficients (independent oracle for the analytic
    gradient)."""
    basis = conn.basis
    r = conn.r
    grad = np.zeros_like(conn.coeffs)
    for k in range(basis.dim):
        for i in range(r):
            for j in range(i, r):
                if i == j:
                    direction = np.zeros((r, r), dtype=complex)
                    direction[i, i] = 1j
                    dirs = [direction]
                else:
                    d1 = np.zeros((r, r), dtype=complex)
                    d1[i, j] = 1.0
                    d1[j, i] = -1.0
                    d2 = np.zeros((r, r), dtype=complex)
                    d2[i, j] = 1j
                    d2[j, i] = 1j
                    dirs = [d1, d2]
                for direction in dirs:
                    step = np.zeros_like(conn.coeffs)
                    step[k] = direction
                    s_plus = action(MatrixConnection(basis, conn.coeffs + h * step))
                    s_minus = action(MatrixConnection(basis, conn.coeffs - h * step))
                    deriv = (s_plus - s_minus) / (2.0 * h)
                    # accumulate the Riemannian gradient in the trace metric
                    grad[k] += deriv * direction / float(np.real(np.sum(direction * np.conjugate(direction))))
    return grad


def suite_gauge(n: int = 2, seed: int = 0, samples: int = 10) -> dict[str, Any]:
    """Connections: positivity, covariance, the two action routes, FD gradient."""
    rng = np.random.default_rng(seed)
    basis = MatrixBasis.gellmann(n)
    r_pos = 0.0
    r_inv = r_cov = r_routes = 0.0
    for _ in range(samples):
        conn = random_connection(basis, rng)
        s = action(conn)
        r_pos = min(r_pos, s)  # most negative action seen
        g = random_unitary(n, rng)
        conn_g = gauge_transform(conn, g)
        r_inv = max(r_inv, abs(action(conn_g) - s))
        f = curvature(conn)
        f_g = curvature(conn_g)
        r_cov = max(
            r_cov,
            frob_norm(f_g - np.einsum("ba,klbc,cd->klad", np.conjugate(g), f, g)),
        )
        r_routes = max(r_routes, abs(action_via_pairing(conn) - s))
    conn = random_connection(basis, rng)
    g_an = action_gradient(conn)
    g_fd = fd_action_gradient(conn)
    r_grad = frob_norm(g_an - g_fd) / max(1.0, frob_norm(g_fd))
    vac0 = action(MatrixConnection.zero(basis))
    vac1 = action(MatrixConnection.canonical_flat(basis))
    flat1 = flat_connection_check(MatrixConnection.canonical_flat(basis))
    return _suite(
        f"gauge_engine_n{n}",
        [
            _check("action_nonnegative", -r_pos, TAU_ALG),
            _check("gauge_invariance", r_inv, TAU_NUM),
            _check("curvature_covariance", r_cov, TAU_ALG),
            _check("action_route_agreement", r_routes, TAU_NUM),
            _check("gradient_vs_finite_differences", r_grad, 1e-5),
            _check("symmetric_vacuum_action", abs(vac0), TAU_ALG),
            _check("canonical_flat_action", abs(vac1), TAU_ALG),
            _check("canonical_flat_residual", flat1.max_residual, TAU_ALG),
        ],
    )


def suite_lattice(n: int = 2, seed: int = 0) -> dict[str, Any]:
    """Small-lattice facts: exact vacua and constant-gauge invariance."""
    rng = np.random.default_rng(seed)
    basis = MatrixBasis.gellmann(n)
    dims = (8,)
    sym = vacuum_config("symmetric", dims, basis)
    brk = vacuum_config("broken", dims, basis)
    s_sym = lattice_action(sym)
    s_brk = lattice_action(brk)
    g_const = np.broadcast_to(random_unitary(n, rng), dims + (n, n)).copy()
    s_gauged = lattice_action(lattice_gauge_transform(brk, g_const))
    # the algebraic heart of the broken vacuum
    b = 1j * basis.mats
    comm = np.einsum("kab,lbc->klac", b, b)
    comm = comm - comm.transpose(1, 0, 2, 3)
    higgs = frob_norm(comm - np.einsum("klm,mab->klab", basis.c, b))
    return _suite(
        f"lattice_higgs_n{n}",
        [
            _check("symmetric_vacuum_zero", s_sym, 1e-12),
            _check("broken_vacuum_zero", s_brk, 1e-12),
            _check("constant_gauge_invariance", abs(s_gauged - s_brk), TAU_NUM),
            _check("frame_bracket_identity", higgs, TAU_ALG),
        ],
    )


def suite_spectral(seed: int = 0, big_n: int = 3, samples: int = 6) -> dict[str, Any]:
    """Two-point model: axioms, gauge coincidence, action identity."""
    rng = np.random.default_rng(seed)
    t0 = two_point_triple(big_n, np.zeros((big_n, big_n)))
    rep0 = check_axioms(t0)
    r_axioms = max(ln.residual for ln in rep0.lines)
    m = rng.standard_normal((big_n, big_n))
    t = two_point_triple(big_n, m)
    rep = check_axioms(t)
    sign_lines = [
        rep.line(name).residual
        for name in ("reality_squares_sign", "reality_dirac_sign", "reality_chirality_sign")
    ]
    r_match = 0.0
    r_action = 0.0
    for _ in range(samples):
        theta = rng.uniform(0, 2 * np.pi, size=2)
        u = np.exp(1j * theta)
        omega = UniversalForm(
            2,
            1,
            np.array(
                [
                    [0.0, rng.standard_normal() + 1j * rng.standard_normal()],
                    [rng.standard_normal() + 1j * rng.standard_normal(), 0.0],
                ]
            ),
        )
        res = inner_gauge(t, u, omega)
        r_match = max(r_match, res.max_diff)
        r_c = rng.standard_normal() + 1j * rng.standard_normal()
        curv = represent_form(t, two_point_curvature_form(r_c)).op
        closed = two_point_action(1.0 + r_c, m)
        r_action = max(r_action, abs(float(np.real(np.trace(curv @ curv))) - closed))
    return _suite(
        "spectral_core",
        [
            _check("two_point_all_axioms_massless", r_axioms, TAU_ALG),
            _check("two_point_sign_rows", max(sign_lines), TAU_ALG),
            _check("gauge_route_coincidence", r_match, TAU_ALG),
            _check("action_operator_vs_closed_form", r_action, TAU_NUM),
        ],
    )


def run_all(n: int = 2, seed: int = 0) -> dict[str, Any]:
    """Run every suite; the ``passed`` field is the overall verdict."""
    if n < 2:
        raise ValueError(f"matrix size must be at least 2, got {n}")
    suites = [
        suite_universal(seed=seed),
        suite_calculus(n=n, seed=seed),
        suite_gauge(n=n, seed=seed),
        suite_lattice(n=n, seed=seed),
        suite_spectral(seed=seed),
    ]
    return {
        "n": n,
        "seed": seed,
        "suites": suites,
        "passed": all(s["passed"] for s in suites),
    }
