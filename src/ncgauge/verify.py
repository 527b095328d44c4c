"""Runnable invariant suites: quick, seeded spot-checks of the algebraic
identities every module is built on.

Each suite returns the record of a :class:`~ncgauge.tolerances.CheckReport`:
named checks, each holding its residual to ``tol`` times the product of its
operands' norms (a frame-sized scale where the operands vanish; for the
gradient, the roundoff scale of the exact five-point stencil of
:func:`line_derivative`), so a rescaled frame reads the same verdicts;
``run_all`` aggregates them.  They exist so a command-line run can
demonstrate the core identities from a fresh install, deterministically for
a fixed seed.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Callable

import numpy as np

from .basis import (
    MatrixBasis, antihermitian_frame, bracket_defect, dagger, frob_norm, random_unitary
)
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
    dprime,
    hodge,
    nc_integrate,
    random_form,
    wedge,
)
from .lattice import (
    lattice_action,
    lattice_gauge_transform,
    random_lattice_config,
    vacuum_config,
)
from .spectral import (
    check_axioms,
    inner_gauge,
    represent_form,
    two_point_action,
    two_point_triple,
)
from .tolerances import TAU_ALG, Check, CheckReport
from .universal import (
    UniversalForm,
    duniv,
    random_universal_form,
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
    "line_derivative",
    "fd_action_gradient",
]


def suite_universal(seed: int = 0) -> dict[str, Any]:
    """Universal calculus on 4 points: d² = 0, Leibniz, graded involution."""
    rng = np.random.default_rng(seed)
    checks: list[Check] = []
    for _ in range(8):
        p = int(rng.integers(0, 2))
        q = int(rng.integers(0, 2))
        f = random_universal_form(4, p, rng)
        g = random_universal_form(4, q, rng)
        fg = f.norm() * g.norm()
        lhs = duniv(uproduct(f, g))
        rhs = uproduct(duniv(f), g) + (-1.0) ** p * uproduct(f, duniv(g))
        sign = (-1.0) ** (p * q)
        inv = uinvolution(uproduct(f, g)) - sign * uproduct(uinvolution(g), uinvolution(f))
        checks += [
            Check("d_squared_zero", duniv(duniv(f)).norm(), TAU_ALG, f.norm()),
            Check("graded_leibniz", (lhs - rhs).norm(), TAU_ALG, fg),
            Check("involution_antimultiplicative", inv.norm(), TAU_ALG, fg),
            Check(
                "d_commutes_with_involution",
                (duniv(uinvolution(f)) - uinvolution(duniv(f))).norm(),
                TAU_ALG,
                f.norm(),
            ),
        ]
    return CheckReport("universal_forms", checks).to_record()


def suite_calculus(n: int = 2, seed: int = 0) -> dict[str, Any]:
    """Derivation calculus on M_n: differential, canonical one-form, star."""
    rng = np.random.default_rng(seed)
    basis = MatrixBasis.gellmann(n)
    top = basis.dim
    theta = canonical_theta(basis)
    # d' acts as the bracket with iθ, so ‖iθ‖ is the size of one d'
    d_size = theta.norm()
    maurer = (dprime(theta) - wedge(theta, theta)).norm()
    checks = [Check("canonical_form_structure_eq", maurer, TAU_ALG, d_size**2)]
    for _ in range(10):
        p = int(rng.integers(0, min(3, top)))
        q = int(rng.integers(0, min(3, top) - p + 1))
        w1 = random_form(basis, p, rng)
        w2 = random_form(basis, q, rng)
        lhs = dprime(wedge(w1, w2))
        rhs = wedge(dprime(w1), w2) + (-1.0) ** p * wedge(w1, dprime(w2))
        a = DerForm.matrix(
            basis, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )
        bracket = dprime(a) - (wedge(theta, a) - wedge(a, theta))
        # |∫ω| ≤ ‖ω_top‖_F / (√n·√g) for any top form ω: the scale of ∫d'η,
        # whatever the frame's volume
        d_eta = dprime(random_form(basis, top - 1, rng))
        bound = frob_norm(d_eta.component(tuple(range(top)))) / np.sqrt(n) / basis.sqrt_g_det
        sign = (-1.0) ** (p * (top - p))
        checks += [
            Check("d_squared_zero", dprime(dprime(w1)).norm(), TAU_ALG, d_size**2 * w1.norm()),
            Check("graded_leibniz", (lhs - rhs).norm(), TAU_ALG, d_size * w1.norm() * w2.norm()),
            Check("d_equals_theta_bracket", bracket.norm(), TAU_ALG, d_size * a.norm()),
            Check("integral_kills_exact_forms", abs(nc_integrate(d_eta)), TAU_ALG, bound),
            Check("double_hodge_sign", (hodge(hodge(w1)) - sign * w1).norm(), TAU_ALG, w1.norm()),
        ]
    return CheckReport(f"matrix_calculus_n{n}", checks).to_record()


def line_derivative(f: Callable, x: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """``d/dt f(x + t·v)`` at ``t = 0`` from the five-point central stencil, and
    its roundoff scale ``Σ|c_k·f_k| / 12t``.  The stencil is exact on quartics
    along the line (Fornberg, Math. Comp. 51 (1988) 699), as both actions are,
    so the step, ``max(‖x‖, ‖v‖)`` long, is scale-free and nonzero at ``x = 0``."""
    t = max(frob_norm(x), frob_norm(v)) / frob_norm(v)
    terms = [c * f(x + k * t * v) for k, c in ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))]
    return sum(terms) / (12.0 * t), sum(map(abs, terms)) / (12.0 * t)


def fd_action_gradient(conn: MatrixConnection) -> np.ndarray:
    """``action``'s gradient from its exact line derivatives along an orthonormal
    anti-Hermitian frame in each slot: an oracle independent of ``action_gradient``."""
    grad, frame = np.zeros_like(conn.coeffs), antihermitian_frame(conn.r)
    for k in range(conn.basis.dim):
        for e in frame:
            v = np.zeros_like(conn.coeffs)
            v[k] = e
            grad[k] += line_derivative(partial(_action_at, conn.basis), conn.coeffs, v)[0] * e
    return grad


def _action_at(basis: MatrixBasis, coeffs: np.ndarray) -> float:
    return action(MatrixConnection(basis, coeffs))


def suite_gauge(n: int = 2, seed: int = 0) -> dict[str, Any]:
    """Connections: positivity, covariance, the two action routes, and the gradient
    against the exact five-point stencil along 8 seeded directions, at ``TAU_ALG``."""
    rng = np.random.default_rng(seed)
    basis = MatrixBasis.gellmann(n)
    checks: list[Check] = []
    for _ in range(10):
        conn = random_connection(basis, rng)
        f = curvature(conn)
        s = action(conn)
        g = random_unitary(n, rng)
        conn_g = gauge_transform(conn, g)
        f_moved = curvature(conn_g) - dagger(g) @ f @ g
        checks += [
            # a sum of squares: negative at any size is a failure
            Check("action_nonnegative", max(0.0, -s), TAU_ALG, abs(s)),
            Check("gauge_invariance", abs(action(conn_g) - s), TAU_ALG, abs(s)),
            Check("curvature_covariance", frob_norm(f_moved), TAU_ALG, frob_norm(f)),
            Check("action_route_agreement", abs(action_via_pairing(conn) - s), TAU_ALG, abs(s)),
        ]
    conn = random_connection(basis, rng)
    g = action_gradient(conn)
    for _ in range(8):
        v = random_connection(basis, rng).coeffs
        deriv, size = line_derivative(partial(_action_at, basis), conn.coeffs, v)
        residual = abs(deriv - np.real(np.vdot(g, v)))
        checks.append(Check("gradient_vs_finite_differences", residual, TAU_ALG, size))
    # the directions are anti-Hermitian, so they cannot see a Hermitian part of g
    checks.append(Check("gradient_antihermitian", frob_norm(g + dagger(g)), TAU_ALG, frob_norm(g)))
    flat = MatrixConnection.canonical_flat(basis)
    a_sq = frob_norm(flat.coeffs) ** 2
    # the action's size at a connection as large as the frame: both vacua are
    # judged at it, the symmetric one because its operands vanish
    unit = (frob_norm(basis.g_inv) * a_sq) ** 2 / (8.0 * n)
    checks += [
        Check("symmetric_vacuum_action", abs(action(MatrixConnection.zero(basis))), TAU_ALG, unit),
        Check("canonical_flat_action", abs(action(flat)), TAU_ALG, unit),
        # stricter than the flatness line's own tol·(a² + ‖C‖·a), 3x so at n = 2
        Check("canonical_flat_residual", flat_connection_check(flat).flatness.residual, TAU_ALG, a_sq),
    ]
    return CheckReport(f"gauge_engine_n{n}", checks).to_record()


def suite_lattice(n: int = 2, seed: int = 0) -> dict[str, Any]:
    """Small-lattice facts: exact vacua and constant-gauge invariance."""
    rng = np.random.default_rng(seed)
    basis = MatrixBasis.gellmann(n)
    dims = (8,)
    sym = vacuum_config("symmetric", dims, basis)
    brk = vacuum_config("broken", dims, basis)
    g_const = np.broadcast_to(random_unitary(n, rng), dims + (n, n)).copy()
    # invariance is judged away from a vacuum, where the action is
    # stationary and would hide a first-order error in the transform
    cfg = random_lattice_config(dims, basis, 1.0, rng)
    s_cfg = lattice_action(cfg)
    s_gauged = lattice_action(lattice_gauge_transform(cfg, g_const))
    # the algebraic heart of the broken vacuum: its frame curvature vanishes
    b = 1j * basis.mats
    higgs = frob_norm(bracket_defect(basis.c, b))
    # the Higgs term's size at the broken vacuum; the symmetric vacuum, whose
    # fields vanish, is judged at it too
    unit = (brk.mu**2 * frob_norm(brk.b) ** 2) ** 2 / (16.0 * n**2)
    checks = [
        Check("symmetric_vacuum_zero", lattice_action(sym), 1e-12, unit),
        Check("broken_vacuum_zero", lattice_action(brk), 1e-12, unit),
        Check("constant_gauge_invariance", abs(s_gauged - s_cfg), TAU_ALG, s_cfg),
        Check("frame_bracket_identity", higgs, TAU_ALG, frob_norm(b) ** 2),
    ]
    return CheckReport(f"lattice_higgs_n{n}", checks).to_record()


def suite_spectral(seed: int = 0) -> dict[str, Any]:
    """Two-point model with 3×3 blocks: axioms, gauge coincidence, action identity."""
    rng = np.random.default_rng(seed)
    rep0 = check_axioms(two_point_triple(3, np.zeros((3, 3))))
    m = rng.standard_normal((3, 3))
    t = two_point_triple(3, m)
    rep = check_axioms(t)
    # axiom lines keep their own bounds, so their verdicts carry over
    checks = [replace(ln, name="two_point_all_axioms_massless") for ln in rep0.lines]
    checks += [
        replace(rep.line(name), name="two_point_sign_rows")
        for name in ("reality_squares_sign", "reality_dirac_sign", "reality_chirality_sign")
    ]
    for _ in range(6):
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
        r_c = rng.standard_normal() + 1j * rng.standard_normal()
        curv = represent_form(t, two_point_curvature_form(r_c))
        closed = two_point_action(1.0 + r_c, m)
        checks += [
            *(replace(ln, name=f"gauge_{ln.name}") for ln in res.report.lines),
            Check(
                "action_operator_vs_closed_form",
                abs(float(np.real(np.trace(curv @ curv))) - closed),
                TAU_ALG,
                frob_norm(curv) ** 2,
            ),
        ]
    return CheckReport("spectral_core", checks).to_record()


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
