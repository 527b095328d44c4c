"""Connections on matrix modules: curvature, Yang-Mills action, descent.

A connection is stored through its coefficient matrices ``A_k`` (one
``r x r`` matrix per frame direction ``k``), the components of the
one-form that shifts the canonical flat reference connection.  Gauge
transformations therefore act homogeneously, ``A_k ↦ g† A_k g``.

The curvature components are ``F_kl = [A_k, A_l] − C[k, l, m] A_m``;
they vanish exactly when ``k ↦ A_k`` is a Lie-algebra representation of
the frame bracket, which is how flat connections are classified.  The
action is the non-negative quartic

    S[A] = −(1/8n) Σ_{k,l} tr(F_kl F^kl),       F^kl = g^ka g^lb F_ab,

whose two exact minima families at ``A = 0`` and ``A_k = iE_k`` are the
symmetric and broken vacua.  ``action_via_pairing`` recomputes S through
the Hodge-star route ``(1/4)∫ F* ⋆F`` as an independent cross-check of
the whole calculus stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import MatrixBasis, dagger, frob_norm, is_unitary
from .derforms import DerForm, dinvolution, dprime, hodge, nc_integrate, wedge
from .errors import (
    MaxIterationsError,
    NotProjectorError,
    NotUnitaryError,
    ShapeError,
)
from .tolerances import TAU_ALG

__all__ = [
    "MatrixConnection",
    "random_connection",
    "curvature",
    "curvature_form",
    "gauge_transform",
    "action",
    "action_via_pairing",
    "action_gradient",
    "minimize",
    "MinimizeResult",
    "flat_connection_check",
    "FlatnessReport",
    "casimir_invariant",
    "hermitian_compatibility_check",
    "grassmann_connection",
]


@dataclass(frozen=True)
class MatrixConnection:
    """Connection coefficients ``A_k`` over a matrix basis.

    ``coeffs`` has shape ``(dim, r, r)`` — one ``r x r`` matrix per frame
    direction.  ``r`` equals the basis size ``n`` for the algebra acting
    on itself; other values describe rectangular modules (for example
    embedding frame representations into larger matrix blocks).
    """

    basis: MatrixBasis
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.ndim != 3 or coeffs.shape[0] != self.basis.dim or coeffs.shape[1] != coeffs.shape[2]:
            raise ShapeError(
                f"coefficients must have shape ({self.basis.dim}, r, r), got {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", coeffs)
        coeffs.setflags(write=False)

    @property
    def r(self) -> int:
        """Module row size."""
        return self.coeffs.shape[1]

    @classmethod
    def zero(cls, basis: MatrixBasis, r: int | None = None) -> "MatrixConnection":
        r = basis.n if r is None else r
        return cls(basis, np.zeros((basis.dim, r, r), dtype=complex))

    @classmethod
    def canonical_flat(cls, basis: MatrixBasis) -> "MatrixConnection":
        """The broken-phase vacuum ``A_k = iE_k`` (exactly flat)."""
        return cls(basis, 1j * basis.mats)


def random_connection(
    basis: MatrixBasis, rng: np.random.Generator, r: int | None = None, scale: float = 1.0
) -> MatrixConnection:
    """Random anti-Hermitian connection coefficients."""
    r = basis.n if r is None else r
    a = rng.standard_normal((basis.dim, r, r)) + 1j * rng.standard_normal((basis.dim, r, r))
    return MatrixConnection(basis, scale * (a - dagger(a)) / 2.0)


# ---------------------------------------------------------------------------
# curvature and action
# ---------------------------------------------------------------------------

def _c_by_last_index(basis: MatrixBasis) -> np.ndarray:
    """``C[k, l, m]`` as the ``(D, D·D)`` matrix with rows ``m``; a view, as
    ``structure_constants`` stores ``C`` with its last index slowest."""
    return basis.c.transpose(2, 0, 1).reshape(basis.dim, basis.dim**2)


def curvature(conn: MatrixConnection) -> np.ndarray:
    """Curvature components, shape ``(dim, dim, r, r)``:
    ``F[k, l] = [A_k, A_l] − C[k, l, m] A_m``."""
    a = conn.coeffs
    d, r = a.shape[:2]
    # every product A_k A_l from one (d·r × r)(r × d·r) GEMM
    prod = a.reshape(d * r, r) @ a.transpose(1, 0, 2).reshape(r, d * r)
    prod = prod.reshape(d, r, d, r).transpose(0, 2, 1, 3)
    c_term = (_c_by_last_index(conn.basis).T @ a.reshape(d, r * r)).reshape(d, d, r, r)
    return prod - prod.transpose(1, 0, 2, 3) - c_term


def curvature_form(conn: MatrixConnection) -> DerForm:
    """Curvature as a degree-2 form ``Σ_{k<l} F_kl ⊗ θ^k θ^l`` (needs r = n)."""
    basis = conn.basis
    if conn.r != basis.n:
        raise ShapeError("the form picture needs module row size r equal to n")
    f = curvature(conn)
    comps = {}
    for k in range(basis.dim):
        for l in range(k + 1, basis.dim):
            comps[(k, l)] = f[k, l]
    return DerForm(basis, comps)


def gauge_transform(conn: MatrixConnection, g: np.ndarray) -> MatrixConnection:
    """Unitary gauge action ``A_k ↦ g† A_k g`` (homogeneous in this frame)."""
    g = np.asarray(g, dtype=complex)
    if g.shape != (conn.r, conn.r):
        raise ShapeError(f"gauge matrix must be {conn.r}x{conn.r}")
    if not is_unitary(g):
        raise NotUnitaryError("gauge transformations must be unitary")
    return MatrixConnection(conn.basis, np.einsum("ba,kbc,cd->kad", np.conjugate(g), conn.coeffs, g))


def _raised(conn: MatrixConnection, f: np.ndarray) -> np.ndarray:
    """``F^kl = g^ka g^lb F_ab`` as two GEMMs: ``g_inv`` on the first frame
    index of all of ``F`` at once, then on the second within each ``k``."""
    g_inv = conn.basis.g_inv
    d, r = f.shape[0], f.shape[2]
    half = (g_inv @ f.reshape(d, d * r * r)).reshape(d, d, r * r)
    return (g_inv @ half).reshape(f.shape)


def action(conn: MatrixConnection, f: np.ndarray | None = None) -> float:
    """Yang-Mills action ``−(1/8n) Σ tr(F_kl F^kl)`` (non-negative for
    anti-Hermitian coefficients)."""
    if f is None:
        f = curvature(conn)
    f_up = _raised(conn, f)
    val = -np.einsum("klij,klji->", f, f_up) / (8.0 * conn.basis.n)
    return float(np.real(val))


def action_via_pairing(conn: MatrixConnection) -> float:
    """The action recomputed through the metric pairing of the curvature
    form with itself: ``(1/4) ∫ F* ⋆F``.

    Independent code path through the exterior calculus (involution,
    Hodge star, top-degree integral); agrees with :func:`action` exactly
    for anti-Hermitian connections on the module with ``r = n``.
    """
    f_form = curvature_form(conn)
    pairing = nc_integrate(wedge(dinvolution(f_form), hodge(f_form)))
    return float(np.real(pairing)) / 4.0


def action_gradient(conn: MatrixConnection, f: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the action over the real coordinates of anti-Hermitian
    coefficients, shape ``(dim, r, r)``; each component anti-Hermitian.

    Stationarity ⟺ the anti-Hermitian part of
    ``M_k = 2 Σ_l [A_l, F^kl] − Σ_ab C[a, b, k] F^ab`` vanishes.
    """
    a = conn.coeffs
    d, r = a.shape[:2]
    if f is None:
        f = curvature(conn)
    f_up = _raised(conn, f)
    # Σ_l A_l F^kl and Σ_l F^kl A_l as batched (r × d·r)(d·r × r) products
    a_row = a.transpose(1, 0, 2).reshape(r, d * r)
    f_row = f_up.transpose(0, 2, 1, 3).reshape(d, r, d * r)
    comm = a_row @ f_up.reshape(d, d * r, r) - f_row @ a.reshape(d * r, r)
    c_term = (_c_by_last_index(conn.basis) @ f_up.reshape(d * d, r * r)).reshape(d, r, r)
    m = 2.0 * comm - c_term
    return (m - dagger(m)) / (2.0 * 4.0 * conn.basis.n)


@dataclass
class MinimizeResult:
    """Outcome of gradient descent on the action."""

    connection: MatrixConnection
    action: float
    grad_norm: float
    iterations: int
    converged: bool
    #: rows (iteration, action, gradient norm), subsampled by trace_every
    trace: list[tuple[int, float, float]] = field(default_factory=list)
    #: why :func:`minimize` stopped: ``"gtol"``, ``"max_iter"`` or
    #: ``"line_search_stalled"`` (``None`` on a result built by hand)
    stop_reason: str | None = None

    def raise_for_convergence(self) -> "MinimizeResult":
        """Return ``self`` if converged, else raise :class:`MaxIterationsError`."""
        if not self.converged:
            raise MaxIterationsError(
                f"no convergence after {self.iterations} iterations "
                f"(stopped by {self.stop_reason}, grad norm {self.grad_norm:.3e})"
            )
        return self


def minimize(
    conn: MatrixConnection,
    max_iter: int = 20000,
    gtol: float = 1e-10,
    step0: float = 0.5,
    armijo: float = 1e-4,
    trace_every: int = 1,
) -> MinimizeResult:
    """Gradient descent with backtracking line search (sufficient-decrease
    rule), staying exactly on the anti-Hermitian slice.

    Stops when the gradient norm drops below ``gtol`` or after
    ``max_iter`` accepted steps.  A step is accepted only if it lowers
    the action, so when no step above 1e-18 does, the line search stalls
    and ends the run.  Non-convergence is reported through
    ``converged=False`` and ``stop_reason``, never an exception.  The
    curvature of each accepted point is computed once, for its action,
    and reused for its gradient.
    """
    basis = conn.basis
    point = MatrixConnection(basis, conn.coeffs.copy())
    f = curvature(point)
    s = action(point, f)
    step = step0
    trace: list[tuple[int, float, float]] = []
    it = 0
    converged = False
    stalled = False
    g = action_gradient(point, f)
    gnorm = frob_norm(g)
    while it < max_iter:
        if it % trace_every == 0:
            trace.append((it, s, gnorm))
        if gnorm < gtol:
            converged = True
            break
        # backtracking on S(a - t g) against the sufficient-decrease bound
        while step > 1e-18:
            cand = MatrixConnection(basis, point.coeffs - step * g)
            f_cand = curvature(cand)
            s_cand = action(cand, f_cand)
            # the strict test rejects a step whose decrease rounds away
            if s_cand < s and s_cand <= s - armijo * step * gnorm**2:
                point, f, s = cand, f_cand, s_cand
                break
            step /= 2.0
        else:
            stalled = True  # line search exhausted at machine precision
            break
        step = min(step * 2.0, 1e6)
        g = action_gradient(point, f)
        gnorm = frob_norm(g)
        it += 1
    if gnorm < gtol:
        converged = True
    if not trace or trace[-1][0] != it:
        trace.append((it, s, gnorm))
    return MinimizeResult(
        connection=point,
        action=s,
        grad_norm=gnorm,
        iterations=it,
        converged=converged,
        trace=trace,
        stop_reason="gtol" if converged else "line_search_stalled" if stalled else "max_iter",
    )


# ---------------------------------------------------------------------------
# flatness and module structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlatnessReport:
    """Flatness verdict plus the representation invariant that separates
    gauge orbits of flat connections (quadratic Casimir trace)."""

    is_flat: bool
    max_residual: float
    casimir: float
    r: int


def casimir_invariant(conn: MatrixConnection) -> float:
    """Representation invariant ``−Σ g^kl tr(A_k A_l)``.

    Equals ``Σ_k tr(A_k† A^k)`` for anti-Hermitian coefficients, so it is
    non-negative there and constant on gauge orbits.
    """
    val = -np.einsum("kl,kab,lba->", conn.basis.g_inv, conn.coeffs, conn.coeffs)
    return float(np.real(val))


def flat_connection_check(conn: MatrixConnection, tol: float = TAU_ALG) -> FlatnessReport:
    """Check ``F = 0`` (within ``tol``), i.e. that ``k ↦ A_k`` represents the
    frame bracket; report the Casimir invariant alongside."""
    f = curvature(conn)
    residual = float(np.sqrt(np.max(np.sum(np.abs(f) ** 2, axis=(2, 3)))))
    return FlatnessReport(
        is_flat=residual < tol,
        max_residual=residual,
        casimir=casimir_invariant(conn),
        r=conn.r,
    )


def hermitian_compatibility_check(conn: MatrixConnection, tol: float = TAU_ALG) -> bool:
    """True iff every coefficient is anti-Hermitian (metric compatibility
    of the connection with the canonical Hermitian pairing)."""
    a = conn.coeffs
    return bool(frob_norm(a + dagger(a)) <= tol * frob_norm(a))


def grassmann_connection(p: np.ndarray, basis: MatrixBasis, tol: float = TAU_ALG) -> np.ndarray:
    """Curvature ``p (d'p) (d'p)`` of the projector connection on ``p·A^N``.

    ``p`` is an ``(N, N, n, n)`` array of algebra entries forming an
    idempotent block matrix.  Returns an ``(N, N)`` object array of
    degree-2 forms.
    """
    p = np.asarray(p, dtype=complex)
    if p.ndim != 4 or p.shape[0] != p.shape[1] or p.shape[2:] != (basis.n, basis.n):
        raise ShapeError(f"projector entries must form (N, N, {basis.n}, {basis.n})")
    nrows = p.shape[0]
    psq = np.einsum("ikab,kjbc->ijac", p, p)
    if frob_norm(psq - p) > tol * max(1.0, frob_norm(p)):
        raise NotProjectorError("block matrix is not idempotent")
    dp = [[dprime(DerForm.matrix(basis, p[i, j])) for j in range(nrows)] for i in range(nrows)]
    p_forms = [[DerForm.matrix(basis, p[i, j]) for j in range(nrows)] for i in range(nrows)]
    out = np.empty((nrows, nrows), dtype=object)
    for i in range(nrows):
        for j in range(nrows):
            total = DerForm.zero(basis)
            for k in range(nrows):
                for l in range(nrows):
                    total = total + wedge(p_forms[i][k], wedge(dp[k][l], dp[l][j]))
            out[i, j] = total
    return out
