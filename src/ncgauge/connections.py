"""Connections on matrix modules: curvature, Yang-Mills action, descent.

A connection is stored through its coefficient matrices ``A_k`` (one
``r x r`` matrix per frame direction ``k``), the components of the
one-form that shifts the canonical flat reference connection.  Gauge
transformations therefore act homogeneously, ``A_k ↦ g† A_k g``.

The curvature components are ``F_kl = [A_k, A_l] − C[k, l, m] A_m``;
they vanish exactly when ``k ↦ A_k`` is a Lie-algebra representation of
the frame bracket, which is how flat connections are classified.  The
action is the Hermitian norm of the curvature, ``F^kl = g^ka g^lb F_ab``,

    S[A] = (1/8n) Σ_{k,l} Re tr(F_kl† F^kl) = (n/32) Σ_{k,l} ‖F̃_kl‖²,

read without a metric in the basis' normal frame, where ``Ã = Lᵀ A`` has
the curvature ``F̃`` and ``minimize`` takes its steps; its result says whether
and why it stopped (``converged``, ``stop_reason``), never an exception.  The
action's two exact minima families at ``A = 0`` and ``A_k = iE_k`` are the
symmetric and broken vacua.
``action_via_pairing`` recomputes S through the Hodge-star route ``(1/4)∫ F* ⋆F``
as an independent cross-check of the whole calculus stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import (
    MatrixBasis, _antihermitian_draw, bracket_defect, conjugate_by, dagger, frame_map,
    frob_norm, frozen, is_antihermitian, is_unitary,
)
from .derforms import DerForm, _nonzero, dinvolution, dprime, hodge, nc_integrate, wedge
from .errors import NotProjectorError, NotUnitaryError, ShapeError
from .tolerances import TAU_ALG, Check

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


@dataclass(frozen=True, eq=False)
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
        coeffs = frozen(self.coeffs)
        if coeffs.ndim != 3 or coeffs.shape[0] != self.basis.dim or coeffs.shape[1] != coeffs.shape[2]:
            raise ShapeError(
                f"coefficients must have shape ({self.basis.dim}, r, r), got {coeffs.shape}"
            )
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def r(self) -> int:
        """Module row size."""
        return self.coeffs.shape[1]

    @classmethod
    def zero(cls, basis: MatrixBasis) -> "MatrixConnection":
        """The symmetric vacuum ``A = 0`` on the module with ``r = n``."""
        return cls(basis, np.zeros((basis.dim, basis.n, basis.n), dtype=complex))

    @classmethod
    def canonical_flat(cls, basis: MatrixBasis) -> "MatrixConnection":
        """The broken-phase vacuum ``A_k = iE_k`` (flat up to roundoff)."""
        return cls(basis, 1j * basis.mats)


def random_connection(
    basis: MatrixBasis, rng: np.random.Generator, r: int | None = None
) -> MatrixConnection:
    """Random anti-Hermitian connection coefficients."""
    r = basis.n if r is None else r
    return MatrixConnection(basis, _antihermitian_draw((basis.dim, r, r), rng))


# ---------------------------------------------------------------------------
# curvature and action
# ---------------------------------------------------------------------------

def curvature(conn: MatrixConnection) -> np.ndarray:
    """Curvature components, shape ``(dim, dim, r, r)``:
    ``F[k, l] = [A_k, A_l] − C[k, l, m] A_m``."""
    return bracket_defect(conn.basis.c, conn.coeffs)


def curvature_form(conn: MatrixConnection) -> DerForm:
    """Curvature as a degree-2 form ``Σ_{k<l} F_kl ⊗ θ^k θ^l`` (needs r = n)."""
    basis = conn.basis
    if conn.r != basis.n:
        raise ShapeError("the form picture needs module row size r equal to n")
    iu = np.triu_indices(basis.dim, 1)  # the pairs k < l, in lexicographic order
    part = _nonzero(np.stack(iu, axis=1), curvature(conn)[iu])
    return DerForm._of(basis, {} if part is None else {2: part})


def gauge_transform(conn: MatrixConnection, g: np.ndarray) -> MatrixConnection:
    """Unitary gauge action ``A_k ↦ g† A_k g`` (homogeneous in this frame)."""
    g = np.asarray(g, dtype=complex)
    if g.shape != (conn.r, conn.r):
        raise ShapeError(f"gauge matrix must be {conn.r}x{conn.r}")
    if not is_unitary(g):
        raise NotUnitaryError("gauge transformations must be unitary")
    return MatrixConnection(conn.basis, conjugate_by(g, conn.coeffs))


def _action_parts(basis: MatrixBasis, a: np.ndarray) -> tuple[float, np.ndarray]:
    """The action of the normal-frame coefficients ``Ã`` and their curvature ``F̃``."""
    f = bracket_defect(basis.normal_frame[1], a)
    return basis.n / 32.0 * float(np.vdot(f, f).real), f


def action(conn: MatrixConnection) -> float:
    """Yang-Mills action ``(1/8n) Σ Re tr(F_kl† F^kl)``, read in the normal frame as
    ``(n/32) Σ ‖F̃_kl‖²``: a squared norm, so non-negative for every connection."""
    return _action_parts(conn.basis, frame_map(conn.basis.normal_frame[0].T, conn.coeffs))[0]


def action_via_pairing(conn: MatrixConnection) -> float:
    """The action recomputed through the metric pairing of the curvature
    form with itself: ``(1/4) ∫ F* ⋆F``.

    Independent code path through the exterior calculus (involution, Hodge
    star with the metric, top-degree integral); agrees with :func:`action`
    for every connection on the module with ``r = n``.
    """
    f_form = curvature_form(conn)
    pairing = nc_integrate(wedge(dinvolution(f_form), hodge(f_form)))
    return float(np.real(pairing)) / 4.0


def action_gradient(conn: MatrixConnection) -> np.ndarray:
    """Gradient of the action over the real coordinates of anti-Hermitian
    coefficients, shape ``(dim, r, r)``, each component anti-Hermitian: ``L G̃``
    for ``G̃ = (n/32)(K − K†)``, ``K_k = 2 Σ_l [F̃_kl, Ã_l†] − Σ_ab C̃[a, b, k] F̃_ab``,
    so stationarity ⟺ ``K`` is Hermitian."""
    lower = conn.basis.normal_frame[0]
    a = frame_map(lower.T, conn.coeffs)
    return frame_map(lower, _gradient(conn.basis, a, _action_parts(conn.basis, a)[1]))


def _gradient(basis: MatrixBasis, a_n: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The normal-frame gradient ``G̃`` of the action at ``Ã``, whose curvature is ``F̃``.
    Two GEMMs on the block matrix ``F̃_B[(k, i), (l, j)]``: row block ``k`` of ``F̃_B Ã†_col``
    is ``Σ_l F̃_kl Ã_l†``, and column block ``k`` of ``Ã†_row F̃_B`` is ``−Σ_l Ã_l† F̃_kl``."""
    c = basis.normal_frame[1]
    a = dagger(a_n)
    d, r = a.shape[:2]
    f_b = f.transpose(0, 2, 1, 3).reshape(d * r, d * r)
    comm = (f_b @ a.reshape(d * r, r)).reshape(d, r, r)
    comm += (a.transpose(1, 0, 2).reshape(r, d * r) @ f_b).reshape(r, d, r).transpose(1, 0, 2)
    # Σ_ab C̃[a, b, k] F̃_ab: a view of C̃ with rows k, as ``normal_frame`` stores C̃
    # like C, its last index slowest
    m = 2.0 * comm - frame_map(c.reshape(d * d, d).T, f.reshape(d * d, r, r))
    return (m - dagger(m)) * (basis.n / 32.0)


@dataclass(eq=False)
class MinimizeResult:
    """Outcome of gradient descent on the action; ``grad_norm`` is the normal-frame ``‖G̃‖``."""

    connection: MatrixConnection
    action: float
    grad_norm: float
    iterations: int
    converged: bool
    #: rows (iteration, action, gradient norm, accepted step, halvings before
    #: it), one per iteration; row 0 has step 0.0 and 0 halvings
    trace: list[tuple[int, float, float, float, int]] = field(default_factory=list)
    #: why :func:`minimize` stopped: ``"gtol"``, ``"max_iter"`` or
    #: ``"line_search_stalled"`` (``None`` on a result built by hand)
    stop_reason: str | None = None


def minimize(conn: MatrixConnection, max_iter: int = 20000, gtol: float = 1e-10) -> MinimizeResult:
    """Gradient descent with backtracking line search (sufficient-decrease
    rule with factor 1e-4, halving), staying exactly on the anti-Hermitian
    slice.  The first trial step is 0.5, and after that the Barzilai–Borwein
    step ``⟨s, s⟩/⟨s, y⟩`` of the last move ``s`` and gradient change ``y``
    (IMA J. Numer. Anal. 8 (1988) 141), or twice the last step where
    ``⟨s, y⟩ ≤ 0``; it is capped at 1e6.

    Stops when the gradient norm drops below ``gtol`` or after
    ``max_iter`` accepted steps.  A step is accepted only if it lowers
    the action, so when no step above 1e-18 does, the line search stalls
    and ends the run.  Non-convergence is reported through
    ``converged=False`` and ``stop_reason``, never an exception.  The iterate is
    ``Ã = Lᵀ A``, stepped along the normal-frame gradient ``G̃`` (whose norm ``gtol``
    reads) and mapped back once, so the path is the same in every frame.  Each
    trial point's ``F̃`` is formed once, and an accepted point's gives its ``G̃``.
    A rejected trial's ``F̃`` dies before the next trial and an accepted one's after its
    ``G̃``: at most two ``F̃``-sized arrays live, ``F̃`` and a bracket product or ``F̃_B``.
    """
    basis = conn.basis
    a = frame_map(basis.normal_frame[0].T, conn.coeffs)
    s, f = _action_parts(basis, a)
    step = 0.5
    it = 0
    stalled = False
    g = _gradient(basis, a, f)
    del f
    gnorm = frob_norm(g)
    trace = [(0, s, gnorm, 0.0, 0)]
    while not (gnorm < gtol or it >= max_iter):
        # backtracking on S(a - t g) against the sufficient-decrease bound
        backtracks = 0
        while step > 1e-18:
            cand = a - step * g
            s_cand, f = _action_parts(basis, cand)
            # the strict test rejects a step whose decrease rounds away
            if s_cand < s and s_cand <= s - 1e-4 * step * gnorm**2:
                a, s = cand, s_cand
                break
            del f
            step /= 2.0
            backtracks += 1
        else:
            stalled = True  # line search exhausted at machine precision
            break
        g_prev, gnorm_prev = g, gnorm
        g = _gradient(basis, a, f)
        del f
        gnorm = frob_norm(g)
        it += 1
        trace.append((it, s, gnorm, step, backtracks))
        # BB1 trial <s, s>/<s, y> with s = -step g_prev, y = g - g_prev
        sy = -step * float(np.vdot(g_prev, g - g_prev).real)
        step = min(step**2 * gnorm_prev**2 / sy if sy > 0 else 2.0 * step, 1e6)
    converged = bool(gnorm < gtol)
    return MinimizeResult(
        connection=MatrixConnection(basis, frame_map(np.linalg.inv(basis.normal_frame[0].T), a)),
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

    flatness: Check
    casimir: float


def casimir_invariant(conn: MatrixConnection) -> float:
    """Representation invariant ``−Σ g^kl tr(A_k A_l)``.

    Equals ``Σ_k tr(A_k† A^k)`` for anti-Hermitian coefficients, so it is
    non-negative there and constant on gauge orbits.
    """
    val = -np.einsum("kl,kab,lba->", conn.basis.g_inv, conn.coeffs, conn.coeffs)
    return float(np.real(val))


def flat_connection_check(conn: MatrixConnection, tol: float = TAU_ALG) -> FlatnessReport:
    """Check ``F = 0``, i.e. that ``k ↦ A_k`` represents the frame bracket;
    report the Casimir invariant alongside.

    ``F_kl = [A_k, A_l] − C[k, l, m] A_m``, so the ``"flatness"`` check holds
    the largest ``‖F_kl‖`` to ``tol·(a² + ‖C‖·a)`` with whole-array norms, where
    ``a = max(‖A‖, ‖E‖)``: the connection's size, or the frame's where the
    connection is smaller, so a descent that ends near ``A = 0`` is judged
    at the frame's scale.  Rescaling the frame and the connection together
    changes no verdict."""
    f = curvature(conn)
    residual = float(np.sqrt(np.max(np.sum(np.abs(f) ** 2, axis=(2, 3)))))
    a = max(frob_norm(conn.coeffs), frob_norm(conn.basis.mats))
    scale = a**2 + frob_norm(conn.basis.c) * a
    return FlatnessReport(Check("flatness", residual, tol, scale), casimir_invariant(conn))


def hermitian_compatibility_check(conn: MatrixConnection) -> bool:
    """True iff every coefficient is anti-Hermitian (metric compatibility
    of the connection with the canonical Hermitian pairing)."""
    return is_antihermitian(conn.coeffs)


def grassmann_connection(p: np.ndarray, basis: MatrixBasis) -> np.ndarray:
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
    if not frob_norm(psq - p) <= TAU_ALG * frob_norm(p):  # NaN fails too
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
