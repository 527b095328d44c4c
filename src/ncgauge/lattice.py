"""Periodic-lattice gauge-Higgs model with matrix-valued fields.

The fields live on a small periodic lattice of dimension m ∈ {1, 2}
(spacing fixed to 1): an anti-Hermitian gauge potential ``a_mu(x)`` per
geometric direction and an anti-Hermitian multiplet ``b_k(x)`` indexed
by the n²−1 frame directions of a matrix basis, read in the basis' normal
frame as ``b̃ = Lᵀ b`` (``MatrixBasis.normal_frame``, metric ``(2/n)·1``).
Stacked as one connection ``X = (a_μ, b̃_k)`` they have one curvature
``F_AB = Δ_A X_B − Δ_B X_A + [X_A, X_B] − C̃^M_AB X_M``, with ``Δ_μ`` the
forward periodic difference, ``Δ_k = 0``, and ``C̃`` the normal frame's
structure constants on frame indices, zero wherever an index is geometric.
Its blocks ``F_μν``, ``F_μk = Δ_μ b̃_k + [a_μ, b̃_k]`` and the frame
curvature ``F_kl`` of ``b̃`` at each site all come from
:func:`ncgauge.basis.bracket_defect`.  The action is the weighted squared norm

    S = Σ_x Σ_AB W_AB ‖F_AB‖²,   W_AB = 1/4n, μ²/16n², μ⁴/16n²

on geometric, mixed and frame pairs (A, B); read in the normal frame, S is
unchanged when frame and fields change together, ``(E, b) → (T·E, T·b)``.
S vanishes exactly on two vacuum families: the symmetric one ``(a, b) =
(0, 0)`` and the broken one ``(a, b_k) = (0, iE_k)``, whose frame curvature
dies on the bracket identity.  Around the broken vacuum the quadratic form
over constant ``a``-fluctuations is a mass term ∝ μ² with an exact zero
mode along the identity matrix — a small-scale Higgs mechanism.  The weights
are a fixed convention of this module (each term is a genuine squared norm,
so S ≥ 0); only their μ-powers matter for the reported spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import (
    MatrixBasis, adjoint_table, antihermitian_frame, bracket_defect, dagger, frame_map,
    frob_norm, frozen, is_unitary,
)
from .errors import NotHermitianError, NotUnitaryError, ShapeError
from .tolerances import TAU_ALG

__all__ = [
    "MAX_SIDE",
    "MAX_LATTICE_DIM",
    "LatticeConfig",
    "lattice_action",
    "lattice_gauge_transform",
    "vacuum_config",
    "random_lattice_config",
    "mass_spectrum",
    "zero_momentum_gradient_norm",
]

#: caps that keep the action sums and the shift Jacobians at desk scale
MAX_SIDE = 64
MAX_LATTICE_DIM = 2


@dataclass(frozen=True)
class LatticeConfig:
    """Field configuration on a periodic lattice.

    ``a`` has shape ``(*dims, m, n, n)`` (gauge potential along the m
    geometric directions), ``b`` has shape ``(*dims, n²−1, n, n)``
    (potential along the algebraic frame directions), and ``mu`` weighs
    the algebraic directions against the geometric ones.

    Anti-Hermiticity of all field matrices is enforced at construction
    (``check=True``); gauge transforms with site-dependent ``g`` produce
    an O(h) Hermitian defect in ``a`` — a discretization artifact — and
    therefore construct their result with ``check=False``.
    """

    dims: tuple[int, ...]
    basis: MatrixBasis
    a: np.ndarray
    b: np.ndarray
    mu: float
    check: bool = True

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        m = len(dims)
        if not 1 <= m <= MAX_LATTICE_DIM:
            raise ShapeError(f"lattice dimension must be 1..{MAX_LATTICE_DIM}, got {m}")
        if any(d < 2 or d > MAX_SIDE for d in dims):
            raise ShapeError(f"lattice sides must be in 2..{MAX_SIDE}, got {dims}")
        n = self.basis.n
        a, b = frozen(self.a), frozen(self.b)
        if a.shape != dims + (m, n, n):
            raise ShapeError(f"gauge field must have shape {dims + (m, n, n)}, got {a.shape}")
        if b.shape != dims + (self.basis.dim, n, n):
            raise ShapeError(
                f"algebraic field must have shape {dims + (self.basis.dim, n, n)}, got {b.shape}"
            )
        if not 0 < self.mu < np.inf:  # NaN fails the comparison too
            raise ShapeError(f"mu must be finite and positive, got {self.mu}")
        if self.check:
            # each field at its own norm, so a small field next to a large one
            # is held to its own size
            for name, x in (("gauge", a), ("algebraic", b)):
                defect = frob_norm(x + dagger(x))
                if not defect <= TAU_ALG * frob_norm(x):  # NaN fails too
                    raise NotHermitianError(
                        f"{name} field matrices must be anti-Hermitian (defect {defect:.3e})"
                    )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        """Number of geometric directions."""
        return len(self.dims)

    @property
    def n_sites(self) -> int:
        return int(np.prod(self.dims))


def _forward_diff(field: np.ndarray, axis: int) -> np.ndarray:
    """Forward periodic difference Δ_μ f(x) = f(x + μ̂) − f(x)."""
    return np.roll(field, -1, axis=axis) - field


def _curvature(cfg: LatticeConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stacked fields ``X = (a_μ, Lᵀ b)``, shape ``(*dims, m + D, n, n)``,
    their curvature ``F_AB``, shape ``(*dims, m + D, m + D, n, n)``, and the
    symmetric weights ``W_AB`` of the action ``Σ_x Σ_AB W_AB ‖F_AB‖²``."""
    m, d, n, mu = cfg.m, cfg.basis.dim, cfg.basis.n, cfg.mu
    lower, c = cfg.basis.normal_frame
    x = np.concatenate([cfg.a, frame_map(lower.T, cfg.b)], axis=-3)
    c = np.pad(c, ((m, 0),) * 3)  # zero wherever an index is geometric
    f = bracket_defect(c, x)
    for mu_dir in range(m):  # Δ_A X_B − Δ_B X_A, with Δ_k = 0
        dx = _forward_diff(x, mu_dir)
        f[..., mu_dir, :, :, :] += dx
        f[..., :, mu_dir, :, :] -= dx
    w = np.full((m + d, m + d), mu**4 / (16.0 * n**2))
    w[:m] = w[:, :m] = mu**2 / (16.0 * n**2)
    w[:m, :m] = 1.0 / (4.0 * n)
    return x, f, w


def lattice_action(cfg: LatticeConfig) -> float:
    """Total action (non-negative; exactly zero on both vacuum families)."""
    _, f, w = _curvature(cfg)
    parts = f.reshape((-1,) + w.shape + (cfg.basis.n**2,)).view(float)  # real, imaginary parts
    return float(np.sum(w * np.einsum("xabk,xabk->ab", parts, parts)))


def lattice_gauge_transform(cfg: LatticeConfig, g: np.ndarray) -> LatticeConfig:
    """Gauge action ``a_μ ↦ g† a_μ g + g† Δ_μ g``, ``b_k ↦ g† b_k g``.

    ``g`` holds one unitary per site, shape ``(*dims, n, n)``.  For
    site-independent ``g`` the action is exactly invariant; for
    site-dependent ``g`` the inhomogeneous term ``g†(x) g(x+μ̂) − 1`` is
    anti-Hermitian only to first order in the spacing, so the action
    picks up an O(h) drift that shrinks under lattice refinement.
    """
    n = cfg.basis.n
    g = np.asarray(g, dtype=complex)
    if g.shape != cfg.dims + (n, n):
        raise ShapeError(f"gauge field must have shape {cfg.dims + (n, n)}, got {g.shape}")
    if not is_unitary(g):
        raise NotUnitaryError("gauge transformation must be unitary at every site")
    g = g[..., None, :, :]  # one g per site, broadcast over the direction axis
    gh = dagger(g)
    dg = np.concatenate([_forward_diff(g, mu_dir) for mu_dir in range(cfg.m)], axis=-3)
    a_new = gh @ cfg.a @ g + gh @ dg
    b_new = gh @ cfg.b @ g
    return LatticeConfig(cfg.dims, cfg.basis, a_new, b_new, cfg.mu, check=False)


def vacuum_config(
    kind: str, dims: tuple[int, ...], basis: MatrixBasis, mu: float = 1.0
) -> LatticeConfig:
    """The two exact vacua: ``symmetric`` → (0, 0); ``broken`` → (0, iE_k)."""
    dims = tuple(int(d) for d in dims)
    m = len(dims)
    n = basis.n
    a = np.zeros(dims + (m, n, n), dtype=complex)
    b = np.zeros(dims + (basis.dim, n, n), dtype=complex)
    if kind == "broken":
        b[...] = 1j * basis.mats
    elif kind != "symmetric":
        raise ValueError(f"unknown vacuum kind {kind!r}; use 'symmetric' or 'broken'")
    return LatticeConfig(dims, basis, a, b, mu)


def random_lattice_config(
    dims: tuple[int, ...],
    basis: MatrixBasis,
    mu: float,
    rng: np.random.Generator,
    scale: float = 1.0,
) -> LatticeConfig:
    """Random anti-Hermitian fields, i.i.d. per site and direction."""
    dims = tuple(int(d) for d in dims)
    m = len(dims)
    n = basis.n

    def rand_ah(shape: tuple[int, ...]) -> np.ndarray:
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return scale * (x - dagger(x)) / 2.0

    return LatticeConfig(
        dims,
        basis,
        rand_ah(dims + (m, n, n)),
        rand_ah(dims + (basis.dim, n, n)),
        mu,
    )


@lru_cache(maxsize=None)
def _shift_frame(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``antihermitian_frame(n)`` and, in rows ``(i, ab)``, its ``[e_i, ·]`` table, read-only."""
    e = antihermitian_frame(n)
    return frozen(e), frozen(adjoint_table(e).transpose(0, 2, 1).reshape(n**4, n * n))


def _shift_derivatives(cfg: LatticeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient and Hessian of the action over site-independent shifts
    of ``a``: each ``antihermitian_frame(n)`` direction in each slot, slot-major.

    A constant shift ``e_i`` of ``a_μ`` meets no difference and no ``C̃``:
    ``F_μB`` gains ``J^i_B = [e_i, X_B]`` and ``F_Bμ`` loses it, and a second
    shift ``e_j`` of ``a_ν`` adds ``[e_i, e_j]`` to ``F_μν``.  With ``F``
    antisymmetric and ``W`` symmetric the gradient is
    ``4 Σ_B W_μB Re⟨F_μB, J^i_B⟩`` and the Hessian is ``4 Re(δ_μν Σ_B W_μB
    ⟨J^i_B, J^j_B⟩ − W_μν ⟨J^i_ν, J^j_μ⟩ + W_μν ⟨Σ_x F_μν, [e_i, e_j]⟩)``.
    """
    n, m = cfg.basis.n, cfg.m
    x, f, w = _curvature(cfg)
    e, table = _shift_frame(n)
    k, dd, nn = len(e), len(w), n * n
    # J^i_B and F_μB laid out (B, ·, n²·sites); a float view of each makes
    # every Re⟨·, ·⟩ a real product of its real and imaginary parts
    jac = (table @ x.reshape(-1, dd, nn).transpose(1, 2, 0)).reshape(dd, k, -1).view(float)
    f = f.reshape(-1, dd, dd, nn)[:, :m]  # the rows F_μB of the geometric slots
    f_mu = f.transpose(2, 1, 3, 0).reshape(dd, m, -1).view(float)
    grad = 4.0 * np.einsum("mb,bmi->mi", w[:m], f_mu @ jac.swapaxes(1, 2))
    gram = jac @ jac.swapaxes(1, 2)  # Re⟨J^i_B, J^j_B⟩ at [B, i, j]
    geo = jac[:m].reshape(m * k, -1)
    cross = (geo @ geo.T).reshape(m, k, m, k)  # Re⟨J^i_ν, J^j_μ⟩ at [ν, i, μ, j]
    f_sum = f[:, :, :m].sum(axis=0)
    e_comm = (table @ e.reshape(k, nn).T).reshape(k, nn, k)  # [e_i, e_j] at [i, ab, j]
    curv = np.real(np.einsum("mna,iaj->minj", f_sum.conj(), e_comm))
    hess = np.einsum("mn,mb,bij->minj", np.eye(m), w[:m], gram)
    hess += w[:m, None, :m, None] * (curv - cross.transpose(2, 1, 0, 3))
    return grad.ravel(), 4.0 * hess.reshape(m * k, m * k)


def mass_spectrum(cfg: LatticeConfig) -> np.ndarray:
    """Eigenvalues of the exact Hessian of the action over
    site-independent a-fluctuations, ascending.

    At the broken vacuum this is the gauge-boson mass matrix of the
    Higgs mechanism: the identity direction ``a ∝ i·1`` commutes with
    every ``b_k = iE_k`` and is an exact zero mode, while the remaining
    eigenvalues are ``sites·μ²/n`` (the curvature term only enters at
    quartic order for constant fluctuations).  Directions are orthonormal
    in the Frobenius metric, and ``b`` is read in the normal frame, so the
    eigenvalues depend on neither choice of frame.
    """
    return np.linalg.eigvalsh(_shift_derivatives(cfg)[1])


def zero_momentum_gradient_norm(cfg: LatticeConfig) -> float:
    """Norm of the exact gradient of the action over the site-independent
    a-directions (cheap stationarity diagnostic)."""
    return float(np.linalg.norm(_shift_derivatives(cfg)[0]))
