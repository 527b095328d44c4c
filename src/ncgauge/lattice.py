"""Periodic-lattice gauge-Higgs model with matrix-valued fields.

The fields live on a small periodic lattice of dimension m ∈ {1, 2}
(spacing fixed to 1): an anti-Hermitian gauge potential ``a_mu(x)`` per
geometric direction and an anti-Hermitian multiplet ``b_k(x)`` indexed
by the n²−1 frame directions of a matrix basis.  The action is a sum of
three non-negative norm terms

    S = Σ_x [ (1/4n) Σ_{μν} ‖F_μν‖² + (μ²/8n²) Σ_{μk} ‖D_μ b_k‖²
              + (μ⁴/16n²) Σ_{kl} ‖[b_k, b_l] − C^m_kl b_m‖² ],

with ``F_μν = Δ_μ a_ν − Δ_ν a_μ + [a_μ, a_ν]`` and
``D_μ b_k = Δ_μ b_k + [a_μ, b_k]`` built from forward periodic
differences.  The Higgs term is the frame curvature of ``b`` at each
site: ``[b_k, b_l] − C^m_kl b_m`` is :func:`ncgauge.basis.bracket_defect`,
the kernel of ``connections.curvature``, so at every site it equals
``curvature(MatrixConnection(basis, b(x)))``.  S vanishes exactly on two
vacuum families: the symmetric one ``(a, b) = (0, 0)`` and the broken one
``(a, b_k) = (0, iE_k)``, whose Higgs term dies on the bracket identity
``[iE_k, iE_l] = C^m_kl (iE_m)``.  Around the broken vacuum the quadratic
form over constant ``a``-fluctuations is a mass term ∝ μ² with an exact
zero mode along the identity matrix — a small-scale Higgs mechanism.

Relative prefactors of the three terms are a fixed convention of this
module (each term is a genuine squared norm, so S ≥ 0 by construction);
only their μ-weights matter for the reported spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .basis import (
    MatrixBasis, antihermitian_frame, bracket_defect, dagger, frob_norm, frozen, is_unitary
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
        if self.mu <= 0:
            raise ShapeError("mu must be positive")
        if self.check:
            # each field at its own norm, so a small field next to a large one
            # is held to its own size
            for name, x in (("gauge", a), ("algebraic", b)):
                defect = frob_norm(x + dagger(x))
                if defect > TAU_ALG * frob_norm(x):
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

    def hermiticity_defect(self) -> float:
        """Frobenius norm of the anti-Hermitian violation across all fields."""
        return max(
            frob_norm(self.a + dagger(self.a)),
            frob_norm(self.b + dagger(self.b)),
        )


def _forward_diff(field: np.ndarray, axis: int) -> np.ndarray:
    """Forward periodic difference Δ_μ f(x) = f(x + μ̂) − f(x)."""
    return np.roll(field, -1, axis=axis) - field


def _covariant_parts(cfg: LatticeConfig) -> tuple[dict, list[np.ndarray]]:
    """``F_μν`` for each pair μ < ν, and ``D_μ b`` for each μ."""
    a, b = cfg.a, cfg.b
    f = {}
    for mu_dir, nu_dir in combinations(range(cfg.m), 2):
        a_mu, a_nu = a[..., mu_dir, :, :], a[..., nu_dir, :, :]
        f[mu_dir, nu_dir] = (
            _forward_diff(a_nu, mu_dir) - _forward_diff(a_mu, nu_dir) + a_mu @ a_nu - a_nu @ a_mu
        )
    d_b = [
        _forward_diff(b, mu_dir) + a[..., mu_dir, None, :, :] @ b - b @ a[..., mu_dir, None, :, :]
        for mu_dir in range(cfg.m)
    ]
    return f, d_b


def lattice_action(cfg: LatticeConfig) -> float:
    """Total action (non-negative; exactly zero on both vacuum families)."""
    n, mu = cfg.basis.n, cfg.mu
    f, d_b = _covariant_parts(cfg)
    total = 0.0
    for f_mn in f.values():
        # ordered double sum Σ_{μν} counts each unordered pair twice
        total += 2.0 * float(np.sum(np.abs(f_mn) ** 2)) / (4.0 * n)
    for d in d_b:
        total += float(np.sum(np.abs(d) ** 2)) * mu**2 / (8.0 * n**2)

    # the Higgs self-interaction: the frame curvature of b at every site
    h = bracket_defect(cfg.basis.c, cfg.b)
    total += float(np.sum(np.abs(h) ** 2)) * mu**4 / (16.0 * n**2)

    return total


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


def _shift_derivatives(cfg: LatticeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient and Hessian of the action over site-independent shifts
    of ``a``: each ``antihermitian_frame(n)`` direction in each slot, slot-major.

    A constant shift δ has ``Δ_μ δ = 0``, so ``D_μ b`` gains ``[δ_μ, b]``
    and ``F_μν`` gains ``[δ_μ, a_ν] + [a_μ, δ_ν] + [δ_μ, δ_ν]``.  A term
    ``w‖R‖²`` with Jacobian J adds ``2w Re(JᴴR)`` to the gradient and
    ``2w Re(JᴴJ)`` to the Hessian, and ``[δ_μ, δ_ν]`` adds
    ``2w Re⟨Σ_x F_μν, [e_i, e_j]⟩`` between slots μ ≠ ν.
    """
    n, m, a = cfg.basis.n, cfg.m, cfg.a
    e = antihermitian_frame(n)
    k = len(e)
    w_f, w_d = 1.0 / (2.0 * n), cfg.mu**2 / (8.0 * n**2)

    def comm(x: np.ndarray) -> np.ndarray:  # [e_i, x], flattened per direction
        x = x.reshape(-1, n, n)
        return (e[:, None] @ x - x @ e[:, None]).reshape(k, -1)

    f, d_b = _covariant_parts(cfg)
    # D_μ b: the same Jacobian [e_i, b] in every slot
    jac = comm(cfg.b)
    grad = np.concatenate([2.0 * w_d * np.real(jac.conj() @ d.ravel()) for d in d_b])
    hess = np.kron(np.eye(m), 2.0 * w_d * np.real(jac.conj() @ jac.T))
    blocks = hess.reshape(m, k, m, k)  # a view: writes to it land in hess
    e_comm = e[:, None] @ e - e @ e[:, None]
    for (mu_dir, nu_dir), f_mn in f.items():
        # slot μ sees [e_i, a_ν], slot ν sees −[e_i, a_μ]
        jac = np.zeros((m, k, f_mn.size), dtype=complex)
        jac[mu_dir], jac[nu_dir] = comm(a[..., nu_dir, :, :]), -comm(a[..., mu_dir, :, :])
        jac = jac.reshape(m * k, -1)
        grad += 2.0 * w_f * np.real(jac.conj() @ f_mn.ravel())
        hess += 2.0 * w_f * np.real(jac.conj() @ jac.T)
        curv = 2.0 * w_f * np.real(np.tensordot(e_comm, f_mn.reshape(-1, n, n).sum(0).conj(), 2))
        blocks[mu_dir, :, nu_dir] += curv
        blocks[nu_dir, :, mu_dir] += curv.T
    return grad, hess


def mass_spectrum(cfg: LatticeConfig) -> np.ndarray:
    """Eigenvalues of the exact Hessian of the action over
    site-independent a-fluctuations, ascending.

    At the broken vacuum this is the gauge-boson mass matrix of the
    Higgs mechanism: the identity direction ``a ∝ i·1`` commutes with
    every ``b_k = iE_k`` and is an exact zero mode, while the remaining
    eigenvalues are ``sites·μ²/n`` (the curvature term only enters at
    quartic order for constant fluctuations).  Directions are orthonormal
    in the Frobenius metric, so eigenvalues are basis-independent.
    """
    return np.linalg.eigvalsh(_shift_derivatives(cfg)[1])


def zero_momentum_gradient_norm(cfg: LatticeConfig) -> float:
    """Norm of the exact gradient of the action over the site-independent
    a-directions (cheap stationarity diagnostic)."""
    return float(np.linalg.norm(_shift_derivatives(cfg)[0]))
