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
It is formed block by block, and each caller forms only the blocks it
reads.  The geometric rows ``F_μB``, that is ``F_μν`` and ``F_μk = Δ_μ b̃_k +
[a_μ, b̃_k]``, have no ``C̃`` term and come from two GEMMs per site
(``_geometric_rows``); the Higgs block ``F_kl``, the frame curvature of
``b̃`` at each site, comes from :func:`ncgauge.basis.bracket_defect` over the
frame directions alone.  The action reads both; the mass spectrum and the
gradient over constant ``a`` read only the rows ``F_μB``.  The action is the
weighted squared norm

    S = Σ_x Σ_AB W_AB ‖F_AB‖²,   W_AB = 1/4n, μ²/16n², μ⁴/16n²

on geometric, mixed and frame pairs (A, B); read in the normal frame, S is
unchanged when frame and fields change together, ``(E, b) → (T·E, T·b)``.
S vanishes exactly on the symmetric vacuum ``(a, b) = (0, 0)``, and up to roundoff
on the broken one ``(a, b_k) = (0, iE_k)``; :func:`vacuum_check`, the one vacuum
verdict, holds it to a bound free of μ and of the frame's scale and shape.  Around
the broken vacuum the quadratic form over constant ``a``-fluctuations is a mass term
∝ μ² with an exact zero mode along the identity matrix — a small-scale Higgs
mechanism.  The weights are a fixed convention of this module (each term is a genuine
squared norm, so S ≥ 0); only their μ-powers matter for the reported spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import (
    MatrixBasis, _antihermitian_draw, adjoint_table, antihermitian_frame, bracket_defect,
    conjugate_by, dagger, frame_map, frob_norm, frozen, is_unitary,
)
from .errors import NotHermitianError, NotUnitaryError, ShapeError
from .tolerances import TAU_ALG, Check

__all__ = [
    "MAX_SIDE",
    "MAX_LATTICE_DIM",
    "LatticeConfig",
    "lattice_action",
    "vacuum_check",
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
    """Forward periodic difference Δ_μ f(x) = f(x + μ̂) − f(x): the interior and
    the wrapped last slice, each one subtraction into the output."""
    out = np.empty_like(field)
    head = (slice(None),) * axis
    lo, hi = head + (slice(-1),), head + (slice(1, None),)  # sites 0..L−2 and 1..L−1
    first, last = head + (slice(1),), head + (slice(-1, None),)  # sites 0 and L−1
    np.subtract(field[hi], field[lo], out=out[lo])
    np.subtract(field[first], field[last], out=out[last])
    return out


def _geometric_rows(cfg: LatticeConfig) -> tuple[np.ndarray, np.ndarray]:
    """The stacked fields ``X = (a_μ, Lᵀ b)``, shape ``(*dims, m + D, n, n)``, and the
    geometric rows ``F_μB = [X_μ, X_B] + Δ_μ X_B − Δ_B X_μ`` of their curvature, entry
    ``(F_μB)_ij`` at ``[..., μ, i, B, j]``.  The products come from two GEMMs per site,
    ``(m·n × n)(n × (m+D)·n)`` for ``X_μ X_B`` and ``((m+D)·n × n)(n × m·n)`` for
    ``X_B X_μ``; no row has a ``C̃`` term, since ``C̃`` vanishes on geometric indices."""
    m, n = cfg.m, cfg.basis.n
    x = np.concatenate([cfg.a, frame_map(cfg.basis.normal_frame[0].T, cfg.b)], axis=-3)
    lead, dd = x.shape[:-3], x.shape[-3]
    xt = x.swapaxes(-3, -2).reshape(lead + (n, dd * n))  # [X_0 | X_1 | …] at every site
    f = (x[..., :m, :, :].reshape(lead + (m * n, n)) @ xt).reshape(lead + (m, n, dd, n))
    right = x.reshape(lead + (dd * n, n)) @ xt[..., : m * n]  # X_B X_μ at [B, i, μ, j]
    f -= right.reshape(lead + (dd, n, m, n)).swapaxes(-4, -2)
    xt = xt.reshape(lead + (n, dd, n))
    for nu in range(m):  # Δ_ν X_B at [i, B, j], the layout of a row
        dx = _forward_diff(xt, nu)
        f[..., nu, :, :, :] += dx
        f[..., :, :, nu, :] -= dx[..., :, :m, :].swapaxes(-3, -2)  # F_μν loses Δ_ν X_μ
    return x, f


def _weights(cfg: LatticeConfig) -> tuple[float, float, float]:
    """The weights ``W_AB`` of the action on geometric, mixed and frame pairs:
    ``1/4n``, ``μ²/16n²`` and ``μ⁴/16n²``."""
    n, mu = cfg.basis.n, cfg.mu
    return 1.0 / (4.0 * n), mu**2 / (16.0 * n**2), mu**4 / (16.0 * n**2)


def lattice_action(cfg: LatticeConfig) -> float:
    """Total action (non-negative; zero on the symmetric vacuum, roundoff on the broken one).

    The geometric rows ``F_μB`` of :func:`_geometric_rows` hold every pair with a
    geometric index, the mixed ones twice over since ``F_kμ = −F_μk``; the frame
    pairs are the Higgs block ``bracket_defect(C̃, b̃)`` over the ``D`` frame
    directions alone."""
    m, n = cfg.m, cfg.basis.n
    w_geo, w_mixed, w_frame = _weights(cfg)
    x, f = _geometric_rows(cfg)
    higgs = bracket_defect(cfg.basis.normal_frame[1], x[..., m:, :, :]).ravel()
    parts = f.reshape((-1, m, n, m + cfg.basis.dim, n)).view(float)  # real, imaginary parts
    rows = np.einsum("xmibj,xmibj->b", parts, parts).tolist()  # Σ_x Σ_μ ‖F_μB‖² per B
    return float(
        w_geo * sum(rows[:m]) + 2.0 * w_mixed * sum(rows[m:]) + w_frame * np.vdot(higgs, higgs).real
    )


def vacuum_check(cfg: LatticeConfig) -> Check:
    """``"vacuum_action"``: the action held to 1e-12 of the Higgs term's size at the broken
    vacuum of this lattice, frame and μ, summed over sites in the normal frame (‖b̃_k‖² = 2)."""
    size = cfg.n_sites * _weights(cfg)[2] * (2.0 * cfg.basis.dim) ** 2
    return Check("vacuum_action", lattice_action(cfg), 1e-12, size)


def lattice_gauge_transform(cfg: LatticeConfig, g: np.ndarray) -> LatticeConfig:
    """Gauge action ``a_μ ↦ g† a_μ g + g† Δ_μ g``, ``b_k ↦ g† b_k g``.

    ``g`` holds one unitary per site, shape ``(*dims, n, n)``.  For
    site-independent ``g`` the action is exactly invariant; for
    site-dependent ``g`` the inhomogeneous term ``g†(x) g(x+μ̂) − 1`` is
    anti-Hermitian only to first order in the spacing, so the action
    picks up an O(h) drift that shrinks under lattice refinement.

    The homogeneous part ``g† X_B g`` of every direction ``B``, geometric and
    algebraic, comes from one :func:`ncgauge.basis.conjugate_by` call: two
    GEMMs per site.
    """
    n = cfg.basis.n
    g = np.asarray(g, dtype=complex)
    if g.shape != cfg.dims + (n, n):
        raise ShapeError(f"gauge field must have shape {cfg.dims + (n, n)}, got {g.shape}")
    if not is_unitary(g):
        raise NotUnitaryError("gauge transformation must be unitary at every site")
    m = cfg.m
    dg = np.stack([_forward_diff(g, mu_dir) for mu_dir in range(m)], axis=-3)
    x = conjugate_by(g, np.concatenate([cfg.a, cfg.b], axis=-3))  # every direction at once
    a_new = x[..., :m, :, :] + dagger(g)[..., None, :, :] @ dg
    return LatticeConfig(cfg.dims, cfg.basis, a_new, x[..., m:, :, :], cfg.mu, check=False)


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
    m, n = len(dims), basis.n
    a, b = (scale * _antihermitian_draw(dims + (k, n, n), rng) for k in (m, basis.dim))
    return LatticeConfig(dims, basis, a, b, mu)


@lru_cache(maxsize=None)
def _shift_frame(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``antihermitian_frame(n)``, in rows ``(i, ab)`` its ``[e_i, ·]`` table, and
    ``[e_i, e_j]`` as a real matrix, rows ``(ab, re/im)`` and columns ``(i, j)``: all
    read-only."""
    e = antihermitian_frame(n)
    k, nn = len(e), n * n
    table = adjoint_table(e).transpose(0, 2, 1).reshape(k * nn, nn)
    comm = np.ascontiguousarray((table @ e.reshape(k, nn).T).reshape(k, nn, k).transpose(0, 2, 1))
    return frozen(e), frozen(table), frozen(comm.view(float).reshape(k * k, 2 * nn).T, float)


def _shift_derivatives(cfg: LatticeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient and Hessian of the action over site-independent shifts
    of ``a``: each ``antihermitian_frame(n)`` direction in each slot, slot-major.

    A constant shift ``e_i`` of ``a_μ`` meets no difference and no ``C̃``:
    ``F_μB`` gains ``J^i_B = [e_i, X_B]`` and ``F_Bμ`` loses it, and a second
    shift ``e_j`` of ``a_ν`` adds ``[e_i, e_j]`` to ``F_μν``.  With ``F``
    antisymmetric and ``W`` symmetric the gradient is
    ``4 Σ_B W_μB Re⟨F_μB, J^i_B⟩`` and the Hessian is ``4 Re(δ_μν Σ_B W_μB
    ⟨J^i_B, J^j_B⟩ − W_μν ⟨J^i_ν, J^j_μ⟩ + W_μν ⟨Σ_x F_μν, [e_i, e_j]⟩)``.  Both
    read only the geometric rows ``F_μB`` of :func:`_geometric_rows`; the
    Higgs block ``F_kl`` never enters.
    """
    n, m = cfg.basis.n, cfg.m
    x, f = _geometric_rows(cfg)
    w_geo, w_mixed, _ = _weights(cfg)
    w = np.array([w_geo] * m + [w_mixed] * cfg.basis.dim)  # W_μB over B
    e, table, comm = _shift_frame(n)
    k, dd, nn = len(e), len(w), n * n
    # J^i_B and F_μB laid out (B, ·, n²·sites); a float view of each makes
    # every Re⟨·, ·⟩ a real product of its real and imaginary parts
    jac = (table @ x.reshape(-1, dd, nn).transpose(1, 2, 0)).reshape(dd, k, -1).view(float)
    f = f.reshape(-1, m, n, dd, n)
    f_mu = f.transpose(3, 1, 2, 4, 0).reshape(dd, m, -1).view(float)
    grad = 4.0 * np.einsum("b,bmi->mi", w, f_mu @ jac.swapaxes(1, 2))
    gram = jac @ jac.swapaxes(1, 2)  # Re⟨J^i_B, J^j_B⟩ at [B, i, j]
    geo = jac[:m].reshape(m * k, -1)
    cross = (geo @ geo.T).reshape(m, k, m, k)  # Re⟨J^i_ν, J^j_μ⟩ at [ν, i, μ, j]
    f_sum = f[:, :, :, :m].sum(axis=0).transpose(0, 2, 1, 3).reshape(m * m, nn)  # Σ_x F_μν
    curv = (f_sum.view(float) @ comm).reshape(m, m, k, k).transpose(0, 2, 1, 3)
    hess = np.einsum("mn,b,bij->minj", np.eye(m), w, gram)
    hess += w_geo * (curv - cross.transpose(2, 1, 0, 3))
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
    eigenvalues depend on neither choice of frame.  Only the geometric rows
    ``F_μB`` of the curvature are formed: a constant shift of ``a`` leaves the
    Higgs block ``F_kl`` unchanged.
    """
    return np.linalg.eigvalsh(_shift_derivatives(cfg)[1])


def zero_momentum_gradient_norm(cfg: LatticeConfig) -> float:
    """Norm of the exact gradient of the action over the site-independent
    a-directions (cheap stationarity diagnostic)."""
    return float(np.linalg.norm(_shift_derivatives(cfg)[0]))
