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
differences.  S vanishes exactly on two vacuum families: the symmetric
one ``(a, b) = (0, 0)`` and the broken one ``(a, b_k) = (0, iE_k)``,
whose Higgs term dies on the bracket identity ``[iE_k, iE_l] =
C^m_kl (iE_m)``.  Around the broken vacuum the quadratic form over
constant ``a``-fluctuations is a mass term ∝ μ² with an exact zero mode
along the identity matrix — a small-scale Higgs mechanism.

Relative prefactors of the three terms are a fixed convention of this
module (each term is a genuine squared norm, so S ≥ 0 by construction);
only their μ-weights matter for the reported spectra.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import MatrixBasis, dagger, frob_norm, frozen, gellmann_basis, is_unitary
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

#: caps that keep finite-difference Hessians and action sums at desk scale
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


def lattice_action(cfg: LatticeConfig) -> float:
    """Total action (non-negative; exactly zero on both vacuum families)."""
    n = cfg.basis.n
    m = cfg.m
    a, b, mu = cfg.a, cfg.b, cfg.mu
    total = 0.0

    # field strength along geometric directions
    for mu_dir in range(m):
        a_mu = a[..., mu_dir, :, :]
        for nu_dir in range(mu_dir + 1, m):
            a_nu = a[..., nu_dir, :, :]
            f = (
                _forward_diff(a_nu, mu_dir)
                - _forward_diff(a_mu, nu_dir)
                + a_mu @ a_nu
                - a_nu @ a_mu
            )
            # ordered double sum Σ_{μν} counts each unordered pair twice
            total += 2.0 * float(np.sum(np.abs(f) ** 2)) / (4.0 * n)

    # covariant derivative of the algebraic multiplet
    for mu_dir in range(m):
        a_mu = a[..., mu_dir, :, :][..., None, :, :]
        d_b = _forward_diff(b, mu_dir) + a_mu @ b - b @ a_mu
        total += float(np.sum(np.abs(d_b) ** 2)) * mu**2 / (8.0 * n**2)

    # algebraic-direction field strength (the Higgs self-interaction)
    comm = np.einsum("...kab,...lbc->...klac", b, b)
    comm = comm - comm.swapaxes(-4, -3)
    h = comm - np.einsum("klm,...mab->...klab", cfg.basis.c, b)
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
    gh = dagger(g)
    flat = g.reshape(-1, n, n)
    for site in range(flat.shape[0]):
        if not is_unitary(flat[site]):
            raise NotUnitaryError("gauge transformation must be unitary at every site")
    a_new = np.empty_like(cfg.a)
    for mu_dir in range(cfg.m):
        a_mu = cfg.a[..., mu_dir, :, :]
        a_new[..., mu_dir, :, :] = gh @ a_mu @ g + gh @ _forward_diff(g, mu_dir)
    b_new = np.einsum("...ab,...kbc,...cd->...kad", gh, cfg.b, g)
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


def _constant_a_directions(cfg: LatticeConfig) -> list[np.ndarray]:
    """Orthonormal anti-Hermitian directions for site-independent
    a-fluctuations: i·1/√n and iλ_k/√2 per geometric direction, with λ_k
    the Gell-Mann matrices (``tr λ_k λ_l = 2δ_kl``) whatever the frame of
    ``cfg``, so the spectrum does not depend on that frame."""
    n = cfg.basis.n
    herm = [np.eye(n, dtype=complex) / np.sqrt(n)]
    herm += [e / np.sqrt(2.0) for e in gellmann_basis(n)]
    dirs = []
    for mu_dir in range(cfg.m):
        for hmat in herm:
            d = np.zeros((cfg.m, n, n), dtype=complex)
            d[mu_dir] = 1j * hmat
            dirs.append(d)
    return dirs


def _shifted_action(cfg: LatticeConfig, delta_a: np.ndarray) -> float:
    """Action after adding a site-independent a-shift (shape (m, n, n))."""
    shifted = LatticeConfig(
        cfg.dims, cfg.basis, cfg.a + delta_a, cfg.b, cfg.mu, check=False
    )
    return lattice_action(shifted)


def mass_spectrum(cfg: LatticeConfig, h_fd: float = 1e-3) -> np.ndarray:
    """Eigenvalues of the finite-difference Hessian of the action over
    site-independent a-fluctuations, ascending.

    At the broken vacuum this is the gauge-boson mass matrix of the
    Higgs mechanism: the identity direction ``a ∝ i·1`` commutes with
    every ``b_k = iE_k`` and is an exact zero mode, while the remaining
    eigenvalues are ∝ μ² (the curvature term only enters at quartic
    order for constant fluctuations).  Directions are orthonormal in the
    Frobenius metric, so eigenvalues are basis-independent.
    """
    dirs = _constant_a_directions(cfg)
    n_dir = len(dirs)
    s0 = lattice_action(cfg)
    hess = np.zeros((n_dir, n_dir))
    plus = np.zeros(n_dir)
    minus = np.zeros(n_dir)
    for i, di in enumerate(dirs):
        plus[i] = _shifted_action(cfg, h_fd * di)
        minus[i] = _shifted_action(cfg, -h_fd * di)
        hess[i, i] = (plus[i] - 2.0 * s0 + minus[i]) / h_fd**2
    for i in range(n_dir):
        for j in range(i + 1, n_dir):
            spp = _shifted_action(cfg, h_fd * (dirs[i] + dirs[j]))
            smm = _shifted_action(cfg, -h_fd * (dirs[i] + dirs[j]))
            # symmetric mixed difference via the diagonal evaluations
            hess[i, j] = hess[j, i] = (
                spp + smm - plus[i] - minus[i] - plus[j] - minus[j] + 2.0 * s0
            ) / (2.0 * h_fd**2)
    return np.linalg.eigvalsh(hess)


def zero_momentum_gradient_norm(cfg: LatticeConfig, h_fd: float = 1e-6) -> float:
    """Norm of the central-difference gradient of the action over the
    site-independent a-directions (cheap stationarity diagnostic)."""
    dirs = _constant_a_directions(cfg)
    grad = np.array(
        [
            (_shifted_action(cfg, h_fd * d) - _shifted_action(cfg, -h_fd * d))
            / (2.0 * h_fd)
            for d in dirs
        ]
    )
    return float(np.linalg.norm(grad))
