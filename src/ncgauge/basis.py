"""Hermitian matrix bases of sl(n) and their structure constants.

The differential-geometric machinery in this package is anchored on a
choice of basis ``E_1, ..., E_D`` of traceless Hermitian ``n x n``
matrices (``D = n**2 - 1`` for a complete basis, fewer for a closed
sub-basis).  Everything downstream — derivations, forms, connections,
curvature — is expressed through three tensors computed here:

* the structure constants ``C[k, l, m]`` defined by
  ``i [E_k, E_l] = sum_m C[k, l, m] E_m`` (the commutator table is formed
  once, closure is checked on it, and a normal frame's ``C̃`` is ``C`` transformed),
* the metric ``g[k, l] = (1/n) tr(E_k E_l)`` and its inverse,
* the Gram data needed to expand arbitrary matrices in the basis.

The default basis is the generalized Gell-Mann family in *grouped*
order: first the symmetric off-diagonal pairs, then the antisymmetric
ones, then the diagonal matrices.  For ``n = 2`` this is exactly
``(sigma_x, sigma_y, sigma_z)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NotHermitianError, ShapeError, SingularBasisError
from .tolerances import TAU_ALG

__all__ = [
    "dagger",
    "commutator",
    "frob_norm",
    "is_hermitian",
    "is_antihermitian",
    "is_traceless",
    "is_unitary",
    "random_hermitian",
    "random_antihermitian",
    "random_traceless_hermitian",
    "random_unitary",
    "gellmann_basis",
    "antihermitian_frame",
    "structure_constants",
    "bracket_defect",
    "MatrixBasis",
]


# ---------------------------------------------------------------------------
# elementary matrix helpers
# ---------------------------------------------------------------------------

def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.conjugate(np.swapaxes(a, -1, -2))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b - b @ a``."""
    return a @ b - b @ a


def frob_norm(a: np.ndarray) -> float:
    """Frobenius norm of the last two axes, summed over any batch axes."""
    return float(np.sqrt(np.vdot(a, a).real))


def frozen(a, dtype=complex) -> np.ndarray:
    """A read-only copy of ``a``: what a constructor stores of an array it is
    given, so the caller's array stays writable and independent of it."""
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def frame_map(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``Σ_l t[k, l] x[..., l, :, :]`` for a real ``(P, K)`` ``t`` and a ``(..., K, r, r)`` stack
    ``x``: one real GEMM on the float view of ``x``, with no complex copy of ``t``."""
    x = np.ascontiguousarray(x, dtype=complex)
    y = (t @ x.reshape(x.shape[:-2] + (-1,)).view(float)).view(complex)
    return y.reshape(y.shape[:-1] + x.shape[-2:])


def conjugate_by(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``g† x[..., B, :, :] g`` for a ``(..., r, r)`` stack ``g`` and a ``(..., B, r, r)``
    stack ``x``: two GEMMs per lead index over all ``B`` at once, ``(B·r × r)(r × r)``
    and then ``(r × r)(r × B·r)``."""
    x = np.asarray(x, dtype=complex)
    lead, (b, r) = x.shape[:-3], x.shape[-3:-1]
    xg = (np.reshape(x, lead + (b * r, r)) @ g).reshape(lead + (b, r, r))
    y = dagger(g) @ xg.swapaxes(-3, -2).reshape(lead + (r, b * r))
    return y.reshape(lead + (r, b, r)).swapaxes(-3, -2)


def complex_record(a: np.ndarray) -> dict:
    """JSON-compatible record ``{"re": ..., "im": ...}`` of a complex array."""
    return {"re": np.real(a).tolist(), "im": np.imag(a).tolist()}


def from_complex_record(obj: dict) -> np.ndarray:
    """Inverse of :func:`complex_record`; ``ValueError`` unless ``"re"`` and ``"im"``
    have one shape, so neither is broadcast over the other."""
    re, im = np.array(obj["re"], dtype=float), np.array(obj["im"], dtype=float)
    if re.shape != im.shape:
        raise ValueError(f"re and im shapes differ: {re.shape} and {im.shape}")
    return re + 1j * im


# The predicates judge at the operand's own norm, as a ``Check`` does: a
# defect of 1e-11 in a matrix of norm 1e-11 fails, whatever the unit.
def is_hermitian(a: np.ndarray) -> bool:
    return frob_norm(a - dagger(a)) <= TAU_ALG * frob_norm(a)


def is_antihermitian(a: np.ndarray) -> bool:
    return frob_norm(a + dagger(a)) <= TAU_ALG * frob_norm(a)


def is_traceless(a: np.ndarray) -> bool:
    return abs(np.trace(a)) <= TAU_ALG * frob_norm(a)


def is_unitary(a: np.ndarray) -> bool:
    """True when every matrix of the stack ``a`` is unitary, each judged alone."""
    n = a.shape[-1]
    defects = np.linalg.norm(dagger(a) @ a - np.eye(n), axis=(-2, -1))
    return bool(np.all(defects <= TAU_ALG * n))


# ---------------------------------------------------------------------------
# random matrices (for tests and demos)
# ---------------------------------------------------------------------------

def _ginibre(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _antihermitian_draw(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """A ``(..., r, r)`` stack of random anti-Hermitian matrices with O(1) entries."""
    a = _ginibre(shape, rng)
    return (a - dagger(a)) / 2.0


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix with O(1) entries."""
    a = _ginibre((n, n), rng)
    return (a + dagger(a)) / 2.0


def random_antihermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random anti-Hermitian matrix with O(1) entries."""
    return _antihermitian_draw((n, n), rng)


def random_traceless_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random traceless Hermitian matrix."""
    h = random_hermitian(n, rng)
    return h - np.trace(h) / n * np.eye(n)


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary (QR of a Ginibre matrix)."""
    q, r = np.linalg.qr(_ginibre((n, n), rng))
    # fix the phase ambiguity of QR so the distribution is Haar
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# generalized Gell-Mann basis
# ---------------------------------------------------------------------------

def gellmann_basis(n: int) -> np.ndarray:
    """Generalized Gell-Mann matrices for M_n, shape ``(n**2 - 1, n, n)``.

    Grouped ordering: the symmetric pair matrices
    ``S_jk = e_jk + e_kj`` for ``j < k`` come first (lexicographic in
    ``(j, k)``), followed by the antisymmetric pair matrices
    ``A_jk = -i (e_jk - e_kj)`` in the same order, followed by the
    diagonal matrices ``D_l`` for ``l = 1, ..., n - 1`` with

        D_l = sqrt(2 / (l (l + 1))) * (e_11 + ... + e_ll - l * e_(l+1)(l+1)).

    All members are traceless Hermitian with ``tr(E^2) = 2``; for
    ``n = 2`` the list is exactly ``(sigma_x, sigma_y, sigma_z)``.
    """
    if n < 2:
        raise ShapeError(f"matrix size must be at least 2, got {n}")
    mats = []
    for j in range(n):
        for k in range(j + 1, n):
            s = np.zeros((n, n), dtype=complex)
            s[j, k] = 1.0
            s[k, j] = 1.0
            mats.append(s)
    for j in range(n):
        for k in range(j + 1, n):
            a = np.zeros((n, n), dtype=complex)
            a[j, k] = -1j
            a[k, j] = 1j
            mats.append(a)
    for l in range(1, n):
        d = np.zeros((n, n), dtype=complex)
        d[:l, :l] = np.eye(l)
        d[l, l] = -l
        mats.append(np.sqrt(2.0 / (l * (l + 1))) * d)
    return np.array(mats)


def antihermitian_frame(n: int) -> np.ndarray:
    """``i·1/√n`` and ``iλ_k/√2`` (λ_k Gell-Mann) stacked ``(n², n, n)``: an
    orthonormal frame of the anti-Hermitian ``n × n`` matrices in the trace metric."""
    lam = gellmann_basis(n) if n > 1 else np.zeros((0, 1, 1))
    return 1j * np.concatenate([np.eye(n)[None] / np.sqrt(n), lam / np.sqrt(2.0)])


def structure_constants(mats: np.ndarray) -> np.ndarray:
    """Structure constants ``C[k, l, m]`` with ``i [E_k, E_l] = C[k, l, m] E_m``.

    Each member must be Hermitian.  The commutator table ``i[E_k, E_l]`` is formed
    once (:func:`_brackets`), projected on the family by one GEMM, real for a
    Hermitian family, and solved in real arithmetic with the frame's metric
    (:func:`_metric`): exact (up to roundoff) for any linearly independent
    family, orthogonal or not.  Closure is checked on the same table:
    :class:`SingularBasisError` is raised if some commutator leaves the span of
    the family.  ``C`` is antisymmetric in its first two indices, exactly.
    """
    for k, e in enumerate(mats):
        if not is_hermitian(e):
            raise NotHermitianError(f"basis matrix {k} is not Hermitian")
    return _structure_constants(mats, _metric(mats))


def _structure_constants(mats: np.ndarray, g: np.ndarray) -> np.ndarray:
    """:func:`structure_constants` of a family already gated as Hermitian, whose metric is ``g``."""
    d, n, _ = mats.shape
    comm = 1j * _brackets(mats)[0]
    # rhs[(k, l), p] = (1/n) tr(E_p^dag i[E_k, E_l])
    rhs = comm.reshape(d * d, n * n) @ np.conjugate(mats).reshape(d, n * n).T / n
    if not frob_norm(rhs.imag) <= TAU_ALG * frob_norm(rhs.real):  # NaN fails too
        raise NotHermitianError("structure constants are not real; basis is not Hermitian")
    try:
        c = np.linalg.solve(g, rhs.real.T).T.reshape(d, d, d)
    except np.linalg.LinAlgError as exc:
        raise SingularBasisError("basis matrices are linearly dependent") from exc
    del rhs  # as large as the table: not held through the closure check
    c = (c - c.transpose(1, 0, 2)) / 2.0  # exact antisymmetry
    # closure check: C·E must reproduce the table it was projected from
    scale = frob_norm(comm)
    comm -= frame_map(c.reshape(d * d, d), mats).reshape(comm.shape)
    if not frob_norm(comm) <= TAU_ALG * scale:
        raise SingularBasisError("commutators leave the span of the family; not a closed basis")
    return c


def _metric(mats: np.ndarray) -> np.ndarray:
    """The real metric ``g[k, l] = (1/n) tr(E_k E_l)`` of a Hermitian ``(D, n, n)`` family.
    An entry inside the roundoff of its own ``n²`` terms is an orthogonal pair: exactly 0."""
    n = mats.shape[-1]
    g = np.real(np.einsum("kab,lba->kl", mats, mats)) / n
    g[np.abs(g) <= n * n * np.finfo(float).eps * np.sqrt(np.outer(g.diagonal(), g.diagonal()))] = 0.0
    return g


def _brackets(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ``[A_k, A_l]`` of a ``(..., D, r, r)`` stack, read from one ``(D·r × r)(r × D·r)``
    GEMM, and that GEMM's ``(..., D·r, D·r)`` product, dead once the brackets exist."""
    lead, (d, r) = a.shape[:-3], a.shape[-3:-1]
    prod = a.reshape(lead + (d * r, r)) @ a.swapaxes(-3, -2).reshape(lead + (r, d * r))
    blocks = prod.reshape(lead + (d, r, d, r)).swapaxes(-3, -2)
    return blocks - blocks.swapaxes(-4, -3), prod


def bracket_defect(c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Frame curvature ``F[..., k, l] = [A_k, A_l] − C[k, l, m] A_m`` of a stack
    ``a`` of shape ``(..., D, r, r)``, shape ``(..., D, D, r, r)``: zero exactly
    when ``k ↦ A_k`` represents the frame bracket, as ``A_k = iE_k`` does.  ``C·A``, one
    GEMM on float views, fills the dead product: two ``F``-sized arrays, not three."""
    a = np.ascontiguousarray(a, dtype=complex)
    f, prod = _brackets(a)
    out = prod.reshape(f.shape[:-4] + (len(c) ** 2, -1)).view(float)
    np.matmul(c.reshape(-1, c.shape[-1]), a.reshape(a.shape[:-2] + (-1,)).view(float), out=out)
    f -= prod.reshape(f.shape)
    return f


def adjoint_table(frame: np.ndarray) -> np.ndarray:
    """``(K, n², n²)`` table of the adjoint action of a ``(K, n, n)`` stack:
    ``a.reshape(-1, n²) @ table[k]`` is ``[frame[k], a]`` flattened row-major."""
    k, n = frame.shape[:2]
    eye = np.eye(n)
    # table[k, (r, s), (p, q)] = E[p, r] δ_qs − δ_pr E[s, q], as ([E, a])_pq = Σ_rs a_rs table
    ad = np.einsum("kpr,qs->krspq", frame, eye) - np.einsum("pr,ksq->krspq", eye, frame)
    return ad.reshape(k, n * n, n * n)


# ---------------------------------------------------------------------------
# the bundled basis object
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MatrixBasis:
    """A Hermitian matrix basis together with its derived tensors.

    Attributes
    ----------
    n : int
        Size of the square matrices.
    mats : ndarray, shape (D, n, n)
        The basis matrices ``E_k`` (traceless Hermitian).
    c : ndarray, shape (D, D, D)
        Structure constants, ``i [E_k, E_l] = c[k, l, m] E_m``.
    g, g_inv : ndarray, shape (D, D)
        Metric ``(1/n) tr(E_k E_l)`` and its inverse.
    g_det : float
        Determinant of ``g``.
    """

    n: int
    mats: np.ndarray
    c: np.ndarray = field(repr=False)
    g: np.ndarray = field(repr=False)
    g_inv: np.ndarray = field(repr=False)
    g_det: float

    @property
    def dim(self) -> int:
        """Number of basis elements (the number of independent derivations)."""
        return self.mats.shape[0]

    @classmethod
    def from_matrices(cls, mats: np.ndarray) -> "MatrixBasis":
        """Build the basis bundle from raw matrices, validating as we go."""
        mats = np.asarray(mats, dtype=complex)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2] or mats.shape[0] == 0:
            raise ShapeError(f"expected shape (D, n, n) with D ≥ 1, got {mats.shape}")
        n = mats.shape[-1]
        for k, e in enumerate(mats):
            if not is_hermitian(e):
                raise NotHermitianError(f"basis matrix {k} is not Hermitian")
            if not is_traceless(e):
                raise SingularBasisError(f"basis matrix {k} is not traceless")
        g = _metric(mats)
        # positive-definite relative to its own scale, whatever the scale
        eigs = np.linalg.eigvalsh(g)
        if eigs[0] <= TAU_ALG * eigs[-1]:
            raise SingularBasisError("basis metric is singular; matrices are dependent")
        g_det = float(np.prod(eigs))
        g_inv = np.linalg.inv(g)
        c = _structure_constants(mats, g)
        return cls(
            n=n, mats=frozen(mats), c=frozen(c, float), g=frozen(g, float),
            g_inv=frozen(g_inv, float), g_det=g_det,
        )

    @classmethod
    def gellmann(cls, n: int) -> "MatrixBasis":
        """The generalized Gell-Mann basis of sl(n) in grouped order."""
        return cls.from_matrices(gellmann_basis(n))

    @cached_property
    def sqrt_g_det(self) -> float:
        return float(np.sqrt(self.g_det))

    @cached_property
    def normal_frame(self) -> tuple[np.ndarray, np.ndarray]:
        """``L`` with ``L Lᵀ = (2/n)·g_inv``, and the structure constants ``C̃`` of the
        frame ``Ẽ_c = Σ_a L_ac E_a``, whose metric is ``(2/n)·1`` as Gell-Mann's is:
        coefficients go there as ``Ã = Lᵀ A`` and back as ``L⁻ᵀ Ã``, gradients as ``L G̃``.
        ``C̃_abc = Σ L_ka L_lb C_klm (L⁻ᵀ)_mc`` is ``C`` transformed as a tensor: a real
        change of frame keeps it real and closed, so no commutator is formed again."""
        lower = np.linalg.cholesky((2.0 / self.n) * self.g_inv)
        c = self.c.reshape(-1, self.dim).T  # rows m, as C is stored: its last index slowest
        for t in (np.linalg.inv(lower).T, lower, lower):  # contract m, k, l: a GEMM each,
            c = c.reshape(len(t), -1).T @ t  # the contracted axis leading, the new one last
        return frozen(lower, float), frozen(c.reshape(self.c.shape).transpose(1, 2, 0), float)

    @cached_property
    def ad_table(self) -> np.ndarray:
        """``(n², (D+1)·n²)``: ``a.reshape(-1, n²) @ ad_table`` holds, per matrix ``a``,
        ``[iE_k, a]`` for each ``k`` (:func:`adjoint_table` of the frame ``iE_k``) and
        then ``a`` itself, exactly, each flattened row-major."""
        n2 = self.n * self.n
        ad = adjoint_table(1j * self.mats).transpose(1, 0, 2).reshape(n2, -1)
        return frozen(np.concatenate([ad, np.eye(n2)], axis=1))

    @cached_property
    def structure_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero ``c[l, m, k]`` with ``l < m`` by ``k``: the rows ``l`` and ``m``, the
        values, and ``bounds`` with those of ``k`` at ``bounds[k]:bounds[k + 1]``, in
        lexicographic order (the terms of ``d'θ^k`` in :mod:`ncgauge.derforms`)."""
        k, l, m = np.nonzero(self.c.transpose(2, 0, 1))
        keep = l < m
        k, l, m = k[keep], l[keep], m[keep]
        bounds = np.searchsorted(k, np.arange(self.dim + 1))
        return frozen(np.stack([l, m]), np.intp), frozen(self.c[l, m, k], float), frozen(bounds, np.intp)

    @cached_property
    def derform_plans(self) -> dict:
        """Index plans of :mod:`ncgauge.derforms` for full parts, keyed by
        operation and degrees: they hold this basis' structure constants and
        metric minors, never a form's coefficients."""
        return {}

    # -- expansion ----------------------------------------------------------

    def expand(self, a: np.ndarray) -> np.ndarray:
        """Coefficients ``c_k`` with ``a = sum_k c_k E_k`` (complex in general).

        Solves the Gram system, so non-orthogonal bases are handled.  A
        residual outside the span raises :class:`ShapeError`.
        """
        a = np.asarray(a, dtype=complex)
        if a.shape != (self.n, self.n):
            raise ShapeError(f"expected ({self.n}, {self.n}) matrix, got {a.shape}")
        rhs = np.einsum("kba,ba->k", np.conjugate(self.mats), a) / self.n
        coeff = self.g_inv @ rhs
        resid = a - np.einsum("k,kab->ab", coeff, self.mats)
        if not frob_norm(resid) <= TAU_ALG * frob_norm(a):  # NaN fails too
            raise ShapeError("matrix is not in the span of the basis")
        return coeff

    def reconstruct(self, coeff: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`expand`: ``sum_k coeff[k] E_k``."""
        coeff = np.asarray(coeff)
        if coeff.shape != (self.dim,):
            raise ShapeError(f"expected {self.dim} coefficients, got {coeff.shape}")
        return np.einsum("k,kab->ab", coeff, self.mats)

    def same_as(self, other: "MatrixBasis") -> bool:
        """True when the two bundles contain the same matrices, at their own norm."""
        return (
            self.n == other.n
            and self.dim == other.dim
            and frob_norm(self.mats - other.mats) <= TAU_ALG * frob_norm(self.mats)
        )
