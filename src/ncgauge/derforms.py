"""Differential calculus on M_n built from its inner derivations.

Forms are elements of ``M_n ⊗ Λ•(dual of the derivation space)``: every
homogeneous component is a matrix coefficient attached to a strictly
increasing index tuple ``K = (k_1 < ... < k_p)`` standing for the wedge
monomial ``θ^{k_1} ∧ ... ∧ θ^{k_p}``, where ``θ^k`` is dual to the basis
derivation ``∂_k = ad(iE_k)``.  Mixed-degree sums are allowed; operations
treat each component independently.

The differential ``d'`` acts on generators by

* ``d' a   = [iE_k, a] ⊗ θ^k`` for a matrix ``a`` (summed over ``k``),
* ``d' θ^m = − Σ_{k<l} C[k, l, m] θ^k θ^l``,

and extends as a graded antiderivation; ``d'`` squares to zero and is
implemented degree-by-degree from these two rules.  Evaluation on tuples
of derivations, the canonical one-form ``iθ`` with ``d'a = [iθ, a]``, a
metric Hodge star, the normalized top-degree integral and the graded
involution complete the calculus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterator, Mapping

import numpy as np

from .basis import MatrixBasis, dagger, frob_norm
from .errors import BasisMismatchError, DegreeError, ShapeError
from .tolerances import TAU_ALG

__all__ = [
    "DerForm",
    "Derivation",
    "wedge",
    "dprime",
    "dinvolution",
    "canonical_theta",
    "evaluate",
    "koszul_evaluate",
    "hodge",
    "nc_integrate",
    "random_form",
]


def _sort_with_sign(seq: tuple[int, ...]) -> tuple[int, tuple[int, ...] | None]:
    """Parity of sorting ``seq`` ascending; ``(0, None)`` on repeated entries."""
    items = list(seq)
    sign = 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
            elif items[j] == items[j + 1]:
                return 0, None
    return sign, tuple(items)


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Derivation:
    """The inner derivation ``ad(gamma): a ↦ [gamma, a]`` with ``gamma`` traceless.

    ``coeffs`` are the components in the ``∂_k = ad(iE_k)`` frame, i.e.
    ``ad(gamma) = Σ_k coeffs[k] ∂_k`` with ``coeffs = expand(-i·gamma)``.
    """

    basis: MatrixBasis
    gamma: np.ndarray
    coeffs: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        gamma = np.array(self.gamma, dtype=complex)
        if gamma.shape != (self.basis.n, self.basis.n):
            raise ShapeError(f"gamma must be {self.basis.n}x{self.basis.n}")
        if abs(np.trace(gamma)) > TAU_ALG * max(1.0, frob_norm(gamma)):
            raise ShapeError("gamma must be traceless to define a derivation frame component")
        object.__setattr__(self, "gamma", gamma)
        if self.coeffs is None:
            object.__setattr__(self, "coeffs", self.basis.expand(-1j * gamma))
        else:
            object.__setattr__(self, "coeffs", np.array(self.coeffs, dtype=complex))
        self.gamma.setflags(write=False)
        self.coeffs.setflags(write=False)

    @classmethod
    def frame(cls, basis: MatrixBasis, k: int) -> "Derivation":
        """The basis derivation ``∂_k = ad(iE_k)`` with exact unit coefficients."""
        coeffs = np.zeros(basis.dim, dtype=complex)
        coeffs[k] = 1.0
        return cls(basis, 1j * basis.mats[k], coeffs)

    def __call__(self, a: np.ndarray) -> np.ndarray:
        return self.gamma @ a - a @ self.gamma

    def bracket(self, other: "Derivation") -> "Derivation":
        """Commutator of derivations: ``[ad(γ), ad(η)] = ad([γ, η])``."""
        _require_same_basis(self.basis, other.basis)
        return Derivation(self.basis, self.gamma @ other.gamma - other.gamma @ self.gamma)


def _require_same_basis(b1: MatrixBasis, b2: MatrixBasis) -> None:
    if b1 is b2:
        return
    if not b1.same_as(b2):
        raise BasisMismatchError("operands are built over different matrix bases")


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

class DerForm:
    """Matrix-valued exterior form over the derivation frame of a basis.

    ``components`` maps strictly increasing index tuples to ``(n, n)``
    coefficient matrices; the empty tuple is the degree-0 part.
    """

    __slots__ = ("basis", "components")

    def __init__(self, basis: MatrixBasis, components: Mapping[tuple[int, ...], np.ndarray]):
        self.basis = basis
        clean: dict[tuple[int, ...], np.ndarray] = {}
        for key, mat in components.items():
            key = tuple(int(k) for k in key)
            if any(not 0 <= k < basis.dim for k in key):
                raise DegreeError(f"index tuple {key} outside 0..{basis.dim - 1}")
            if any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                raise DegreeError(f"index tuple {key} is not strictly increasing")
            mat = np.array(mat, dtype=complex)
            if mat.shape != (basis.n, basis.n):
                raise ShapeError(f"coefficient for {key} must be {basis.n}x{basis.n}")
            if np.count_nonzero(mat):
                clean[key] = mat
                mat.setflags(write=False)
        self.components = clean

    # -- structure ----------------------------------------------------------

    @classmethod
    def zero(cls, basis: MatrixBasis) -> "DerForm":
        return cls(basis, {})

    @classmethod
    def matrix(cls, basis: MatrixBasis, a: np.ndarray) -> "DerForm":
        """Degree-0 form from a matrix."""
        return cls(basis, {(): a})

    @classmethod
    def monomial(cls, basis: MatrixBasis, key: tuple[int, ...], a: np.ndarray) -> "DerForm":
        """Single component ``a ⊗ θ^key`` (key strictly increasing)."""
        return cls(basis, {tuple(key): a})

    def degrees(self) -> list[int]:
        return sorted({len(k) for k in self.components})

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def degree(self) -> int:
        degs = self.degrees()
        if not degs:
            return 0
        if len(degs) > 1:
            raise DegreeError(f"form has mixed degrees {degs}")
        return degs[0]

    def component(self, key: tuple[int, ...]) -> np.ndarray:
        n = self.basis.n
        return self.components.get(tuple(key), np.zeros((n, n), dtype=complex))

    def norm(self) -> float:
        return float(np.sqrt(sum(np.sum(np.abs(m) ** 2) for m in self.components.values())))

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
        return iter(sorted(self.components.items(), key=lambda kv: (len(kv[0]), kv[0])))

    def __repr__(self) -> str:
        degs = self.degrees()
        return f"DerForm(n={self.basis.n}, degrees={degs}, terms={len(self.components)})"

    # -- graded-algebra arithmetic -------------------------------------------

    def __add__(self, other: "DerForm") -> "DerForm":
        _require_same_basis(self.basis, other.basis)
        out = dict(self.components)
        for key, mat in other.components.items():
            out[key] = out.get(key, 0) + mat
        return DerForm(self.basis, out)

    def __sub__(self, other: "DerForm") -> "DerForm":
        return self + (-1.0) * other

    def __neg__(self) -> "DerForm":
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, DerForm):
            return wedge(self, other)
        c = complex(other)
        return DerForm(self.basis, {k: c * m for k, m in self.components.items()})

    def __rmul__(self, scalar) -> "DerForm":
        c = complex(scalar)
        return DerForm(self.basis, {k: c * m for k, m in self.components.items()})

    def star(self) -> "DerForm":
        return dinvolution(self)

    # -- serialization --------------------------------------------------------

    def to_record(self) -> dict:
        """JSON-compatible record: indices plus re/im entry tables."""
        comps = []
        for key, mat in self:
            comps.append(
                {
                    "indices": list(key),
                    "re": np.real(mat).tolist(),
                    "im": np.imag(mat).tolist(),
                }
            )
        return {"n": self.basis.n, "dim": self.basis.dim, "components": comps}

    @classmethod
    def from_record(cls, basis: MatrixBasis, record: dict) -> "DerForm":
        if record.get("n") != basis.n or record.get("dim") != basis.dim:
            raise BasisMismatchError("record was written over a different basis")
        comps = {}
        for entry in record["components"]:
            mat = np.array(entry["re"], dtype=float) + 1j * np.array(entry["im"], dtype=float)
            comps[tuple(entry["indices"])] = mat
        return cls(basis, comps)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def wedge(w1: DerForm, w2: DerForm) -> DerForm:
    """Graded product: ``(a ⊗ θ^K)(b ⊗ θ^L) = ab ⊗ θ^K ∧ θ^L``."""
    _require_same_basis(w1.basis, w2.basis)
    out: dict[tuple[int, ...], np.ndarray] = {}
    for k1, a in w1.components.items():
        for k2, b in w2.components.items():
            sign, key = _sort_with_sign(k1 + k2)
            if key is None:
                continue
            term = sign * (a @ b)
            out[key] = out.get(key, 0) + term
    return DerForm(w1.basis, out)


def dprime(w: DerForm) -> DerForm:
    """The differential, built from its action on generators."""
    basis = w.basis
    mats, c = basis.mats, basis.c
    pairs = _c_pairs(basis)
    out: dict[tuple[int, ...], np.ndarray] = {}

    def accumulate(key, mat):
        out[key] = out.get(key, 0) + mat

    for key, a in w.components.items():
        # coefficient part: [iE_k, a] ⊗ θ^k ∧ θ^key
        for k in range(basis.dim):
            sign, merged = _sort_with_sign((k,) + key)
            if merged is None:
                continue
            comm = 1j * (mats[k] @ a - a @ mats[k])
            accumulate(merged, sign * comm)
        # frame part: θ^{k_i} ↦ −Σ_{l<m} C[l, m, k_i] θ^l θ^m, antiderivation signs
        for i, ki in enumerate(key):
            presign = -1.0 if i % 2 else 1.0
            for l, m in pairs[ki]:
                seq = key[:i] + (l, m) + key[i + 1 :]
                sign, merged = _sort_with_sign(seq)
                if merged is None:
                    continue
                accumulate(merged, (-presign * sign * c[l, m, ki]) * a)
    return DerForm(basis, out)


def _c_pairs(basis: MatrixBasis) -> list[list[tuple[int, int]]]:
    """For each frame index m, the pairs l < k with C[l, k, m] != 0."""
    c = basis.c
    d = basis.dim
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    for m in range(d):
        ls, ks = np.nonzero(np.triu(c[:, :, m], 1))
        pairs[m] = list(zip(ls.tolist(), ks.tolist()))
    return pairs


def dinvolution(w: DerForm) -> DerForm:
    """Graded involution: conjugate-transpose every coefficient.

    With self-dual frame forms this is the unique involution that
    reverses products with the graded sign ``(ωη)* = (−1)^{pq} η* ω*``
    and commutes with the differential, ``(d'ω)* = d'(ω*)``.  The
    canonical one-form ``iθ`` has anti-Hermitian coefficients, so it is
    *anti*-real: ``(iθ)* = −iθ``.
    """
    return DerForm(w.basis, {k: dagger(m) for k, m in w.components.items()})


def canonical_theta(basis: MatrixBasis) -> DerForm:
    """The canonical one-form ``iθ = iE_k ⊗ θ^k``; ``d'a = [iθ, a]`` on matrices."""
    return DerForm(basis, {(k,): 1j * basis.mats[k] for k in range(basis.dim)})


def evaluate(w: DerForm, ders: list[Derivation]) -> np.ndarray:
    """Evaluate the degree-``len(ders)`` part on a tuple of derivations.

    ``θ^K`` pairs with ``(X_1, ..., X_p)`` through the determinant of the
    coefficient minor ``M[i, j] = coeffs(X_j)[k_i]``.
    """
    basis = w.basis
    for der in ders:
        _require_same_basis(basis, der.basis)
    p = len(ders)
    if w.components and p not in w.degrees():
        raise DegreeError(f"form has no degree-{p} part to evaluate")
    coeff_rows = np.array([d.coeffs for d in ders]).reshape(p, basis.dim)
    n = basis.n
    total = np.zeros((n, n), dtype=complex)
    for key, a in w.components.items():
        if len(key) != p:
            continue
        minor = coeff_rows[:, list(key)].T  # M[i, j] = coeffs_j[k_i]
        total = total + np.linalg.det(minor) * a
    return total


def koszul_evaluate(w: DerForm, x: Derivation, y: Derivation) -> np.ndarray:
    """Differential of a one-form evaluated on ``(X, Y)`` the classical way:
    ``X·ω(Y) − Y·ω(X) − ω([X, Y])``.  Cross-check oracle for ``dprime``."""
    if w.degrees() not in ([], [1]):
        raise DegreeError("the two-argument formula applies to one-forms")
    wy = evaluate(w, [y])
    wx = evaluate(w, [x])
    return x(wy) - y(wx) - evaluate(w, [x.bracket(y)])


# ---------------------------------------------------------------------------
# metric operations
# ---------------------------------------------------------------------------

def hodge(w: DerForm) -> DerForm:
    """Metric Hodge star, mapping degree ``p`` to degree ``dim − p``.

    The coefficient of ``θ^M`` in ``⋆(a ⊗ θ^K)`` is
    ``√g · ε(L ⧺ M) · det(g_inv[K, L])``, with ``L`` the sorted complement
    of ``M``: a ``p × p`` minor of ``g_inv`` (its p-th compound matrix),
    signed by ``ε(L ⧺ Lᶜ) = (−1)^(ΣL − p(p−1)/2)``.  A minor can be
    nonzero only when ``L`` lies inside the columns that the rows
    ``g_inv[K]`` reach, so only those ``L`` are enumerated; a diagonal
    metric costs one minor per component.
    """
    basis = w.basis
    if not w.is_homogeneous():
        raise DegreeError("Hodge star needs a homogeneous form")
    if not w.components:
        return DerForm.zero(basis)
    d = basis.dim
    p = w.degree()
    g_inv = basis.g_inv
    reach: list[set[int]] = [set() for _ in range(d)]
    for k, col in np.argwhere(g_inv).tolist():
        reach[k].add(col)
    shift = p * (p - 1) // 2
    out: dict[tuple[int, ...], np.ndarray] = {}
    for key, a in w.components.items():
        ls = list(combinations(sorted(set().union(*(reach[k] for k in key))), p))
        cols = np.array(ls, dtype=int).reshape(len(ls), p)
        # minors[i] = det(g_inv[K, L_i]), one p × p block per candidate L_i
        minors = np.linalg.det(g_inv[list(key)][:, cols].transpose(1, 0, 2))
        for l_tuple, minor in zip(ls, minors.tolist()):
            coeff = (-1) ** (sum(l_tuple) - shift) * basis.sqrt_g_det * minor
            m_tuple = tuple(i for i in range(d) if i not in l_tuple)
            out[m_tuple] = out.get(m_tuple, 0) + coeff * a
    return DerForm(basis, out)


def nc_integrate(w: DerForm) -> complex:
    """Normalized integral: ``(1/n)·tr`` of the top-degree coefficient
    relative to the metric volume ``√g θ^0 ∧ ... ∧ θ^{dim−1}``; zero on
    lower degrees.  Kills differentials: ``∫ d'η = 0``."""
    basis = w.basis
    top = tuple(range(basis.dim))
    a = w.components.get(top)
    if a is None:
        return 0.0 + 0.0j
    return complex(np.trace(a) / basis.n / basis.sqrt_g_det)


def random_form(basis: MatrixBasis, degree: int, rng: np.random.Generator) -> DerForm:
    """Random homogeneous form with standard-normal complex entries."""
    if not 0 <= degree <= basis.dim:
        raise DegreeError(f"degree must lie in 0..{basis.dim}")
    n = basis.n
    comps = {}
    for key in combinations(range(basis.dim), degree):
        comps[key] = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return DerForm(basis, comps)
