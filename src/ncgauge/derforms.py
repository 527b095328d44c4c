"""Differential calculus on M_n built from its inner derivations.

Forms are elements of ``M_n ⊗ Λ•(dual of the derivation space)``: a
monomial is a matrix coefficient attached to a strictly increasing index
row ``K = (k_1 < ... < k_p)`` standing for the wedge product
``θ^{k_1} ∧ ... ∧ θ^{k_p}``, where ``θ^k`` is dual to the basis derivation
``∂_k = ad(iE_k)``.  Mixed-degree sums are allowed.

Each degree-``p`` part is stored as a read-only ``(K, p)`` integer array of
index rows in lexicographic order beside the ``(K, n, n)`` stack of their
coefficients, with no repeated row and no all-zero coefficient.  Operations
form the candidate rows of a result together, count the swaps that sort
each row (and find repeated indices) through products of index-membership
tables, and merge each output degree with one sort of packed row keys and
``np.add.reduceat``; large inputs go in blocks of rows, so that memory
stays near the size of the result.  Keys are validated only where a caller
hands them in: the mapping constructor, ``matrix``/``monomial`` and
``from_record``.

The differential ``d'`` acts on generators by

* ``d' a   = [iE_k, a] ⊗ θ^k`` for a matrix ``a`` (summed over ``k``),
* ``d' θ^m = − Σ_{k<l} C[k, l, m] θ^k θ^l``,

and extends as a graded antiderivation; ``d'`` squares to zero.
Evaluation on tuples of derivations, the canonical one-form ``iθ`` with
``d'a = [iθ, a]``, a metric Hodge star, the normalized top-degree integral
and the graded involution complete the calculus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

from .basis import MatrixBasis, complex_record, dagger, from_complex_record, frozen, is_traceless
from .errors import BasisMismatchError, DegreeError, ShapeError

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
        gamma = frozen(self.gamma)
        if gamma.shape != (self.basis.n, self.basis.n):
            raise ShapeError(f"gamma must be {self.basis.n}x{self.basis.n}")
        if not is_traceless(gamma):
            raise ShapeError("gamma must be traceless to define a derivation frame component")
        object.__setattr__(self, "gamma", gamma)
        coeffs = self.basis.expand(-1j * gamma) if self.coeffs is None else self.coeffs
        object.__setattr__(self, "coeffs", frozen(coeffs))

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
        c = self.gamma @ other.gamma - other.gamma @ self.gamma
        # a commutator is traceless: its trace is roundoff of the size of
        # ‖γ‖‖η‖, which the traceless gate would judge against ‖c‖
        return Derivation(self.basis, c - np.trace(c) / self.basis.n * np.eye(self.basis.n))


def _require_same_basis(b1: MatrixBasis, b2: MatrixBasis) -> None:
    if b1 is b2:
        return
    if not b1.same_as(b2):
        raise BasisMismatchError("operands are built over different matrix bases")


# ---------------------------------------------------------------------------
# index rows
# ---------------------------------------------------------------------------

_Part = tuple[np.ndarray, np.ndarray]  # (rows, coefficients) of one degree
_BATCH = 2**14  # coefficient entries per block of candidate monomials
_SHARED = 2.0**32  # weight of an index two rows share, in the wedge counts


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Make arrays built here read-only in place; a copy would cost the hot path."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _tables(d: int) -> tuple[np.ndarray, ...]:
    """``eye(d)``, ``less[x, y] = 1`` for ``x < y``, and ``lessᵀ + _SHARED·eye``."""
    eye, less = np.eye(d), np.triu(np.ones((d, d)), 1)
    return _frozen(eye, less, less.T + _SHARED * eye)


@lru_cache(maxsize=None)
def _key_weights(d: int, p: int) -> np.ndarray:
    """Weights packing rows of ``p`` indices below ``d`` into int64 keys, as
    many indices per key as fit in 63 bits, that sort as the rows do."""
    bits = max(1, (d - 1).bit_length())
    per = 63 // bits
    w = np.zeros((p, -(-p // per)), dtype=np.int64)
    for j in range(p):
        w[j, j // per] = 1 << (bits * (per - 1 - j % per))
    return _frozen(w)[0]


def _blocks(count: int, fanout: int, n: int) -> list[slice]:
    """Blocks of ``count`` input rows, each making about a batch of candidates."""
    step = max(1, _BATCH // (fanout * n * n + 1))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _membership(rows: np.ndarray, d: int) -> np.ndarray:
    return np.add.reduce(_tables(d)[0][rows], axis=1)


def _sign(swaps: np.ndarray) -> np.ndarray:
    return ((-1.0) ** swaps)[:, None, None]


def _merge(rows: np.ndarray, coefs: np.ndarray, d: int) -> _Part | None:
    """Sorted rows, repeats allowed, to a part: lexicographic order, the
    coefficients of equal rows summed, zero coefficients dropped."""
    if len(rows) > 1 and rows.shape[1] == 0:
        rows, coefs = rows[:1], np.add.reduce(coefs, axis=0, keepdims=True)
    elif len(rows) > 1:
        keys = rows @ _key_weights(d, rows.shape[1])
        order = np.lexsort(keys.T[::-1]) if keys.shape[1] > 1 else keys[:, 0].argsort()
        keys = keys[order]
        new = np.logical_or.reduce(keys[1:] != keys[:-1], axis=1)
        if np.count_nonzero(new) == len(new):
            rows, coefs = rows[order], coefs[order]
        else:
            starts = np.concatenate(([0], new.nonzero()[0] + 1))
            rows, coefs = rows[order[starts]], np.add.reduceat(coefs[order], starts)
    return _nonzero(rows, coefs)


def _nonzero(rows: np.ndarray, coefs: np.ndarray) -> _Part | None:
    keep = np.logical_or.reduce(coefs, axis=(1, 2))
    if np.count_nonzero(keep) < len(keep):
        rows, coefs = rows[keep], coefs[keep]
    return (rows, coefs) if len(rows) else None


def _collect(basis: MatrixBasis, pieces: Iterable[_Part]) -> "DerForm":
    """The sum of ``(sorted rows, coefficients)`` pieces.  The pieces of a
    degree are merged once, or whenever those after the first outgrow both
    a batch and half the first: merging stays a fraction of all the
    work, and memory a small multiple of the result."""
    pending: dict[int, list[_Part]] = {}

    def merge(group: list[_Part]) -> None:
        rows, coefs = group[0] if len(group) == 1 else map(np.concatenate, zip(*group))
        group.clear()  # let the pieces go before the merge copies them again
        part = _merge(rows, coefs, basis.dim)
        if part is not None:
            group.append(part)

    for piece in pieces:
        group = pending.setdefault(piece[0].shape[1], [])
        group.append(piece)
        if sum(coefs.size for _, coefs in group[1:]) > max(_BATCH, group[0][1].size // 2):
            merge(group)
    for group in pending.values():
        if group:  # empty when an earlier merge cancelled everything
            merge(group)
    return DerForm._of(basis, {p: group[0] for p, group in pending.items() if group})


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

class DerForm:
    """Matrix-valued exterior form over the derivation frame of a basis.

    Built from a mapping of strictly increasing index tuples to ``(n, n)``
    coefficient matrices, the empty tuple for degree 0; all-zero
    coefficients are dropped.  ``components`` reads it back as a read-only
    mapping in degree, then lexicographic, order.
    """

    __slots__ = ("basis", "_parts", "_components")

    def __init__(self, basis: MatrixBasis, components: Mapping[tuple[int, ...], np.ndarray]):
        n, d = basis.n, basis.dim
        groups: dict[int, list] = {}
        for key, mat in components.items():
            key, mat = tuple(int(k) for k in key), np.asarray(mat, dtype=complex)
            if any(not 0 <= k < d for k in key):
                raise DegreeError(f"index tuple {key} outside 0..{d - 1}")
            if any(k >= l for k, l in zip(key, key[1:])):
                raise DegreeError(f"index tuple {key} is not strictly increasing")
            if mat.shape != (n, n):
                raise ShapeError(f"coefficient for {key} must be {n}x{n}")
            groups.setdefault(len(key), []).append((key, mat))
        parts = {}
        for p, items in groups.items():
            keys, mats = zip(*sorted(items, key=lambda item: item[0]))
            for k, l in zip(keys, keys[1:]):
                if k == l:  # keys that differ only before int(), such as 1 and 1.5
                    raise DegreeError(f"index tuple {k} given twice")
            part = _nonzero(np.array(keys, dtype=np.intp).reshape(len(keys), p), np.array(mats))
            if part is not None:
                parts[p] = part
        self._init(basis, parts)

    def _init(self, basis: MatrixBasis, parts: dict[int, _Part]) -> None:
        self.basis, self._components = basis, None
        self._parts = {p: _frozen(*parts[p]) for p in sorted(parts)}

    @classmethod
    def _of(cls, basis: MatrixBasis, parts: dict[int, _Part]) -> "DerForm":
        """A form from parts that already hold the invariants (no checks)."""
        form = cls.__new__(cls)
        form._init(basis, parts)
        return form

    # -- structure ----------------------------------------------------------

    @classmethod
    def zero(cls, basis: MatrixBasis) -> "DerForm":
        return cls._of(basis, {})

    @classmethod
    def matrix(cls, basis: MatrixBasis, a: np.ndarray) -> "DerForm":
        """Degree-0 form from a matrix."""
        return cls(basis, {(): a})

    @classmethod
    def monomial(cls, basis: MatrixBasis, key: tuple[int, ...], a: np.ndarray) -> "DerForm":
        """Single component ``a ⊗ θ^key`` (key strictly increasing)."""
        return cls(basis, {tuple(key): a})

    @property
    def components(self) -> Mapping[tuple[int, ...], np.ndarray]:
        if self._components is None:
            self._components = MappingProxyType(
                {
                    tuple(row): coef
                    for rows, coefs in self._parts.values()
                    for row, coef in zip(rows.tolist(), coefs)
                }
            )
        return self._components

    def degrees(self) -> list[int]:
        return list(self._parts)

    def is_homogeneous(self) -> bool:
        return len(self._parts) <= 1

    def degree(self) -> int:
        degs = self.degrees()
        if len(degs) > 1:
            raise DegreeError(f"form has mixed degrees {degs}")
        return degs[0] if degs else 0

    def component(self, key: tuple[int, ...]) -> np.ndarray:
        n = self.basis.n
        return self.components.get(tuple(key), np.zeros((n, n), dtype=complex))

    def norm(self) -> float:
        return float(np.sqrt(sum(np.vdot(c, c).real for _, c in self._parts.values())))

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
        return iter(self.components.items())

    def __repr__(self) -> str:
        terms = sum(len(rows) for rows, _ in self._parts.values())
        return f"DerForm(n={self.basis.n}, degrees={self.degrees()}, terms={terms})"

    # -- graded-algebra arithmetic -------------------------------------------

    def _plus(self, other: "DerForm", sign: float) -> "DerForm":
        """``self + sign·other``: a degree both carry is merged once, and
        needs no sort where their rows agree."""
        _require_same_basis(self.basis, other.basis)
        parts = dict(self._parts)
        for p, (rows, coefs) in other._parts.items():
            mine = parts.pop(p, None)
            if mine is None:
                parts[p] = (rows, sign * coefs)
                continue
            if mine[0].shape == rows.shape and (mine[0] == rows).all():
                merged = _nonzero(rows, mine[1] + sign * coefs)
            else:
                both = map(np.concatenate, zip(mine, (rows, sign * coefs)))
                merged = _merge(*both, self.basis.dim)
            if merged is not None:
                parts[p] = merged
        return DerForm._of(self.basis, parts)

    def __add__(self, other: "DerForm") -> "DerForm":
        return self._plus(other, 1.0)

    def __sub__(self, other: "DerForm") -> "DerForm":
        return self._plus(other, -1.0)

    def __neg__(self) -> "DerForm":
        return (-1.0) * self

    def __mul__(self, other):
        return wedge(self, other) if isinstance(other, DerForm) else self.__rmul__(other)

    def __rmul__(self, scalar) -> "DerForm":
        c = complex(scalar)
        scaled = {p: _nonzero(rows, c * cs) for p, (rows, cs) in self._parts.items()}
        return DerForm._of(self.basis, {p: part for p, part in scaled.items() if part is not None})

    def star(self) -> "DerForm":
        return dinvolution(self)

    # -- serialization --------------------------------------------------------

    def to_record(self) -> dict:
        """JSON-compatible record: indices plus re/im entry tables."""
        comps = [{"indices": list(key), **complex_record(mat)} for key, mat in self]
        return {"n": self.basis.n, "dim": self.basis.dim, "components": comps}

    @classmethod
    def from_record(cls, basis: MatrixBasis, record: dict) -> "DerForm":
        if record.get("n") != basis.n or record.get("dim") != basis.dim:
            raise BasisMismatchError("record was written over a different basis")
        comps = {tuple(e["indices"]): from_complex_record(e) for e in record["components"]}
        return cls(basis, comps)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def wedge(w1: DerForm, w2: DerForm) -> DerForm:
    """Graded product: ``(a ⊗ θ^K)(b ⊗ θ^L) = ab ⊗ θ^K ∧ θ^L``."""
    _require_same_basis(w1.basis, w2.basis)
    d = w1.basis.dim
    right = [(rows2, _membership(rows2, d).T, b) for rows2, b in w2._parts.values()]

    def pieces() -> Iterator[_Part]:
        for p, (rows1, a) in w1._parts.items():
            for rows2, m2, b in right:
                if p == 0 or rows2.shape[1] == 0:  # θ^∅ is the unit: only coefficients multiply
                    yield rows1 if rows2.shape[1] == 0 else rows2, a @ b
                    continue
                for blk in _blocks(len(rows1), len(rows2), w1.basis.n):
                    # _SHARED per index the rows share, else the swaps sorting K ⧺ L
                    counts = _membership(rows1[blk], d) @ _tables(d)[2] @ m2
                    i, j = (counts < _SHARED).nonzero()
                    rows = np.concatenate([rows1[blk][i], rows2[j]], axis=1)
                    rows.sort(axis=1)
                    yield rows, _sign(counts[i, j]) * (a[blk][i] @ b[j])

    return _collect(w1.basis, pieces())


def dprime(w: DerForm) -> DerForm:
    """The differential, built from its action on generators."""
    basis = w.basis
    n, d = basis.n, basis.dim
    lmk, c = basis.bracket_triplets
    per_index = len(lmk) // d + 1  # about as many (l, m) pairs as one θ^k yields

    def pieces() -> Iterator[_Part]:
        for p, (all_rows, all_a) in w._parts.items():
            for blk in _blocks(len(all_rows), d + p * per_index, n):
                rows, a = all_rows[blk], all_a[blk]
                memb = _membership(rows, d)
                below = memb @ _tables(d)[1]  # below[r, x]: indices of row r under x
                # coefficient part: [iE_k, a_r] θ^k ∧ θ^K for k outside K, with
                # every commutator of the block from one GEMM
                comm = (a.reshape(len(a), n * n) @ basis.ad_table).reshape(len(a), d, n, n)
                r, k = (memb == 0).nonzero()
                new_rows = np.sort(np.concatenate([rows[r], k[:, None]], axis=1), axis=1)
                yield new_rows, _sign(below[r, k]) * comm[r, k]
                if p == 0:
                    continue
                # frame part: θ^{k_i} ↦ −Σ_{l<m} C[l, m, k_i] θ^l θ^m at position
                # i = below[r, k_i], signed (−1)^i and by the swaps sorting l, m
                # in; l and m must stay out of K∖{k_i}, but either may be k_i
                r, _, t = (rows[:, :, None] == lmk[:, 2]).nonzero()
                lm, ki = lmk[t, :2], lmk[t, 2:]
                free = memb[r[:, None], lm].sum(axis=1) == (lm == ki).sum(axis=1)
                r, t, lm, ki = r[free], t[free], lm[free], ki[free]
                swaps = below[r[:, None], lmk[t]].sum(axis=1) - (ki < lm).sum(axis=1)
                kept = np.where(rows[r] == ki, lm[:, :1], rows[r])  # l in place of k_i
                new_rows = np.concatenate([kept, lm[:, 1:]], axis=1)
                new_rows.sort(axis=1)
                yield new_rows, -_sign(swaps) * c[t][:, None, None] * a[r]

    return _collect(basis, pieces())


def dinvolution(w: DerForm) -> DerForm:
    """Graded involution: conjugate-transpose every coefficient.

    With self-dual frame forms this is the unique involution that
    reverses products with the graded sign ``(ωη)* = (−1)^{pq} η* ω*``
    and commutes with the differential, ``(d'ω)* = d'(ω*)``.  The
    canonical one-form ``iθ`` has anti-Hermitian coefficients, so it is
    *anti*-real: ``(iθ)* = −iθ``.
    """
    return DerForm._of(w.basis, {p: (rows, dagger(c)) for p, (rows, c) in w._parts.items()})


def canonical_theta(basis: MatrixBasis) -> DerForm:
    """The canonical one-form ``iθ = iE_k ⊗ θ^k``; ``d'a = [iθ, a]`` on matrices."""
    return DerForm._of(basis, {1: (np.arange(basis.dim).reshape(-1, 1), 1j * basis.mats)})


def evaluate(w: DerForm, ders: list[Derivation]) -> np.ndarray:
    """Evaluate the degree-``len(ders)`` part on a tuple of derivations.

    ``θ^K`` pairs with ``(X_1, ..., X_p)`` through the determinant of the
    coefficient minor ``M[i, j] = coeffs(X_j)[k_i]``.
    """
    basis = w.basis
    for der in ders:
        _require_same_basis(basis, der.basis)
    p = len(ders)
    if p not in w._parts:
        if w._parts:
            raise DegreeError(f"form has no degree-{p} part to evaluate")
        return np.zeros((basis.n, basis.n), dtype=complex)
    rows, coefs = w._parts[p]
    coeff_rows = np.array([d.coeffs for d in ders]).reshape(p, basis.dim)
    minors = np.linalg.det(coeff_rows[:, rows].transpose(1, 2, 0))  # M[r][i, j] = coeffs_j[K_r[i]]
    return np.einsum("r,rab->ab", minors, coefs)


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
    ``g_inv[K]`` reach, so only those ``L`` are enumerated, each block of
    them through one stacked determinant; a diagonal metric costs one
    minor per row.
    """
    basis = w.basis
    if not w.is_homogeneous():
        raise DegreeError("Hodge star needs a homogeneous form")
    if not w._parts:
        return DerForm.zero(basis)
    ((p, (rows, coefs)),) = w._parts.items()
    d, g_inv = basis.dim, basis.g_inv
    reach = _membership(rows, d) @ (g_inv != 0) > 0
    sizes = reach.sum(axis=1)

    def pieces() -> Iterator[_Part]:
        for s in sorted(set(sizes.tolist())):  # rows reaching s columns share one pattern of L
            pick = list(combinations(range(s), p))
            pick = np.array(pick, dtype=np.intp).reshape(len(pick), p)
            group = (sizes == s).nonzero()[0]
            for rs in (group[blk] for blk in _blocks(len(group), len(pick), basis.n)):
                reached = reach[rs].nonzero()[1].reshape(len(rs), s)
                ls = reached[:, pick].reshape(len(rs) * len(pick), p)
                src = np.repeat(rs, len(pick))
                minors = np.linalg.det(g_inv[rows[src][:, :, None], ls[:, None, :]])
                sign = _sign(ls.sum(axis=1) - p * (p - 1) // 2)
                weight = basis.sqrt_g_det * sign * minors[:, None, None]
                complements = (_membership(ls, d) == 0).nonzero()[1].reshape(len(ls), d - p)
                yield complements, weight * coefs[src]

    return _collect(basis, pieces())


def nc_integrate(w: DerForm) -> complex:
    """Normalized integral: ``(1/n)·tr`` of the top-degree coefficient
    relative to the metric volume ``√g θ^0 ∧ ... ∧ θ^{dim−1}``; zero on
    lower degrees.  Kills differentials: ``∫ d'η = 0``."""
    basis = w.basis
    if basis.dim not in w._parts:
        return 0.0 + 0.0j
    return complex(np.trace(w._parts[basis.dim][1][0]) / basis.n / basis.sqrt_g_det)


def random_form(basis: MatrixBasis, degree: int, rng: np.random.Generator) -> DerForm:
    """Random homogeneous form with standard-normal complex entries."""
    if not 0 <= degree <= basis.dim:
        raise DegreeError(f"degree must lie in 0..{basis.dim}")
    keys = list(combinations(range(basis.dim), degree))
    # per row a real then an imaginary n × n draw, as one stream
    z = rng.standard_normal((len(keys), 2, basis.n, basis.n))
    rows = np.array(keys, dtype=np.intp).reshape(len(keys), degree)
    return DerForm._of(basis, {degree: (rows, z[:, 0] + 1j * z[:, 1])})
