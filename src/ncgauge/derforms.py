"""Differential calculus on M_n built from its inner derivations.

Forms are elements of ``M_n ⊗ Λ•(dual of the derivation space)``: a
monomial is a matrix coefficient attached to a strictly increasing index
row ``K = (k_1 < ... < k_p)`` standing for the wedge product
``θ^{k_1} ∧ ... ∧ θ^{k_p}``, where ``θ^k`` is dual to the basis derivation
``∂_k = ad(iE_k)``.  Mixed-degree sums are allowed.

Each degree-``p`` part is stored as a read-only ``(K, p)`` integer array of
index rows in lexicographic order beside the ``(K, n, n)`` stack of their
coefficients, with no repeated row and no all-zero coefficient.  ``wedge``,
``d'`` and ``⋆`` make an integer plan from the rows alone, kept on the basis
for a full part: the result rows, by their ranks in the combinatorial number
system, and each candidate monomial as a table unit and a real weight in
jagged-diagonal slots.  The table is one GEMM per block of whole source rows
over the columns they reach (``[iE_k, a_r]`` and ``a_r``, or the ``a_i b_j``;
``⋆`` reads the coefficients); one gather serves a run of slots, and slot
``s`` adds into the first ``len(src_s)`` sums.  Keys are validated only at
the mapping constructor, ``matrix``/``monomial`` and ``from_record``.

The differential ``d'`` acts on generators by

* ``d' a   = [iE_k, a] ⊗ θ^k`` for a matrix ``a`` (summed over ``k``),
* ``d' θ^m = − Σ_{k<l} C[k, l, m] θ^k θ^l``,

and extends as a graded antiderivation; ``d'`` squares to zero.
Evaluation on tuples of derivations, the canonical one-form ``iθ`` with
``d'a = [iθ, a]``, a metric Hodge star, the normalized top-degree integral
and the graded involution complete the calculus.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .basis import MatrixBasis, complex_record, dagger, from_complex_record, frozen, is_traceless
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


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Derivation:
    """The inner derivation ``ad(gamma): a ↦ [gamma, a]`` with ``gamma`` traceless.

    ``coeffs`` are the components in the ``∂_k = ad(iE_k)`` frame, i.e.
    ``ad(gamma) = Σ_k coeffs[k] ∂_k`` with ``coeffs = expand(-i·gamma)``;
    given ones must agree with it at ``TAU_ALG`` times its norm.
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
        own = self.basis.expand(-1j * gamma)
        coeffs = own if self.coeffs is None else np.asarray(self.coeffs)
        error = np.linalg.norm(coeffs - own) if coeffs.shape == own.shape else np.inf
        if not error <= TAU_ALG * np.linalg.norm(own):  # NaN and inf fail too
            raise ShapeError(f"coeffs must be expand(-i·gamma) = {own}, got {coeffs}")
        object.__setattr__(self, "coeffs", frozen(coeffs))

    @classmethod
    def frame(cls, basis: MatrixBasis, k: int) -> "Derivation":
        """The basis derivation ``∂_k = ad(iE_k)`` with exact unit coefficients."""
        return cls(basis, 1j * basis.mats[k], np.eye(basis.dim)[k])

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
    if b1 is not b2 and not b1.same_as(b2):
        raise BasisMismatchError("operands are built over different matrix bases")


# ---------------------------------------------------------------------------
# index rows
# ---------------------------------------------------------------------------

_Part = tuple[np.ndarray, np.ndarray]  # (rows, coefficients) of one degree
_SHARED = 2.0**32  # weight of an index two rows share, in the wedge counts
_BLOCK_BYTES = 2**19  # most bytes of a source table block that holds more than one row


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
def _rank_table(d: int, p: int) -> np.ndarray:
    """``C(d−1−x, p−i)`` where index ``x`` can stand at place ``i`` of a row of
    ``p`` indices below ``d``, else 0; Python integers once ``C(d, p) ≥ 2⁶³``."""
    table = [[comb(d - 1 - x, p - i) * (i <= x <= d - p + i) for i in range(p)] for x in range(d)]
    return _frozen(np.array(table, np.int64 if comb(d, p) < 2**63 else object).reshape(d, p))[0]


def _membership(rows: np.ndarray, d: int) -> np.ndarray:
    return np.add.reduce(_tables(d)[0][rows], axis=1)


def _targets(rows: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct sorted rows in lexicographic order, and each row's index
    among them, by their ranks ``C(d, p) − 1 − Σ_i C(d−1−k_i, p−i)``
    (combinatorial number system, Knuth TAOCP 4A §7.2.1.3)."""
    p = rows.shape[1]
    ranks = comb(d, p) - 1 - _rank_table(d, p)[rows, np.arange(p)].sum(axis=1)
    _, first, tgt = np.unique(ranks, return_index=True, return_inverse=True)
    return rows[first], tgt


def _jagged(n_out: int, tgt: np.ndarray, row: np.ndarray, col, weight: np.ndarray, cell: int,
            cols: int, rep: int = 1) -> tuple:
    """The candidates ``weight · table[row, col]`` of result rows ``tgt`` as jagged-diagonal
    slots (Saad, SIAM J. Sci. Stat. Comput. 10 (1989) 1200), rows with most candidates first,
    per block: groups of ``per`` rows, whose table over all ``cols`` cells of ``cell`` bytes fits
    in ``_BLOCK_BYTES``, joined while their table over the columns ``[c0, c1)`` they reach fits.
    Cell ``(row, col)`` is units ``((row − lo)·rep + i)·(c1 − c0) + col − c0``, ``i < rep``."""
    if not len(tgt):
        return ()
    col, per = np.broadcast_to(col, tgt.shape), max(1, _BLOCK_BYTES // (cell * cols))
    block = row // per  # each candidate's group of rows, then its block
    c0, c1 = np.full(block.max() + 1, cols), np.zeros(block.max() + 1, np.intp)
    np.minimum.at(c0, block, col)
    np.maximum.at(c1, block, col + 1)
    cuts, left, right = [0], c0[0], c1[0]  # the groups that start a block, and the columns it reaches
    for k in range(1, len(c0)):
        left, right = min(left, c0[k]), max(right, c1[k])
        if (k + 1 - cuts[-1]) * per * (right - left) * cell > _BLOCK_BYTES:
            cuts, left, right = cuts + [k], c0[k], c1[k]
    block, los = np.searchsorted(cuts[1:], block, side="right"), np.array(cuts) * per
    c0, c1 = np.minimum.reduceat(c0, cuts), np.maximum.reduceat(c1, cuts)
    src = (row - los[block]) * rep * (c1 - c0)[block] + col - c0[block]
    src = src.astype(np.int32 if src.max() < 2**31 else np.intp)  # the int64 src goes before the sort
    frames = np.column_stack([los, np.append(los[1:], row.max() + 1), c0, c1]).tolist()
    key = np.add(np.multiply(block, n_out, out=block), tgt, out=block)  # block is not read again
    order = np.argsort(key, kind="stable")
    key, weight = key[order], weight[order]
    src = src[order]
    edges = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1], [True])))
    starts, counts = edges[:-1], np.diff(edges)
    slot = np.arange(len(key)) - np.repeat(starts, counts)
    blocks, block = [], key[starts] // n_out
    bounds = [0, *(np.flatnonzero(block[1:] != block[:-1]) + 1).tolist(), len(starts)]
    for lo, hi in zip(bounds, bounds[1:]):
        c, first, k = counts[lo:hi], starts[lo], block[lo]
        by = np.argsort(-c, kind="stable")
        cuts = np.concatenate([[0], np.cumsum(np.bincount(c - 1)[::-1].cumsum()[::-1])])
        at = np.empty(c.sum(), np.intp)  # slot by slot, each in the order ``by``
        at[cuts[slot[first : first + len(at)]] + np.repeat(np.argsort(by), c)] = first + np.arange(len(at))
        rows = (key[starts[lo:hi]][by] % n_out).astype(np.int32 if n_out < 2**31 else np.intp)
        blocks.append((*frames[k], rows, cuts.tolist(), src[at], weight[at]))
    return tuple(blocks)


def _apply(build: Callable, basis: MatrixBasis, rows: tuple, a: np.ndarray, right) -> _Part | None:
    """``build(basis, *rows)``'s plan, kept on the basis for full parts, and its pass: per
    block the table ``x = a[lo:hi] @ right[:, c0·m : c1·m]`` (``a[lo:hi]`` without ``right``)
    in units of ``m = len(right)`` (``n²``) entries, then per run of whole slots up to
    ``4·_BLOCK_BYTES`` one gather ``w·x[src + step]``, added as ``acc[:len(src_s)] += piece_s``."""
    key = (build.__name__, *(r.shape[1] for r in rows))
    if any(len(r) < comb(basis.dim, r.shape[1]) for r in rows):
        plan = build(basis, *rows)
    elif (plan := basis.derform_plans.get(key)) is None:
        plan = basis.derform_plans[key] = build(basis, *rows)
    result, blocks = plan
    n, alone, m = basis.n, len(blocks) == 1, basis.n**2 if right is None else right.shape[0]
    unit, run = np.dtype((np.void, 16 * m)), 4 * _BLOCK_BYTES // (16 * n * n)
    out = (np.empty if alone else np.zeros)((len(result), n, n), dtype=complex)
    for k, (lo, hi, c0, c1, tgt, cuts, src, w) in enumerate(blocks):
        x = np.ravel(a[lo:hi] if right is None else a[lo:hi].reshape(-1, m) @ right[:, c0 * m : c1 * m])
        x, step, e = x.view(unit), np.arange(n * n // m) * (c1 - c0), 0
        for a0, a1 in zip(cuts, cuts[1:]):
            if a1 > e:  # one gather for the whole slots from here, up to ``run`` candidates
                s, e = a0, max(a1, cuts[bisect_right(cuts, a0 + run) - 1])
                piece = x[src[s:e, None] + step].view(complex).reshape(-1, n, n)
                piece *= w[s:e, None, None]
            if a0:
                acc[: a1 - a0] += piece[a0 - s : a1 - s]
            else:
                acc = piece[:a1]
        del x, piece  # before the sums move and the next block's table
        if k:  # lexicographic order; later blocks add up
            out[tgt] += acc
        else:
            out[tgt] = acc
        del acc
    return _nonzero(result, out)


def _nonzero(rows: np.ndarray, coefs: np.ndarray) -> _Part | None:
    keep = np.logical_or.reduce(coefs, axis=(1, 2))
    if np.count_nonzero(keep) < len(keep):
        rows, coefs = rows[keep], coefs[keep]
    return (rows, coefs) if len(rows) else None


def _sum(basis: MatrixBasis, parts: Iterable[_Part | None], minus: Iterable[_Part | None] = ()) -> "DerForm":
    """The form summing ``parts`` less ``minus``; a degree met again is added or subtracted
    where the rows agree, else in the union of the rows, found by their ranks.  Only a
    ``minus`` part of a degree not met before is negated into a copy."""
    out: dict[int, _Part] = {}
    for op, group in ((np.add, parts), (np.subtract, minus)):
        for rows, coefs in filter(None, group):
            mine = out.pop(rows.shape[1], None)
            if mine is None:
                part = (rows, coefs if op is np.add else -coefs)
            elif mine[0].shape == rows.shape and (mine[0] == rows).all():
                part = _nonzero(rows, op(mine[1], coefs))
            else:
                union, tgt = _targets(np.concatenate([mine[0], rows]), basis.dim)
                both = np.zeros((len(union),) + coefs.shape[1:], dtype=complex)
                both[tgt[: len(mine[0])]] = mine[1]
                op.at(both, tgt[len(mine[0]) :], coefs)
                part = _nonzero(union, both)
            if part is not None:
                out[rows.shape[1]] = part
    return DerForm._of(basis, out)


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
            parts = self._parts.values()
            comps = {tuple(row): c for rows, coefs in parts for row, c in zip(rows.tolist(), coefs)}
            self._components = MappingProxyType(comps)
        return self._components

    def degrees(self) -> list[int]:
        return list(self._parts)

    def is_homogeneous(self) -> bool:
        return len(self._parts) <= 1

    def degree(self) -> int:
        if not self.is_homogeneous():
            raise DegreeError(f"form has mixed degrees {self.degrees()}")
        return next(iter(self._parts), 0)

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
        _require_same_basis(self.basis, other.basis)
        mine, theirs = self._parts.values(), other._parts.values()
        return _sum(self.basis, [*mine, *theirs]) if sign > 0 else _sum(self.basis, mine, theirs)

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
        return _sum(self.basis, [_nonzero(rows, c * cs) for rows, cs in self._parts.values()])

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

    def part(rows1: np.ndarray, a: np.ndarray, rows2: np.ndarray, b: np.ndarray) -> _Part | None:
        if rows1.shape[1] == 0 or rows2.shape[1] == 0:  # θ^∅ is the unit: coefficients multiply
            return _nonzero(rows1 if rows2.shape[1] == 0 else rows2, a @ b)
        # the a_i b_j of a block of rows i by one (B·n × n)(n × C·n) GEMM over the C columns j it reaches
        return _apply(_wedge_plan, w1.basis, (rows1, rows2), a, b.transpose(1, 0, 2).reshape(a.shape[-1], -1))

    return _sum(w1.basis, [part(*x, *y) for x in w1._parts.values() for y in w2._parts.values()])


def _wedge_plan(basis: MatrixBasis, rows1: np.ndarray, rows2: np.ndarray) -> tuple:
    """Row pairs sharing no index, signed by the swaps sorting ``K ⧺ L``."""
    d, n, r2 = basis.dim, basis.n, len(rows2)
    # _SHARED per index the rows share, else the swaps sorting K ⧺ L
    counts = _membership(rows1, d) @ _tables(d)[2] @ _membership(rows2, d).T
    i, j = (counts < _SHARED).nonzero()
    result, tgt = _targets(np.sort(np.concatenate([rows1[i], rows2[j]], axis=1), axis=1), d)
    # a_i b_j is the n units of n entries at (i·n + [0, n))·C + j of a block's GEMM output
    return result, _jagged(len(result), tgt, i, j, (-1.0) ** counts[i, j], n * n * 16, r2, n)


def dprime(w: DerForm) -> DerForm:
    """The differential, built from its action on generators; a block's table
    row ``r·(D+1) + k`` is ``[iE_k, a_r]`` for ``k < D`` and ``a_r`` for ``k = D``."""
    parts = [_apply(_dprime_plan, w.basis, (r,), a, w.basis.ad_table) for r, a in w._parts.values()]
    return _sum(w.basis, parts)


def _dprime_plan(basis: MatrixBasis, rows: np.ndarray) -> tuple:
    """The coefficient part by its new index ``k``, then the frame part."""
    d, n, p = basis.dim, basis.n, rows.shape[1]
    # the terms of d'θ^k = −Σ_{l<m} C[l, m, k] θ^l θ^m: rows (l, m, k), values C[l, m, k]
    lmk = np.argwhere(basis.c)
    lmk = lmk[lmk[:, 0] < lmk[:, 1]]
    c = basis.c[tuple(lmk.T)]
    memb = _membership(rows, d)
    below = memb @ _tables(d)[1]  # below[r, x]: indices of row r under x
    # coefficient part: [iE_k, a_r] θ^k ∧ θ^K for k outside K, signed by the
    # place of k in the sorted row
    k, r0 = (memb.T == 0).nonzero()
    sign = (-1.0) ** below[r0, k]
    # frame part: θ^{k_i} ↦ −Σ_{l<m} C[l, m, k_i] θ^l θ^m at place
    # i = below[r, k_i], signed (−1)^i and by the swaps sorting l, m in;
    # l and m must stay out of K∖{k_i}, but either may be k_i
    r, _, t = (rows[:, :, None] == lmk[:, 2]).nonzero()
    lm, ki = lmk[t, :2], lmk[t, 2:]
    free = memb[r[:, None], lm].sum(axis=1) == (lm == ki).sum(axis=1)
    r1, t, lm, ki = r[free], t[free], lm[free], ki[free]
    swaps = below[r1[:, None], lmk[t]].sum(axis=1) - (ki < lm).sum(axis=1)
    kept = np.where(rows[r1] == ki, lm[:, :1], rows[r1])  # l in place of k_i
    weight = -((-1.0) ** swaps) * c[t]
    new_rows = np.concatenate([np.column_stack([rows[r0], k]), np.column_stack([kept, lm[:, 1]])])
    result, tgt = _targets(np.sort(new_rows, axis=1), d)
    row, col, weight = (np.concatenate(x) for x in ([r0, r1], [k, np.full(len(r1), d)], [sign, weight]))
    return result, _jagged(len(result), tgt, row, col, weight, n * n * 16, d + 1)


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
    return x(evaluate(w, [y])) - y(evaluate(w, [x])) - evaluate(w, [x.bracket(y)])


# ---------------------------------------------------------------------------
# metric operations
# ---------------------------------------------------------------------------

def hodge(w: DerForm) -> DerForm:
    """Metric Hodge star, mapping degree ``p`` to degree ``dim − p``.

    The coefficient of ``θ^M`` in ``⋆(a ⊗ θ^K)`` is
    ``√g · ε(L ⧺ M) · det(g_inv[K, L])``, with ``L`` the sorted complement
    of ``M``: a ``p × p`` minor of ``g_inv`` (its p-th compound matrix),
    signed by ``ε(L ⧺ Lᶜ) = (−1)^(ΣL − p(p−1)/2)``.  Only the ``L`` inside
    the columns that the rows ``g_inv[K]`` reach are enumerated, all through
    one stacked determinant; a diagonal metric costs one minor per row.
    """
    if not w.is_homogeneous():
        raise DegreeError("Hodge star needs a homogeneous form")
    return _sum(w.basis, [_apply(_hodge_plan, w.basis, (r,), c, None) for r, c in w._parts.values()])


def _hodge_plan(basis: MatrixBasis, rows: np.ndarray) -> tuple:
    """The pairs (row ``K``, ``M``) whose minor can be nonzero; its table, the coefficients, is free."""
    d, p, g_inv = basis.dim, rows.shape[1], basis.g_inv
    reach = _membership(rows, d) @ (g_inv != 0) > 0
    sizes = reach.sum(axis=1)
    src, ls = [], []
    for s in sorted(set(sizes.tolist())):  # rows reaching s columns share one pattern of L
        pick = np.array(list(combinations(range(s), p)), dtype=np.intp).reshape(comb(s, p), p)
        group = (sizes == s).nonzero()[0]
        reached = reach[group].nonzero()[1].reshape(len(group), s)
        ls.append(reached[:, pick].reshape(len(group) * len(pick), p))
        src.append(np.repeat(group, len(pick)))
    src, ls = np.concatenate(src), np.concatenate(ls)
    minors = np.linalg.det(g_inv[rows[src][:, :, None], ls[:, None, :]])
    weight = basis.sqrt_g_det * (-1.0) ** (ls.sum(axis=1) - p * (p - 1) // 2) * minors
    # complements of rows of one size run in reverse lexicographic order, so
    # only the distinct L are complemented, the last first
    distinct, tgt = _targets(ls, d)
    result = (_membership(distinct[::-1], d) == 0).nonzero()[1].reshape(len(distinct), d - p)
    return result, _jagged(len(distinct), len(distinct) - 1 - tgt, src, 0, weight, 1, 1)


def nc_integrate(w: DerForm) -> complex:
    """Normalized integral: ``(1/n)·tr`` of the top-degree coefficient
    relative to the metric volume ``√g θ^0 ∧ ... ∧ θ^{dim−1}``; zero on
    lower degrees.  Kills differentials: ``∫ d'η = 0``."""
    top = w._parts.get(w.basis.dim)
    return 0j if top is None else complex(np.trace(top[1][0]) / w.basis.n / w.basis.sqrt_g_det)


def random_form(basis: MatrixBasis, degree: int, rng: np.random.Generator) -> DerForm:
    """Random homogeneous form with standard-normal complex entries."""
    if not 0 <= degree <= basis.dim:
        raise DegreeError(f"degree must lie in 0..{basis.dim}")
    keys = list(combinations(range(basis.dim), degree))
    # per row a real then an imaginary n × n draw, as one stream
    z = rng.standard_normal((len(keys), 2, basis.n, basis.n))
    rows = np.array(keys, dtype=np.intp).reshape(len(keys), degree)
    return DerForm._of(basis, {degree: (rows, z[:, 0] + 1j * z[:, 1])})
