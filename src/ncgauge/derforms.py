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
system, and each candidate monomial as a table unit and a weight (an int8
sign for ``wedge``) in jagged-diagonal slots.  A build counts each source
row's candidates and columns (``d'`` reads upper bounds off its terms), then
enumerates them once, for runs of whole blocks of about ``_CHUNK`` candidates,
ranking each result row from the places of its indices; it sorts a run once and
lays out all its blocks' slots together, so it holds little more than the plan.
The table is one GEMM per block of whole source rows over the columns they reach
(``[iE_k, a_r]`` and ``a_r``, or the ``a_i b_j``; ``⋆`` reads the coefficients); one
gather serves a run of slots, and slot ``s`` adds into the first ``len(src_s)`` sums.
Keys are validated only at the mapping constructor, ``matrix``/``monomial`` and ``from_record``.

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
from itertools import accumulate, combinations
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
_BLOCK_BYTES = 2**19  # most bytes of a source table block that holds more than one row
_CHUNK = 2**13  # candidates a plan enumerates at once, unless one block holds more


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Make arrays built here read-only in place; a copy would cost the hot path."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _rank_table(d: int, p: int) -> np.ndarray:
    """``C(d−1−x, p−i)`` where index ``x`` can stand at place ``i`` of a row of
    ``p`` indices below ``d``, else 0; Python integers once ``C(d, p) ≥ 2⁶³``.  A row's
    lexicographic rank is ``C(d, p) − 1 − Σ_i C(d−1−k_i, p−i)`` (combinatorial number
    system, Knuth TAOCP 4A §7.2.1.3)."""
    table = [[comb(d - 1 - x, p - i) * (i <= x <= d - p + i) for i in range(p)] for x in range(d)]
    return _frozen(np.array(table, np.int64 if comb(d, p) < 2**63 else object).reshape(d, p))[0]


@lru_cache(maxsize=None)
def _binomials(d: int, j: int, cap: int) -> np.ndarray:
    """``min(C(c, j), cap)`` for ``c < d``, in int64 while ``cap < 2⁶³`` however large ``C(d−1, j)``."""
    return _frozen(np.array([min(comb(c, j), cap) for c in range(d)], np.int64 if cap < 2**63 else object))[0]


def _rows_of(ranks: np.ndarray, d: int, p: int) -> np.ndarray:
    """The rows of lexicographic ranks ``ranks``: place by place the largest ``c = d−1−k``
    with ``C(c, p−i)`` at most what is left of ``C(d, p) − 1 − rank``."""
    top = comb(d, p)  # no more is ever left, so the columns stop there
    left = top - 1 - ranks.astype(np.int64 if top < 2**63 else object)
    rows = np.empty((len(ranks), p), np.intp)
    for i in range(p):
        column = _binomials(d, p - i, top)
        rows[:, i] = c = column.searchsorted(left, side="right") - 1
        left = left - column[c]
    return d - 1 - rows


def _membership(rows: np.ndarray, d: int) -> np.ndarray:
    memb = np.zeros((len(rows), d), bool)
    memb[np.arange(len(rows))[:, None], rows] = True
    return memb


def _below(memb: np.ndarray) -> np.ndarray:
    """``below[r, x]``: the indices of row ``r`` under ``x``."""
    return np.cumsum(memb, axis=1) - memb


def _ragged(starts: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The runs ``starts[i] + [0, sizes[i])`` one after another: each entry's ``i``, and the entry."""
    owner = np.repeat(np.arange(len(sizes)), sizes)
    return owner, np.arange(len(owner)) + (starts - np.cumsum(sizes) + sizes)[owner]


def _runs(sizes: np.ndarray) -> list[tuple[int, int]]:
    """Spans ``[a, b)`` of the items, in order, whose ``sizes`` add up to about ``_CHUNK``."""
    total = np.cumsum(sizes)
    stops = np.arange(_CHUNK, total[-1] if len(total) else 0, _CHUNK)
    cuts = total.searchsorted(stops, side="right").tolist()
    cuts = [0, *sorted(set(cuts) - {0}), len(sizes)]
    return list(zip(cuts, cuts[1:]))


def _jagged(count: np.ndarray, first: np.ndarray, last: np.ndarray, cols: int, cell: int, rep: int,
            candidates: Callable, d: int, width: int) -> tuple:
    """A plan: the result rows of ``width`` indices below ``d`` that the candidates
    ``weight · table[row, col]`` reach, in lexicographic order, and the candidates as
    jagged-diagonal slots (Saad, SIAM J. Sci. Stat. Comput. 10 (1989) 1200), result rows
    with most candidates first, per block: groups of ``per`` rows, whose table over all
    ``cols`` cells of ``cell`` bytes fits in ``_BLOCK_BYTES``, joined while their table over
    the columns ``[c0, c1)`` they reach fits.  Cell ``(row, col)`` is units
    ``((row − lo)·rep + i)·(c1 − c0) + col − c0``, ``i < rep``.

    Source row ``r`` has at most ``count[r]`` candidates, in the columns ``first[r]..last[r]``.
    ``candidates(a, b)`` gives the ``row, col, rank, weight`` of those of the rows ``[a, b)``,
    asked for runs of whole blocks of about ``_CHUNK`` candidates, in their order: the rank
    is their result row's (:func:`_rank_table`), and a result row adds its candidates of one
    block in that order."""
    live = count.nonzero()[0]
    if not len(live):
        return np.empty((0, width), np.intp), ()
    end, per = int(live[-1]) + 1, max(1, _BLOCK_BYTES // (cell * cols))
    some, starts = count[:end] > 0, np.arange(0, end, per)
    c0 = np.minimum.reduceat(np.where(some, first[:end], cols), starts).tolist()
    c1 = np.maximum.reduceat(np.where(some, last[:end] + 1, 0), starts).tolist()
    cuts, left, right = [0], c0[0], c1[0]  # the groups that start a block, and the columns it reaches
    for k in range(1, len(c0)):
        left, right = min(left, c0[k]), max(right, c1[k])
        if (k + 1 - cuts[-1]) * per * (right - left) * cell > _BLOCK_BYTES:
            cuts.append(k)
            left, right = c0[k], c1[k]
    los = [k * per for k in cuts]
    frames = [(lo, hi, min(c0[g0:g1]), max(c1[g0:g1]))
              for lo, hi, g0, g1 in zip(los, los[1:] + [end], cuts, cuts[1:] + [len(c0)])]
    blocks = []
    for a, b in _runs(np.add.reduceat(count[:end], los)):
        blocks += _slots(frames[a:b], candidates, rep, comb(d, width))
    # the result rows by rank: each block's are its distinct ranks
    ranks = np.concatenate([block[4] for block in blocks])
    distinct = np.sort(ranks)
    distinct = distinct[_edges(distinct)[:-1]]
    tgt = np.searchsorted(distinct, ranks).astype(np.int32 if len(distinct) < 2**31 else np.intp)
    ends = list(accumulate(len(block[4]) for block in blocks))
    blocks = [(*block[:4], tgt[e - len(block[4]) : e], *block[5:]) for block, e in zip(blocks, ends)]
    return _rows_of(distinct, d, width), tuple(blocks)


def _edges(key: np.ndarray) -> np.ndarray:
    """Where a sorted ``key`` starts each run of equal entries, then its length."""
    edge = np.empty(len(key) + 1, bool)
    edge[0] = edge[-1] = True
    np.not_equal(key[1:], key[:-1], out=edge[1:-1])
    return edge.nonzero()[0]


def _order(key: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """``argsort(key, kind="stable")`` and the sorted ``key``, for keys under ``bound``: where
    it fits in int64, one unstable sort of ``key`` made distinct by position in its low bits,
    which orders it the same."""
    n, bits = len(key), len(key).bit_length()
    if bound << bits <= 2**63:
        key = np.sort(key << bits | np.arange(n))
        return key & ((1 << bits) - 1), key >> bits
    order = np.argsort(key, kind="stable")
    return order, key[order]


def _slots(frames: list, candidates: Callable, rep: int, n_rank: int) -> list:
    """The blocks ``frames`` of :func:`_jagged` laid out in one step, with result ranks for rows."""
    lo, hi, c0, c1 = np.array(frames).T
    row, col, rank, weight = candidates(lo[0], hi[-1])
    which = np.arange(len(frames)).repeat(hi - lo)  # each row's block
    base = (np.arange(lo[0], hi[-1]) - lo[which]) * rep * (c1 - c0)[which] - c0[which]
    row = row - lo[0]
    src = base[row] + col
    src = src.astype(np.int32 if src.max() < 2**31 else np.intp)
    del col
    # groups: the candidates of one block and result row, in their order
    bound = len(frames) * n_rank
    order, key = _order((which if bound < 2**63 else which.astype(object))[row] * n_rank + rank, bound)
    del row, rank
    edges = _edges(key)
    heads, counts = edges[:-1], edges[1:] - edges[:-1]
    slot = np.arange(len(key)) - heads.repeat(counts)
    key = key[heads]
    blk, rank = key // n_rank, key % n_rank
    edges = _edges(blk)
    firsts, sizes = edges[:-1], edges[1:] - edges[:-1]  # each block's first group, and its groups
    # per block the groups with most candidates first, ties in result-row order
    within, most = np.arange(len(firsts)).repeat(sizes), int(counts.max()) + 1
    by, _ = _order(within * most + most - 1 - counts, len(firsts) * most)
    place = np.empty(len(heads), np.intp)
    place[by] = np.arange(len(heads))
    place -= firsts[within]
    # slot s of a block follows its slots under s: its candidates take the places
    # ``before[block, s] + place``
    depth = counts[by[firsts]]
    unit = (np.cumsum(depth) - depth)[within].repeat(counts) + slot
    hist = np.bincount(unit, minlength=depth.sum())
    before = np.cumsum(hist) - hist
    at = np.empty_like(order)
    at[before[unit] + place.repeat(counts)] = order
    out_src, out_weight = src[at], weight[at]
    rank, before, blocks, unit = rank[by], before.tolist(), [], 0
    starts = heads[firsts].tolist() + [len(at)]
    for k, g0, size, deep, s, e in zip(blk[firsts].tolist(), firsts.tolist(), sizes.tolist(), depth.tolist(),
                                        starts, starts[1:]):
        cuts = [x - s for x in before[unit : unit + deep]] + [e - s]
        blocks.append((*frames[k], rank[g0 : g0 + size], cuts, out_src[s:e], out_weight[s:e]))
        unit += deep
    return blocks


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
    where the rows agree, else in the union of the rows, found by their ranks (rows of one
    rank are equal).  Only a ``minus`` part of a degree not met before is negated into a copy."""
    out: dict[int, _Part] = {}
    for op, group in ((np.add, parts), (np.subtract, minus)):
        for rows, coefs in filter(None, group):
            mine = out.pop(rows.shape[1], None)
            if mine is None:
                part = (rows, coefs if op is np.add else -coefs)
            elif mine[0].shape == rows.shape and (mine[0] == rows).all():
                part = _nonzero(rows, op(mine[1], coefs))
            else:
                cat, p = np.concatenate([mine[0], rows]), rows.shape[1]
                ranks = comb(basis.dim, p) - 1 - _rank_table(basis.dim, p)[cat, np.arange(p)].sum(axis=1)
                _, first, tgt = np.unique(ranks, return_index=True, return_inverse=True)
                both = np.zeros((len(first),) + coefs.shape[1:], dtype=complex)
                both[tgt[: len(mine[0])]] = mine[1]
                op.at(both, tgt[len(mine[0]) :], coefs)
                part = _nonzero(cat[first], both)
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

    def __add__(self, other: "DerForm") -> "DerForm":
        _require_same_basis(self.basis, other.basis)
        return _sum(self.basis, [*self._parts.values(), *other._parts.values()])

    def __sub__(self, other: "DerForm") -> "DerForm":
        _require_same_basis(self.basis, other.basis)
        return _sum(self.basis, self._parts.values(), other._parts.values())

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
    d, n, (p, q) = basis.dim, basis.n, (rows1.shape[1], rows2.shape[1])
    memb1, memb2 = _membership(rows1, d), _membership(rows2, d)
    shared, below2, table = memb2.T.astype(np.float32), _below(memb2), _rank_table(d, p + q)
    by_place1, by_place2 = np.ascontiguousarray(rows1.T), np.ascontiguousarray(rows2.T)

    def apart(a: int, b: int) -> np.ndarray:  # the pairs of rows a..b sharing no index
        return memb1[a:b].astype(np.float32) @ shared == 0

    count, first, last = (np.zeros(len(rows1), np.intp) for _ in range(3))
    for a, b in _runs(np.full(len(rows1), len(rows2))):
        x = apart(a, b)
        count[a:b], first[a:b] = x.sum(axis=1), x.argmax(axis=1)
        last[a:b] = len(rows2) - 1 - x[:, ::-1].argmax(axis=1)

    def candidates(a: int, b: int) -> tuple:
        i, j = apart(a, b).nonzero()
        k, l = np.take(by_place1, a + i, axis=1), np.take(by_place2, j, axis=1)
        # the places of K ⧺ L sorted: each index of one row moves past those of the other under it
        under, over = below2.ravel()[j * d + k], _below(memb1[a:b]).ravel()[i * d + l]
        flat, width = table.ravel(), p + q
        ranked = flat[k * width + under + np.arange(p)[:, None]].sum(axis=0)
        ranked += flat[l * width + over + np.arange(q)[:, None]].sum(axis=0)
        sign = (1 - 2 * (under.sum(axis=0) & 1)).astype(np.int8)
        return a + i, j, comb(d, p + q) - 1 - ranked, sign

    # a_i b_j is the n units of n entries at (i·n + [0, n))·C + j of a block's GEMM output
    return _jagged(count, first, last, len(rows2), n * n * 16, n, candidates, d, p + q)


def dprime(w: DerForm) -> DerForm:
    """The differential, built from its action on generators; a block's table
    row ``r·(D+1) + k`` is ``[iE_k, a_r]`` for ``k < D`` and ``a_r`` for ``k = D``."""
    parts = [_apply(_dprime_plan, w.basis, (r,), a, w.basis.ad_table)
             for r, a in w._parts.values() if r.shape[1] < w.basis.dim]  # d′ of top degree is 0
    return _sum(w.basis, parts)


def _dprime_plan(basis: MatrixBasis, rows: np.ndarray) -> tuple:
    """The coefficient part by its new index ``k``, then the frame part."""
    d, n, p = basis.dim, basis.n, rows.shape[1]
    # the terms of d'θ^k = −Σ_{l<m} C[l, m, k] θ^l θ^m, k by k
    pairs, values, bounds = basis.structure_terms
    memb, table, top = _membership(rows, d), _rank_table(d, p + 1), comb(d, p + 1) - 1
    sizes = (bounds[rows + 1] - bounds[rows]).sum(axis=1)  # each row's frame terms, free or not

    def frame(a: int, b: int) -> tuple:
        """Frame part of rows a..b: θ^{k_i} ↦ −Σ_{l<m} C[l, m, k_i] θ^l θ^m at place i,
        where l and m stay out of K∖{k_i}, but either may be k_i: each term's row
        (from a), place, entry of the k_i terms, and k_i; found for about ``_CHUNK``
        terms at a time."""
        found = []
        for a0, b0 in _runs(sizes[a:b]):
            k = rows[a + a0 : a + b0].ravel()
            owner, e = _ragged(bounds[k], bounds[k + 1] - bounds[k])
            (r, i), (l, m), k = np.divmod(owner, max(p, 1)), np.take(pairs, e, axis=1), k[owner]
            flat = memb[a + a0 : a + b0].ravel()
            free = ((l == k) | ~flat[r * d + l]) & ((m == k) | ~flat[r * d + m])
            found.append((r[free] + a0, i[free], e[free], k[free]))
        return found[0] if len(found) == 1 else tuple(np.concatenate(x) for x in zip(*found))

    # each row reaches the k outside it, and column d when it has frame terms: its count
    # and span are read before the free test, so they bound what the candidates reach
    first = (~memb).argmax(axis=1)
    last = np.where(sizes > 0, d, d - 1 - (~memb[:, ::-1]).argmax(axis=1))

    def sums(rows_: np.ndarray, shifts: int) -> np.ndarray:
        """``sums[s, ..., t] = Σ_{x<t} table[rows_[..., x], x + s]`` for ``s < shifts``."""
        x = np.arange(rows_.shape[-1]) + np.arange(shifts).reshape((-1,) + (1,) * rows_.ndim)
        out = np.zeros((shifts,) + rows_.shape[:-1] + (rows_.shape[-1] + 1,), table.dtype)
        np.cumsum(table[rows_, x], axis=-1, out=out[..., 1:])
        return out

    def candidates(a: int, b: int) -> tuple:
        rows_, below = rows[a:b], _below(memb[a:b]).ravel()
        # coefficient part: [iE_k, a_r] θ^k ∧ θ^K for k outside K, signed by the place
        # j of k in the sorted row; K keeps its places before j and moves up after
        k, r0 = (~memb[a:b].T).nonzero()
        j = below[r0 * d + k]
        before, after = sums(rows_, 2)
        split = (before - after + after[:, -1:]).ravel()
        rank0 = top - split[r0 * (p + 1) + j] - table.ravel()[k * (p + 1) + j]
        sign = np.where(j & 1, -1.0, 1.0)
        # frame part: signed (−1)^i and by the swaps sorting l, m in: l lands at place
        # u of K' = K∖{k_i}, m at v + 1, and K' moves up by 0, 1, 2 past them
        r1, i, e, ki = frame(a, b)
        (l, m), ri = np.take(pairs, e, axis=1), r1 * p + i
        u, v = below[r1 * d + l] - (ki < l), below[r1 * d + m] - (ki < m)
        weight = np.where((i + u + v) & 1, values[e], -values[e])
        del i, e, ki
        x = np.arange(max(p - 1, 0))
        s0, s1, s2 = sums(rows_[:, x + (x >= np.arange(p)[:, None])], 3)  # over K' for each i
        ranked = (s0 - s1).ravel()[ri * p + u] + (s1 - s2).ravel()[ri * p + v] + s2[:, :, -1].ravel()[ri]
        ranked += table.ravel()[l * (p + 1) + u] + table.ravel()[m * (p + 1) + v + 1]
        del l, m, u, v, ri
        return (np.concatenate([r0, r1]) + a, np.concatenate([k, np.full(len(r1), d)]),
                np.concatenate([rank0, top - ranked]), np.concatenate([sign, weight]))

    return _jagged(d - p + sizes, first, last, d + 1, n * n * 16, 1, candidates, d, p + 1)


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
    reach = _membership(rows, d).astype(np.float32) @ (g_inv != 0).astype(np.float32) > 0
    sizes, table = reach.sum(axis=1), _rank_table(d, p)

    def candidates(a: int, b: int) -> tuple:
        src, ls = [], []
        for s in sorted(set(sizes[a:b].tolist())):  # rows reaching s columns share one pattern of L
            pick = np.array(list(combinations(range(s), p)), dtype=np.intp).reshape(comb(s, p), p)
            group = a + (sizes[a:b] == s).nonzero()[0]
            reached = reach[group].nonzero()[1].reshape(len(group), s)
            ls.append(reached[:, pick].reshape(len(group) * len(pick), p))
            src.append(np.repeat(group, len(pick)))
        src, ls = np.concatenate(src), np.concatenate(ls)
        minors = np.linalg.det(g_inv[rows[src][:, :, None], ls[:, None, :]])
        weight = basis.sqrt_g_det * (-1.0) ** (ls.sum(axis=1) - p * (p - 1) // 2) * minors
        # the complement M of L ranks C(d, p) − 1 − rank(L): complements run in reverse order
        ranked = table[ls, np.arange(p)].sum(axis=1)
        return src, np.zeros_like(src), ranked, weight

    counts = _binomials(d + 1, p, comb(d, p))[sizes]
    return _jagged(counts, np.zeros_like(sizes), np.zeros_like(sizes), 1, 1, 1, candidates, d, d - p)


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
