"""Finite-dimensional spectral triples: axioms, fluctuations, products.

A finite spectral triple is a represented algebra on ℂ^dim together
with a self-adjoint Dirac operator, optionally a chirality ``γ`` (even
case) and an antiunitary reality operator ``J``, encoded as a unitary
followed by entrywise conjugation.  The KO-dimension (an integer mod 8)
fixes the expected signs (ε, ε′, ε″) in

    J² = ε,    JD = ε′ DJ,    Jγ = ε″ γJ

through the standard eight-row table.  ``check_axioms`` verifies every
applicable condition with a residual per line — including the
commutant (zeroth-order) and first-order conditions — and never
raises: failures are data.

The two-point model (algebra ℂ⊕ℂ on ℂ^N⊕ℂ^N with an off-diagonal mass
block M) is built in, with its gauge sector: universal one-forms
represent as off-diagonal operators, curvature as a Higgs-type
potential with minima on the unit circle |φ| = 1.

A structural caveat stated here once and assumed throughout: on the
two-point triple, every antiunitary J whose signs land on the
KO-dimension-0 row acts within the two summands, and the first-order
condition then forces the mass block to vanish.  ``two_point_triple``
therefore ships with entrywise conjugation as J — all sign axioms hold
for real M — while the first-order report line is green exactly when
M = 0.  Nothing is hidden: the line is computed and reported for every
M.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property
from math import sqrt

import numpy as np

from .basis import complex_record, dagger, frob_norm, from_complex_record, frozen, is_hermitian
from .errors import (
    ConfigError,
    DegreeError,
    MissingStructureError,
    NotHermitianError,
    NotUnitaryError,
    ShapeError,
)
from .tolerances import TAU_ALG, Check, CheckReport
from .universal import UniversalForm, duniv, uproduct

__all__ = [
    "KO_TABLE",
    "RealStructure",
    "FiniteSpectralTriple",
    "check_axioms",
    "represent_form",
    "fluctuate",
    "InnerGaugeResult",
    "inner_gauge",
    "product_triple",
    "trivial_triple",
    "two_point_triple",
    "two_point_action",
    "fermionic_pairing",
    "quaternion",
    "sm_represent",
    "sm_reality",
    "SMFixture",
    "sm_algebra_fixture",
    "triple_to_json",
    "triple_from_json",
]

#: KO-dimension sign table, rows indexed by the dimension mod 8 as
#: (ε, ε′, ε″); ε″ is None in odd dimensions (no chirality constraint).
KO_TABLE: dict[int, tuple[int, int, int | None]] = {
    0: (1, 1, 1),
    1: (1, -1, None),
    2: (-1, 1, -1),
    3: (-1, 1, None),
    4: (-1, 1, 1),
    5: (-1, -1, None),
    6: (1, 1, -1),
    7: (1, 1, None),
}


@dataclass(frozen=True)
class RealStructure:
    """Antiunitary operator ``J(v) = U · conj(v)``."""

    u: np.ndarray

    def __post_init__(self) -> None:
        u = frozen(self.u)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ShapeError("real-structure matrix must be square")
        object.__setattr__(self, "u", u)

    @property
    def dim(self) -> int:
        return self.u.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.u @ np.conjugate(np.asarray(v, dtype=complex))

    @cached_property
    def u_inv(self) -> np.ndarray:
        """U⁻¹, read-only: the true inverse, even of a non-unitary U; all NaN where
        the inverse fails (a singular or NaN U), so every product with it fails."""
        try:
            return frozen(np.linalg.inv(self.u))
        except np.linalg.LinAlgError:
            return frozen(np.full(self.u.shape, np.nan + 0j))

    def conjugate_operator(self, x: np.ndarray) -> np.ndarray:
        """``J X J⁻¹``, of each matrix of a stack ``x`` too."""
        return self.u @ np.conjugate(x) @ self.u_inv

    def squared(self) -> np.ndarray:
        """The matrix of J², ``U·conj(U)``."""
        return self.u @ np.conjugate(self.u)


@dataclass(frozen=True)
class FiniteSpectralTriple:
    """Represented algebra generators, Dirac operator, and the optional
    even/real structure.  Construction checks shapes only — axiom
    content is the business of :func:`check_axioms`, so deliberately
    broken triples can be built and diagnosed."""

    generators: tuple[np.ndarray, ...]
    d: np.ndarray
    gamma: np.ndarray | None = None
    j: RealStructure | None = None
    ko_dim: int | None = None
    algebra: str = ""

    def __post_init__(self) -> None:
        d = frozen(self.d)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ShapeError("Dirac operator must be a square matrix")
        dim = d.shape[0]
        gens = tuple(frozen(g) for g in self.generators)
        if any(g.shape != (dim, dim) for g in gens):
            raise ShapeError("every generator must match the Hilbert dimension")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "d", d)
        if self.gamma is not None:
            gamma = frozen(self.gamma)
            if gamma.shape != (dim, dim):
                raise ShapeError("chirality must match the Hilbert dimension")
            object.__setattr__(self, "gamma", gamma)
        if self.j is not None and self.j.dim != dim:
            raise ShapeError("real structure must match the Hilbert dimension")
        if self.ko_dim is not None:
            if isinstance(self.ko_dim, (bool, np.bool_)) or self.ko_dim % 1:
                raise ConfigError(f"KO-dimension must be an integer, got {self.ko_dim!r}")
            object.__setattr__(self, "ko_dim", int(self.ko_dim) % 8)

    @property
    def hilbert_dim(self) -> int:
        return self.d.shape[0]

    def _signs(self) -> tuple[int, int, int | None]:
        if self.ko_dim is None:
            raise MissingStructureError("triple declares no KO-dimension")
        return KO_TABLE[self.ko_dim]

    @property
    def eps(self) -> int:
        return self._signs()[0]

    @property
    def eps_p(self) -> int:
        return self._signs()[1]

    @property
    def eps_pp(self) -> int | None:
        return self._signs()[2]


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------

#: complex entries of one product tile: its two products stay in cache
#: and are formed in the same two buffers from tile to tile
_TILE = 1 << 14


def _blocks(adjacency: np.ndarray) -> list[np.ndarray]:
    """The connected components of a symmetric boolean adjacency matrix, as
    one ``(count, size)`` array of indices per component size.  Sets the
    diagonal of ``adjacency``."""
    n = len(adjacency)
    if not n:
        return []
    np.fill_diagonal(adjacency, True)
    label = adjacency.argmax(axis=1)  # the least neighbour
    while True:  # each index takes its neighbours' least label, then that label's own
        least = np.where(adjacency, label, n).min(axis=1)
        least = least[least]
        if (least == label).all():
            break
        label = least
    size = np.bincount(label, minlength=n)[label]
    order = np.lexsort((label, size))  # by component size, then component, then index
    blocks, start = [], 0
    for s, count in enumerate(np.bincount(size).tolist()):  # count: indices in blocks of size s
        if count:
            blocks.append(order[start:start + count].reshape(-1, s))
            start += count
    return blocks


def _block_stack(z: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``[g, p, i, j] = z[p, idx[g, i], idx[g, j]]``, contiguous; a block of
    every index is ``z`` itself."""
    if idx.shape[1] == z.shape[1]:
        return z[None]
    return np.ascontiguousarray(z[:, idx[:, :, None], idx[:, None, :]].swapaxes(0, 1))


def _add_squared_commutators(sq: np.ndarray, x: np.ndarray, y: np.ndarray, idx: np.ndarray,
                             tiles: np.ndarray) -> None:
    """Add ``‖x_p y_q − y_q x_p‖²`` over the diagonal blocks ``idx``, a
    ``(count, s)`` index array, to ``sq[p, q]`` for the stacks ``x`` and ``y``,
    forming the products in the two ``tiles``.

    A tile holds ``kx·ky`` pairs.  Per block, both orders come from GEMMs of
    one shape ``(kx·s × s)(s × ky·s)`` with ``x`` on the left: ``x y``
    directly and ``y x`` transposed, as ``xᵀ yᵀ``.  On the commutant of the
    ℂ ⊕ ℍ ⊕ M₃(ℂ) fixture this keeps the residual exactly 0, where GEMMs of
    two shapes left roundoff."""
    (count, s), (nx, ny) = idx.shape, sq.shape
    xb, yb = _block_stack(x, idx), _block_stack(y, idx)
    pairs = max(1, len(tiles[0]) // (count * s * s))
    ky = max(1, min(ny, pairs))  # all of y per tile where it fits: each x member is copied once
    kx = max(1, min(nx, pairs // ky))
    for b in range(0, ny, ky):
        kb = min(ky, ny - b)
        y_rows = yb[:, b:b + kb].reshape(count, kb * s, s)  # [g, (q, i), j]
        y_cols = yb[:, b:b + kb].transpose(0, 2, 1, 3).reshape(count, s, kb * s)  # [g, j, (q, k)]
        for a in range(0, nx, kx):
            ka = min(kx, nx - a)
            x_rows = xb[:, a:a + ka].reshape(count, ka * s, s)
            x_cols = xb[:, a:a + ka].transpose(0, 2, 1, 3).reshape(count, s, ka * s)
            xy, yx = tiles[:, :count * ka * s * kb * s].reshape(2, count, ka * s, kb * s)
            np.matmul(x_rows, y_cols, out=xy)
            np.matmul(x_cols.swapaxes(1, 2), y_rows.swapaxes(1, 2), out=yx)
            shape = (count, ka, s, kb, s)  # [g, p, i, q, k]; yx holds [g, p, k, q, i]
            diff = np.subtract(xy.reshape(shape), yx.reshape(shape).transpose(0, 1, 4, 3, 2),
                               out=xy.reshape(shape)).view(float)
            sq[a:a + ka, b:b + kb] += np.einsum("gpiqk,gpiqk->pq", diff, diff)


def _order_residuals(conj_gens: np.ndarray, gens: np.ndarray, d: np.ndarray) -> tuple[float, float]:
    """The largest zeroth-order residual ``‖[JaJ⁻¹, b]‖`` and first-order
    residual ``‖[[D, b], JaJ⁻¹]‖`` over all pairs of generators ``a, b``,
    given as stacks ``conj_gens`` of the ``JaJ⁻¹`` and ``gens`` of the ``b``.

    Every operand is block diagonal over the connected components of their
    joint support (a NaN or an infinity counts as support), so every
    commutator vanishes outside those blocks and its squared norm is the sum
    of its blocks'.  The first-order rows of each ``b`` with ``[D, b] = 0``
    are 0 and skipped exactly; with ``D = 0`` no ``[D, b]`` is formed."""
    na, nb = len(conj_gens), len(gens)
    y = gens  # the b, then the nonzero [D, b]
    if d.any():
        db = d @ gens
        db -= gens @ d
        y = np.concatenate([gens, db[db.any(axis=(1, 2))]])
    support = conj_gens.any(axis=0) | y.any(axis=0)
    sq = np.zeros((na, len(y)))
    blocks = _blocks(support | support.T)
    # room for the largest tile: every pair of the largest group, up to _TILE, and one pair at least
    largest = max((idx.size * idx.shape[1] for idx in blocks), default=0)
    tiles = np.empty((2, min(max(_TILE, largest), largest * sq.size)), dtype=complex)
    for idx in blocks:
        _add_squared_commutators(sq, conj_gens, y, idx, tiles)
    return sqrt(sq[:, :nb].max(initial=0.0)), sqrt(sq[:, nb:].max(initial=0.0))


def check_axioms(t: FiniteSpectralTriple) -> CheckReport:
    """Verify every applicable axiom; residuals are Frobenius norms.

    Lines (in order, skipping structures the triple does not carry):
    Dirac self-adjointness; chirality self-adjointness, involutivity,
    commutation with the algebra, anticommutation with the Dirac
    operator; antiunitarity of the reality encoding and the three
    KO signs; the zeroth-order (commutant) and first-order conditions
    over all generator pairs, formed block by block over the connected
    components of the operators' joint support: Na·Nb·Σ s³ multiply-adds
    per order line and product order, for blocks of size s, the
    first-order rows of each ``b`` with ``[D, b] = 0`` skipped exactly.

    A line passes when its residual is at most ``TAU_ALG`` times the product
    of the Frobenius norms of the operators it is built from, so the
    verdict does not change when an operator is rescaled.
    """
    lines: list[Check] = []

    def add(name: str, residual: float, scale: float, note: str = "") -> None:
        lines.append(Check(name, residual, TAU_ALG, scale, note))

    d = t.d
    dim = t.hilbert_dim
    eye = np.eye(dim)
    d_norm = frob_norm(d)
    gens = np.array(t.generators, dtype=complex).reshape(len(t.generators), dim, dim)
    gen_norm = np.array([frob_norm(g) for g in gens]).max(initial=0.0)  # unlike max, keeps a NaN
    add("dirac_self_adjoint", frob_norm(d - dagger(d)), d_norm)

    if t.gamma is not None:
        gam = t.gamma
        gam_norm = frob_norm(gam)
        add("chirality_self_adjoint", frob_norm(gam - dagger(gam)), gam_norm)
        add("chirality_squares_to_one", frob_norm(gam @ gam - eye), gam_norm**2)
        res = np.array([frob_norm(c) for c in gam @ gens - gens @ gam]).max(initial=0.0)
        add("chirality_commutes_algebra", res, gam_norm * gen_norm)
        add("chirality_anticommutes_dirac", frob_norm(gam @ d + d @ gam), gam_norm * d_norm)

    if t.j is not None:
        u = t.j.u
        u_sq = frob_norm(u) ** 2
        add("reality_antiunitary", frob_norm(dagger(u) @ u - eye), u_sq)
        if t.ko_dim is not None:
            eps, eps_p, eps_pp = KO_TABLE[t.ko_dim]
            add(
                "reality_squares_sign",
                frob_norm(t.j.squared() - eps * eye),
                u_sq,
                f"expect J^2 = {eps:+d}",
            )
            add(
                "reality_dirac_sign",
                frob_norm(t.j.conjugate_operator(d) - eps_p * d),
                u_sq * d_norm,
                f"expect JD = {eps_p:+d} DJ",
            )
            if t.gamma is not None and eps_pp is not None:
                add(
                    "reality_chirality_sign",
                    frob_norm(t.j.conjugate_operator(t.gamma) - eps_pp * t.gamma),
                    u_sq * frob_norm(t.gamma),
                    f"expect Jgamma = {eps_pp:+d} gammaJ",
                )
        conj_gens = t.j.conjugate_operator(gens)
        conj_norm = np.array([frob_norm(a) for a in conj_gens]).max(initial=0.0)
        res0, res1 = _order_residuals(conj_gens, gens, d)
        add("zeroth_order", res0, conj_norm * gen_norm)
        add("first_order", res1, d_norm * gen_norm * conj_norm)

    return CheckReport("spectral_axioms", lines)


# ---------------------------------------------------------------------------
# representing universal forms
# ---------------------------------------------------------------------------

def _point_projections(t: FiniteSpectralTriple, size: int) -> tuple[np.ndarray, ...]:
    """The triple's generators, as the indicator functions of ``size`` points."""
    projs = t.generators
    if len(projs) != size:
        raise ShapeError(f"need {size} point projections, got {len(projs)}")
    total = sum(projs)
    if not frob_norm(total - np.eye(t.hilbert_dim)) <= TAU_ALG * t.hilbert_dim:  # NaN fails too
        raise ShapeError(
            "point projections must sum to the identity (indicator functions of the points)"
        )
    return projs


def represent_form(t: FiniteSpectralTriple, omega: UniversalForm) -> np.ndarray:
    """Represent a universal form over a finite point set on the triple as
    one operator on its Hilbert space:

        a₀ d_U a₁ ⋯ d_U a_p  ↦  π(a₀) [D, π(a₁)] ⋯ [D, π(a_p)],

    computed through the chain decomposition of ``omega`` in terms of
    the point-indicator functions, the triple's generators, which must
    resolve the identity.  Degrees 0–2 only; this is a linear
    representation of individual forms, not an algebra map — products
    may pick up junk beyond degree guarantees.
    """
    if omega.degree > 2:
        raise DegreeError(f"degrees above 2 are not supported, got {omega.degree}")
    projs = _point_projections(t, omega.size)
    d = t.d
    comms = [d @ p - p @ d for p in projs]
    out = np.zeros((t.hilbert_dim, t.hilbert_dim), dtype=complex)
    values = omega.values
    for idx in zip(*np.nonzero(values)):
        term = projs[idx[0]].copy()
        for point in idx[1:]:
            term = term @ comms[point]
        out += values[idx] * term
    return out


def fluctuate(t: FiniteSpectralTriple, a: np.ndarray) -> FiniteSpectralTriple:
    """Inner fluctuation ``D ↦ D + A + ε′ J A J⁻¹`` for a self-adjoint
    gauge potential A (checked); the result is again self-adjoint and
    every non-Dirac axiom is untouched."""
    if t.j is None:
        raise MissingStructureError("fluctuation needs a real structure")
    a = np.asarray(a, dtype=complex)
    if a.shape != (t.hilbert_dim, t.hilbert_dim):
        raise ShapeError("gauge potential must match the Hilbert dimension")
    if not is_hermitian(a):
        raise NotHermitianError("gauge potential must be self-adjoint")
    return replace(t, d=_fluctuation(t, a))


def _fluctuation(t: FiniteSpectralTriple, a: np.ndarray) -> np.ndarray:
    """The fluctuated Dirac operator ``D + A + ε′ J A J⁻¹``."""
    return t.d + a + t.eps_p * t.j.conjugate_operator(a)


@dataclass(frozen=True)
class InnerGaugeResult:
    """Two computations of the gauge-transformed fluctuated Dirac
    operator, through the transformed potential and through the
    transformed universal form, and the ``"inner_gauge"`` report on them."""

    d_transformed: np.ndarray
    d_from_form: np.ndarray
    report: CheckReport

    # read-only views of the report's lines, under the names the benchmark reads
    match = property(lambda self: self.report.line("route_coincidence").passed)
    max_diff = property(lambda self: self.report.line("route_coincidence").residual)
    gamma_invariant = property(lambda self: self.report.line("gamma_invariant").passed)
    j_invariant = property(lambda self: self.report.line("j_invariant").passed)


def inner_gauge(
    t: FiniteSpectralTriple, u_values: np.ndarray, omega: UniversalForm
) -> InnerGaugeResult:
    """Check the coincidence of the two gauge-transformation routes for
    a unitary algebra element ``u`` (one unit-modulus value per point)
    and a universal one-form ``omega``.

    Route one transforms the represented potential,
    ``A ↦ π(u) A π(u)* + π(u) [D, π(u)*]``, and refluctuates; route two
    transforms the form itself, ``ω ↦ u ω u* + u d_U u*``, and re-runs
    representation + fluctuation.  The two agree identically — the
    identity is pure algebra, so it holds whether or not the triple
    satisfies the order conditions.  The report's lines are
    ``route_coincidence``, held to ``‖D₁‖``, and ``gamma_invariant`` and
    ``j_invariant``: γ and J under the implementing inner unitary
    ``U = π(u) J π(u) J⁻¹``, each held to its own norm.
    """
    if omega.degree != 1:
        raise DegreeError("gauge potentials are one-forms")
    if t.j is None:
        raise MissingStructureError("inner gauge transformations need a real structure")
    u_values = np.asarray(u_values, dtype=complex)
    if u_values.shape != (omega.size,):
        raise ShapeError(f"need {omega.size} unitary values, got shape {u_values.shape}")
    if not np.max(np.abs(np.abs(u_values) - 1.0)) <= TAU_ALG:  # NaN fails too
        raise NotUnitaryError("algebra element must have unit modulus at every point")

    projs = _point_projections(t, omega.size)
    pi_u = sum(u_values[x] * projs[x] for x in range(omega.size))
    pi_u_star = dagger(pi_u)
    d = t.d

    # route one: transform the operator-level potential
    a = represent_form(t, omega)
    a_u = pi_u @ a @ pi_u_star + pi_u @ (d @ pi_u_star - pi_u_star @ d)
    d1 = _fluctuation(t, a_u)

    # route two: transform the universal form, then represent
    f_u = UniversalForm(omega.size, 0, u_values)
    omega_u = uproduct(uproduct(f_u, omega), f_u.star()) + uproduct(
        f_u, duniv(f_u.star())
    )
    d2 = _fluctuation(t, represent_form(t, omega_u))

    big_u = pi_u @ t.j.conjugate_operator(pi_u)
    gamma = np.zeros_like(d) if t.gamma is None else t.gamma
    return InnerGaugeResult(d1, d2, CheckReport("inner_gauge", [
        Check("route_coincidence", frob_norm(d1 - d2), TAU_ALG, frob_norm(d1)),
        Check("gamma_invariant", frob_norm(big_u @ gamma @ dagger(big_u) - gamma), TAU_ALG,
              frob_norm(gamma)),
        Check("j_invariant", frob_norm(big_u @ t.j.u @ big_u.T - t.j.u), TAU_ALG, frob_norm(t.j.u)),
    ]))


# ---------------------------------------------------------------------------
# products and model builders
# ---------------------------------------------------------------------------

def product_triple(
    t1: FiniteSpectralTriple, t2: FiniteSpectralTriple
) -> FiniteSpectralTriple:
    """Even real product: ``D = D₁⊗1 + γ₁⊗D₂``, ``γ = γ₁⊗γ₂``,
    ``J = J₁⊗J₂``, KO-dimensions adding mod 8."""
    for t in (t1, t2):
        if t.gamma is None or t.j is None:
            raise MissingStructureError("product factors must both be even and real")
        if t.ko_dim is None:
            raise MissingStructureError("product factors must declare KO-dimensions")
    eye1 = np.eye(t1.hilbert_dim)
    eye2 = np.eye(t2.hilbert_dim)
    gens = tuple(np.kron(g, eye2) for g in t1.generators) + tuple(
        np.kron(eye1, g) for g in t2.generators
    )
    d = np.kron(t1.d, eye2) + np.kron(t1.gamma, t2.d)
    return FiniteSpectralTriple(
        generators=gens,
        d=d,
        gamma=np.kron(t1.gamma, t2.gamma),
        j=RealStructure(np.kron(t1.j.u, t2.j.u)),
        ko_dim=(t1.ko_dim + t2.ko_dim) % 8,
        algebra=f"({t1.algebra}) x ({t2.algebra})" if t1.algebra and t2.algebra else "",
    )


def trivial_triple() -> FiniteSpectralTriple:
    """The unit for the product: ℂ on ℂ with D = 0, γ = 1, J = conj."""
    return FiniteSpectralTriple(
        generators=(np.eye(1, dtype=complex),),
        d=np.zeros((1, 1), dtype=complex),
        gamma=np.eye(1, dtype=complex),
        j=RealStructure(np.eye(1, dtype=complex)),
        ko_dim=0,
        algebra="C",
    )


def two_point_triple(n_points_dim: int, m: np.ndarray) -> FiniteSpectralTriple:
    """Two-point model: ℂ⊕ℂ on ℂ^N⊕ℂ^N, Dirac ``[[0, M†], [M, 0]]``,
    chirality ``diag(1, −1)``, reality = entrywise conjugation, declared
    KO-dimension 0.

    All sign axioms hold when M is real.  The first-order condition
    holds exactly when M = 0; for M ≠ 0 it fails for *every* antiunitary
    compatible with the KO-0 signs (see the module docstring), and the
    report says so rather than papering over it.
    """
    big_n = int(n_points_dim)
    if big_n < 1:
        raise ShapeError("the per-point dimension must be at least 1")
    m = np.asarray(m, dtype=complex)
    if m.shape != (big_n, big_n):
        raise ShapeError(f"mass block must be {big_n}x{big_n}, got {m.shape}")
    p0 = np.diag(np.repeat([1.0 + 0j, 0j], big_n))
    p1 = np.diag(np.repeat([0j, 1.0 + 0j], big_n))
    gamma = np.eye(2 * big_n, dtype=complex)
    gamma[big_n:, big_n:] = -gamma[big_n:, big_n:]
    d = np.zeros_like(gamma)
    d[:big_n, big_n:], d[big_n:, :big_n] = dagger(m), m
    return FiniteSpectralTriple(
        generators=(p0, p1),
        d=d,
        gamma=gamma,
        j=RealStructure(np.eye(2 * big_n, dtype=complex)),
        ko_dim=0,
        algebra="C (+) C",
    )


def two_point_action(phi: complex, m: np.ndarray) -> float:
    """Higgs-type action of the two-point model,
    ``2 (|φ|² − 1)² tr((M†M)²)`` — the trace of the squared represented
    curvature; zero exactly on the unit circle."""
    m = np.asarray(m, dtype=complex)
    mm = dagger(m) @ m
    factor = (abs(phi) ** 2 - 1.0) ** 2
    return float(2.0 * factor * np.real(np.trace(mm @ mm)))


def fermionic_pairing(t: FiniteSpectralTriple, psi: np.ndarray) -> complex:
    """⟨ψ, Dψ⟩ — the fermionic bilinear; real for self-adjoint D."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (t.hilbert_dim,):
        raise ShapeError(
            f"state must be a vector of length {t.hilbert_dim}, got shape {psi.shape}"
        )
    return complex(np.vdot(psi, t.d @ psi))


# ---------------------------------------------------------------------------
# the C (+) H (+) M3(C) fixture
# ---------------------------------------------------------------------------

def quaternion(alpha: complex, beta: complex) -> np.ndarray:
    """Quaternion as a 2×2 complex matrix ``[[α, β], [−conj β, conj α]]``."""
    return np.array(
        [[alpha, beta], [-np.conjugate(beta), np.conjugate(alpha)]], dtype=complex
    )


def _is_quaternion(q: np.ndarray) -> bool:
    bound = TAU_ALG * frob_norm(q)
    return (
        q.shape == (2, 2)
        and abs(q[1, 1] - np.conjugate(q[0, 0])) <= bound
        and abs(q[1, 0] + np.conjugate(q[0, 1])) <= bound
    )


def sm_represent(lam: complex, q: np.ndarray, m3: np.ndarray) -> np.ndarray:
    """Left multiplication of λ ⊕ q ⊕ m on M₄(ℂ) ⊕ M₄(ℂ) ≅ ℂ³².

    The element embeds as a pair of 4×4 blocks — ``diag(λ, conj λ, q)``
    acting on the first summand and ``diag(λ, m)`` on the second — and
    each summand is vectorized row-major, so left multiplication is
    ``X ⊗ 1₄``.
    """
    q = np.asarray(q, dtype=complex)
    m3 = np.asarray(m3, dtype=complex)
    if not _is_quaternion(q):
        raise ShapeError("second summand must be a 2x2 quaternionic matrix")
    if m3.shape != (3, 3):
        raise ShapeError("third summand must be a 3x3 complex matrix")
    x = np.zeros((2, 4, 4), dtype=complex)  # the two blocks X
    x[:, 0, 0] = lam
    x[0, 1, 1] = np.conjugate(lam)
    x[0, 2:, 2:] = q
    x[1, 1:, 1:] = m3
    # (X ⊗ 1₄)[(i, k), (j, l)] = X[i, j] δ_kl, set on the diagonal k = l of each block
    out = np.zeros((2, 4, 4, 2, 4, 4), dtype=complex)
    block, k = np.arange(2)[:, None], np.arange(4)
    out[block, :, k, block, :, k] = x[:, None]
    return out.reshape(32, 32)


def _transpose_permutation(k: int) -> np.ndarray:
    """Permutation T with T·vec(X) = vec(Xᵀ) for row-major vec on k×k."""
    return np.eye(k * k)[np.arange(k * k).reshape(k, k).T.ravel()]


def sm_reality() -> RealStructure:
    """The swap-adjoint antiunitary on M₄(ℂ)⊕M₄(ℂ):
    ``Ψ₁ ⊕ Ψ₂ ↦ Ψ₂† ⊕ Ψ₁†``.  Conjugation by it is right multiplication
    by the adjoint, so the commutant condition with left multiplications
    is exact."""
    t = _transpose_permutation(4)
    u = np.zeros((32, 32))
    u[:16, 16:] = t
    u[16:, :16] = t
    return RealStructure(u)


@dataclass(frozen=True)
class SMFixture:
    """The finite algebra fragment of the standard-model triple:
    verified representation and commutant data plus an opaque Dirac
    block accepted from configuration."""

    triple: FiniteSpectralTriple
    homomorphism_residual: float
    zeroth_order_residual: float
    first_order_residual: float


def _sm_sample_elements(rng: np.random.Generator, count: int):
    out = []
    for _ in range(count):
        lam = complex(rng.standard_normal(), rng.standard_normal())
        q = quaternion(
            complex(rng.standard_normal(), rng.standard_normal()),
            complex(rng.standard_normal(), rng.standard_normal()),
        )
        m3 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out.append((lam, q, m3))
    return out


def _sm_multiply(x, y):
    return (x[0] * y[0], x[1] @ y[1], x[2] @ y[2])


def sm_algebra_fixture(d_f: np.ndarray | None = None) -> SMFixture:
    """Build and verify the ℂ ⊕ ℍ ⊕ M₃(ℂ) representation on ℂ³².

    Checks, on six seeded random elements plus a canonical generating
    family: that the representation is multiplicative, and that the
    commutant (zeroth-order) condition holds against the swap-adjoint
    reality operator.  ``d_f`` is opaque input — only its shape,
    self-adjointness, and the first-order condition are checked
    (``ConfigError`` on violation); the default is the zero block.
    """
    j = sm_reality()
    if d_f is None:
        d_f = np.zeros((32, 32), dtype=complex)
    d_f = np.asarray(d_f, dtype=complex)
    if d_f.shape != (32, 32):
        raise ConfigError(f"Dirac block must be 32x32, got {d_f.shape}")
    if not is_hermitian(d_f):
        raise ConfigError("Dirac block must be self-adjoint")

    # canonical generating family: the unit of each summand and the
    # matrix units of H and M3(C)
    gens_abstract = [
        (1.0 + 0j, np.zeros((2, 2)), np.zeros((3, 3))),
        (0j, quaternion(1, 0), np.zeros((3, 3))),
        (0j, quaternion(1j, 0), np.zeros((3, 3))),
        (0j, quaternion(0, 1), np.zeros((3, 3))),
        (0j, quaternion(0, 1j), np.zeros((3, 3))),
    ]
    for a in range(3):
        for b in range(3):
            m3 = np.zeros((3, 3), dtype=complex)
            m3[a, b] = 1.0
            gens_abstract.append((0j, np.zeros((2, 2)), m3))
    gens = tuple(sm_represent(*x) for x in gens_abstract)

    sample = _sm_sample_elements(np.random.default_rng(7), 6)
    reps = [sm_represent(*x) for x in sample]
    hom_res = float(np.array([
        frob_norm(rx @ ry - sm_represent(*_sm_multiply(x, y)))
        for x, rx in zip(sample, reps) for y, ry in zip(sample, reps)
    ]).max(initial=0.0))
    reps = np.array(reps + list(gens))
    zeroth, first = _order_residuals(j.conjugate_operator(reps), reps, d_f)
    if not first <= TAU_ALG * frob_norm(d_f):
        raise ConfigError(
            f"Dirac block violates the first-order condition (residual {first:.3e})"
        )

    triple = FiniteSpectralTriple(
        generators=gens,
        d=d_f,
        gamma=None,
        j=j,
        ko_dim=None,
        algebra="C (+) H (+) M3(C)",
    )
    return SMFixture(
        triple=triple,
        homomorphism_residual=hom_res,
        zeroth_order_residual=zeroth,
        first_order_residual=first,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def triple_to_json(t: FiniteSpectralTriple) -> str:
    payload = {
        "algebra": t.algebra,
        "hilbert_dim": t.hilbert_dim,
        "generators": [complex_record(g) for g in t.generators],
        "d": complex_record(t.d),
        "gamma": None if t.gamma is None else complex_record(t.gamma),
        # J is always antiunitary; the flag keeps records readable by older readers
        "j": None if t.j is None else {"u": complex_record(t.j.u), "conjugate": True},
        "ko_dim": t.ko_dim,
    }
    return json.dumps(payload, sort_keys=True)


def triple_from_json(text: str) -> FiniteSpectralTriple:
    try:
        payload = json.loads(text)
        j = payload["j"]
        if j is not None and j["conjugate"] is not True:
            raise ConfigError("a real structure must be antiunitary (conjugate: true)")
        return FiniteSpectralTriple(
            generators=tuple(from_complex_record(g) for g in payload["generators"]),
            d=from_complex_record(payload["d"]),
            gamma=None if payload["gamma"] is None else from_complex_record(payload["gamma"]),
            j=None if j is None else RealStructure(from_complex_record(j["u"])),
            ko_dim=payload["ko_dim"],
            algebra=payload.get("algebra", ""),
        )
    except (KeyError, TypeError, ValueError, ShapeError) as exc:
        raise ConfigError(f"malformed triple serialization: {exc}") from exc
