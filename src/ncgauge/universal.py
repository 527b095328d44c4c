"""Universal differential calculus over functions on a finite point set.

A degree-``p`` form is a complex function on ``X^(p+1)`` (``X`` a finite
set) that vanishes whenever two *consecutive* arguments coincide.  The
three structural operations are

* the junction product
  ``(fg)(x_1, ..., x_{p+q+1}) = f(x_1, ..., x_{p+1}) g(x_{p+1}, ..., x_{p+q+1})``,
* the finite-difference differential
  ``(df)(x_1, ..., x_{p+2}) = sum_i (-1)^(i+1) f(..., no x_i, ...)``,
* the graded involution
  ``f*(x_1, ..., x_{p+1}) = (-1)^(p(p+1)/2) conj(f(x_{p+1}, ..., x_1))``,

satisfying ``d(fg) = (df)g + (-1)^p f(dg)``, ``d^2 = 0``,
``(fg)* = (-1)^(pq) g* f*`` and ``d(f*) = (df)*``.

The two-point set ``X = {0, 1}`` carries the gauge-Higgs toy model: a
one-form is a pair of off-diagonal values ``(r1, r2)``, and the
curvature of the Hermitian connection ``(r, conj(r))`` is the constant
``|r + 1|**2 - 1`` in both of its components.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import frozen
from .errors import BasisMismatchError, DegreeError, ShapeError
from .tolerances import TAU_ALG

__all__ = [
    "UniversalForm",
    "uproduct",
    "duniv",
    "uinvolution",
    "point_function",
    "random_universal_form",
    "two_point_one_form",
    "two_point_curvature_form",
    "two_point_curvature",
]

#: hard ceiling on dense storage, |X|**(p+1) entries
_MAX_ENTRIES = 10**6

#: supported degree for user-built forms; differentials get headroom above it
MAX_DEGREE = 3

# duniv of a MAX_DEGREE form needs MAX_DEGREE+1, and checking d(d(f)) = 0 on
# such a form needs one more.
_HARD_DEGREE_CAP = MAX_DEGREE + 2


def _require_storable(size: int, degree: int) -> None:
    """Refuse a degree-``degree`` form on ``size`` points before its values exist."""
    if size < 1:
        raise ShapeError(f"point set must be nonempty, got size {size}")
    if degree < 0 or degree > _HARD_DEGREE_CAP:
        raise DegreeError(f"degree {degree} outside supported range 0..{_HARD_DEGREE_CAP}")
    if int(size) ** (degree + 1) > _MAX_ENTRIES:  # a Python int cannot wrap around
        raise ShapeError("form storage exceeds the dense-array budget")


@lru_cache(maxsize=8)
def _coincident(size: int, degree: int) -> np.ndarray:
    """Flat positions of the entries of a degree-``degree`` form on ``size`` points
    at which two consecutive arguments coincide: where every form must vanish."""
    mask = np.zeros((size,) * (degree + 1), dtype=bool)
    eye = np.eye(size, dtype=bool)
    for axis in range(degree):
        # broadcasting puts the (x_axis, x_axis+1) diagonal on the right axes
        mask |= eye.reshape(eye.shape + (1,) * (degree - 1 - axis))
    return frozen(np.flatnonzero(mask), dtype=np.intp)


@dataclass(frozen=True)
class UniversalForm:
    """A degree-``p`` universal form: dense values on ``X^(p+1)``."""

    size: int
    degree: int
    values: np.ndarray

    def __post_init__(self) -> None:
        _require_storable(self.size, self.degree)
        expected = (self.size,) * (self.degree + 1)
        if np.shape(self.values) != expected:
            raise ShapeError(
                f"degree-{self.degree} form on {self.size} points needs values of "
                f"shape {expected}, got {np.shape(self.values)}"
            )
        v = frozen(self.values)
        object.__setattr__(self, "values", v)
        worst = float(np.abs(np.take(v, _coincident(self.size, self.degree))).max(initial=0.0))
        # judged against the largest entry, so a form of any size is held to its
        # own scale; an exact zero passes without that reduction.  NaN fails the
        # comparison, and an infinite entry leaves no finite scale to judge by
        if worst != 0.0 and not worst <= TAU_ALG * float(np.abs(v).max()) < np.inf:
            raise ShapeError("form values must vanish when consecutive arguments coincide")

    # -- arithmetic ---------------------------------------------------------

    def _compatible(self, other: "UniversalForm") -> None:
        if self.size != other.size:
            raise BasisMismatchError(
                f"forms live on different point sets ({self.size} vs {other.size})"
            )

    def __add__(self, other: "UniversalForm") -> "UniversalForm":
        self._compatible(other)
        if self.degree != other.degree:
            raise DegreeError("can only add forms of equal degree")
        return UniversalForm(self.size, self.degree, self.values + other.values)

    def __sub__(self, other: "UniversalForm") -> "UniversalForm":
        return self + (-1.0) * other

    def __neg__(self) -> "UniversalForm":
        return (-1.0) * self

    def __mul__(self, other):
        return uproduct(self, other) if isinstance(other, UniversalForm) else self.__rmul__(other)

    def __rmul__(self, scalar) -> "UniversalForm":
        return UniversalForm(self.size, self.degree, self.values * complex(scalar))

    def star(self) -> "UniversalForm":
        return uinvolution(self)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2)))

    @classmethod
    def zero(cls, size: int, degree: int) -> "UniversalForm":
        return cls(size, degree, np.zeros((size,) * (degree + 1), dtype=complex))


def point_function(size: int, point: int) -> UniversalForm:
    """Indicator function of a single point, as a degree-0 form."""
    if not 0 <= point < size:
        raise ShapeError(f"point {point} outside 0..{size - 1}")
    values = np.zeros(size, dtype=complex)
    values[point] = 1.0
    return UniversalForm(size, 0, values)


def random_universal_form(size: int, degree: int, rng: np.random.Generator) -> UniversalForm:
    """Random form: i.i.d. complex-normal entries with the consecutive
    diagonals zeroed out."""
    if degree > MAX_DEGREE:
        raise DegreeError(f"random forms support degree up to {MAX_DEGREE}")
    _require_storable(size, degree)
    shape = (size,) * (degree + 1)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    np.put(values, _coincident(size, degree), 0.0)
    return UniversalForm(size, degree, values)


def uproduct(f: UniversalForm, g: UniversalForm) -> UniversalForm:
    """Junction product of two universal forms (degree adds)."""
    f._compatible(g)
    p, q = f.degree, g.degree
    _require_storable(f.size, p + q)
    letters = "abcdefgh"
    lhs = letters[: p + 1]
    rhs = letters[p : p + q + 1]
    out = letters[: p + q + 1]
    values = np.einsum(f"{lhs},{rhs}->{out}", f.values, g.values)
    return UniversalForm(f.size, p + q, values)


def duniv(f: UniversalForm) -> UniversalForm:
    """Finite-difference differential, raising the degree by one."""
    p = f.degree
    _require_storable(f.size, p + 1)
    out = np.zeros((f.size,) * (p + 2), dtype=complex)
    values = f.values
    for i in range(p + 2):
        # omitting argument i means the term is constant along axis i, where
        # the in-place add broadcasts it; the signs alternate
        out += np.expand_dims(values, axis=i)
        values = -values
    return UniversalForm(f.size, p + 1, out)


def uinvolution(f: UniversalForm) -> UniversalForm:
    """Graded involution: reverse the arguments, conjugate, sign the degree."""
    p = f.degree
    sign = -1.0 if (p * (p + 1) // 2) % 2 else 1.0
    values = sign * np.conjugate(np.transpose(f.values))
    return UniversalForm(f.size, p, values)


# ---------------------------------------------------------------------------
# the two-point set
# ---------------------------------------------------------------------------

def two_point_one_form(r1: complex, r2: complex) -> UniversalForm:
    """One-form on ``X = {0, 1}`` with values ``f(0,1) = r1``, ``f(1,0) = r2``."""
    values = np.zeros((2, 2), dtype=complex)
    values[0, 1] = r1
    values[1, 0] = r2
    return UniversalForm(2, 1, values)


def two_point_curvature_form(r: complex) -> UniversalForm:
    """Curvature two-form ``d omega + omega omega`` of the Hermitian
    connection ``omega = (r, conj(r))`` on the two-point set."""
    omega = two_point_one_form(r, np.conjugate(r))
    return duniv(omega) + uproduct(omega, omega)


def two_point_curvature(r: complex) -> complex:
    """Common value of the curvature two-form of ``omega = (r, conj(r))``.

    Both nonvanishing components (0,1,0) and (1,0,1) carry the same number
    ``r + conj(r) + r conj(r) = |r + 1|**2 - 1``.
    """
    curv = two_point_curvature_form(r)
    v010 = complex(curv.values[0, 1, 0])
    v101 = complex(curv.values[1, 0, 1])
    if not abs(v010 - v101) <= TAU_ALG:  # NaN fails too
        raise ShapeError("curvature components unexpectedly differ")
    return v010
