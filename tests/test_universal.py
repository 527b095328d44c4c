"""Universal forms over a finite point set: product, differential,
involution, and the two-point displays used by the operator model."""
from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from ncgauge import (
    BasisMismatchError,
    DegreeError,
    ShapeError,
    UniversalForm,
    duniv,
    point_function,
    two_point_curvature,
    two_point_curvature_form,
    two_point_one_form,
    uinvolution,
    uproduct,
)
from ncgauge.universal import MAX_DEGREE, random_universal_form


def test_point_function_identities():
    ps = [point_function(3, x) for x in range(3)]
    # orthogonal idempotents summing to the constant function 1
    for x in range(3):
        for y in range(3):
            prod = uproduct(ps[x], ps[y])
            expect = ps[x].values if x == y else 0.0
            assert np.abs(prod.values - expect).max() < 1e-15
    total = ps[0] + ps[1] + ps[2]
    assert np.array_equal(total.values, np.ones(3))
    with pytest.raises(ShapeError):
        point_function(3, 3)


def test_function_times_one_form_frozen():
    # f = (2, 3) as a function on two points; g the one-form with the single
    # entry g(0,1) = 1.  Then (f g)(0, 1) = f(0) g(0, 1) = 2 and
    # (g f)(0, 1) = g(0, 1) f(1) = 3.
    f = UniversalForm(2, 0, np.array([2.0, 3.0]))
    g_vals = np.zeros((2, 2), dtype=complex)
    g_vals[0, 1] = 1.0
    g = UniversalForm(2, 1, g_vals)
    fg = uproduct(f, g)
    gf = uproduct(g, f)
    assert fg.degree == 1 and fg.values[0, 1] == 2.0 and fg.values[1, 0] == 0.0
    assert gf.values[0, 1] == 3.0


def test_differential_of_function_is_difference():
    rng = np.random.default_rng(0)
    f = random_universal_form(5, 0, rng)
    df = duniv(f)
    for x in range(5):
        for y in range(5):
            assert df.values[x, y] == pytest.approx(f.values[y] - f.values[x])


@pytest.mark.parametrize("size", [2, 3, 5])
@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_differential_squares_to_zero(size, degree):
    rng = np.random.default_rng(size * 10 + degree)
    f = random_universal_form(size, degree, rng)
    dd = duniv(duniv(f))
    assert dd.degree == degree + 2
    assert np.abs(dd.values).max() < 1e-13


@pytest.mark.parametrize("p,q", [(0, 0), (0, 1), (1, 1), (1, 2), (2, 1)])
def test_graded_leibniz(p, q):
    rng = np.random.default_rng(100 * p + q)
    f = random_universal_form(3, p, rng)
    g = random_universal_form(3, q, rng)
    lhs = duniv(uproduct(f, g))
    rhs = uproduct(duniv(f), g) + (-1.0) ** p * uproduct(f, duniv(g))
    assert np.abs(lhs.values - rhs.values).max() < 1e-12


@pytest.mark.parametrize("p,q", [(0, 1), (1, 1), (1, 2), (2, 2)])
def test_involution_reverses_products_with_graded_sign(p, q):
    rng = np.random.default_rng(7 * p + q)
    f = random_universal_form(3, p, rng)
    g = random_universal_form(3, q, rng)
    lhs = uinvolution(uproduct(f, g))
    rhs = (-1.0) ** (p * q) * uproduct(uinvolution(g), uinvolution(f))
    assert np.abs(lhs.values - rhs.values).max() < 1e-12


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_involution_commutes_with_differential(degree):
    rng = np.random.default_rng(degree)
    f = random_universal_form(4, degree, rng)
    lhs = uinvolution(duniv(f))
    rhs = duniv(uinvolution(f))
    assert np.abs(lhs.values - rhs.values).max() < 1e-13


def test_involution_is_an_involution():
    rng = np.random.default_rng(3)
    f = random_universal_form(4, 2, rng)
    again = uinvolution(uinvolution(f))
    assert np.abs(again.values - f.values).max() < 1e-14


def test_consecutive_diagonal_vanishing_enforced():
    v = np.ones((3, 3), dtype=complex)  # nonzero on the diagonal
    with pytest.raises(ShapeError):
        UniversalForm(3, 1, v)
    with pytest.raises(ShapeError):
        UniversalForm(3, 0, np.ones((3, 3)))  # degree/shape mismatch


def test_degree_caps():
    rng = np.random.default_rng(0)
    with pytest.raises(DegreeError):
        random_universal_form(3, MAX_DEGREE + 1, rng)
    f = random_universal_form(2, MAX_DEGREE, rng)
    # one differential beyond the soft cap is allowed (needed for d d = 0
    # checks); products beyond the hard cap are rejected
    df = duniv(f)
    assert df.degree == MAX_DEGREE + 1
    with pytest.raises(DegreeError):
        uproduct(df, df)


@pytest.mark.parametrize("operation", [duniv, lambda f: uproduct(f, f)])
def test_storage_budget_is_checked_before_allocating(operation):
    # 101**3 entries exceed the 10**6 budget; the result must not be built
    f = random_universal_form(101, 1, np.random.default_rng(0))
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError):
            operation(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("size,degree", [(1, 0), (3, 1), (3, 2), (2, 3), (4, 3)])
def test_random_form_vanishes_exactly_where_consecutive_arguments_coincide(size, degree):
    f = random_universal_form(size, degree, np.random.default_rng(size + degree))
    for point in itertools.product(range(size), repeat=degree + 1):
        coincide = any(a == b for a, b in zip(point, point[1:]))
        assert (f.values[point] == 0.0) == coincide
    # a form that breaks the rule at a single such entry is refused
    if degree > 0:
        values = np.array(f.values)
        values[(0,) * (degree + 1)] = 1.0
        with pytest.raises(ShapeError):
            UniversalForm(size, degree, values)


def test_accepted_roundoff_is_stored_as_an_exact_zero():
    # roundoff where a form must vanish is judged once, against the form it
    # came with; algebra on two accepted forms must not judge it again against
    # a result whose largest entry is smaller
    f = UniversalForm(2, 1, np.array([[1e-11, 1.0], [0.0, 0.0]]))
    assert f.values[0, 0] == 0.0 and f.values[0, 1] == 1.0
    product = uproduct(f, UniversalForm(2, 0, np.array([1.0, 1e-12])))
    assert product.values[0, 1] == 1e-12 and not product.values[0, 0]
    diff = UniversalForm(2, 1, np.array([[1e-11, 1.0], [1.0, 0.0]])) - UniversalForm(
        2, 1, np.array([[0.0, 1.0], [1.0, 0.0]])
    )
    assert not diff.values.any()


def test_size_mismatch_rejected():
    rng = np.random.default_rng(0)
    f = random_universal_form(2, 1, rng)
    g = random_universal_form(3, 1, rng)
    with pytest.raises(BasisMismatchError):
        uproduct(f, g)


def test_two_point_one_form_involution_frozen():
    # omega = (r1, r2) has omega* = (-conj(r2), -conj(r1))
    w = two_point_one_form(2.0 + 1.0j, -3.0j)
    ws = uinvolution(w)
    assert ws.values[0, 1] == pytest.approx(-np.conj(-3.0j))
    assert ws.values[1, 0] == pytest.approx(-np.conj(2.0 + 1.0j))


def test_two_point_one_form_chain_decomposition():
    # (r1, r2) = r1 p0 du p0 ... check against the explicit entries
    w = two_point_one_form(0.5, 0.25)
    assert w.size == 2 and w.degree == 1
    assert w.values[0, 1] == 0.5 and w.values[1, 0] == 0.25
    assert w.values[0, 0] == 0.0 and w.values[1, 1] == 0.0


@pytest.mark.parametrize("r", [0.0, -1.0, 0.5, 0.3 - 0.8j, 2.0 + 1.0j])
def test_two_point_curvature_value(r):
    # curvature of the Hermitian potential (r, conj(r)) is the scalar
    # |1 + r|^2 - 1 on both off-diagonal slots
    phi = 1.0 + r
    assert two_point_curvature(r) == pytest.approx(abs(phi) ** 2 - 1.0)
    form = two_point_curvature_form(r)
    assert form.degree == 2
    assert form.values[0, 1, 0] == pytest.approx(abs(phi) ** 2 - 1.0)
    assert form.values[1, 0, 1] == pytest.approx(abs(phi) ** 2 - 1.0)


def test_curvature_form_matches_structure_equation():
    r = 0.4 - 0.2j
    w = two_point_one_form(r, np.conj(r))
    f = duniv(w) + uproduct(w, w)
    assert np.abs(f.values - two_point_curvature_form(r).values).max() < 1e-13


def test_zero_and_scalar_arithmetic():
    z = UniversalForm.zero(3, 1)
    rng = np.random.default_rng(1)
    f = random_universal_form(3, 1, rng)
    assert np.array_equal((f + z).values, f.values)
    assert np.abs((2.0 * f - f - f).values).max() == 0.0
    assert (-f).values[0, 1] == -f.values[0, 1]
    assert f.norm() > 0 and z.norm() == 0.0
