"""Derivation-based calculus on matrix algebras: differential, wedge,
involution, Hodge star, integration, and the evaluation pairings."""
from __future__ import annotations

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from ncgauge import verify
from ncgauge import (
    BasisMismatchError,
    DegreeError,
    DerForm,
    Derivation,
    MatrixBasis,
    ShapeError,
    canonical_theta,
    dagger,
    dinvolution,
    dprime,
    evaluate,
    hodge,
    koszul_evaluate,
    nc_integrate,
    random_traceless_hermitian,
    wedge,
)
from ncgauge.derforms import _dprime_plan, _wedge_plan, random_form

from conftest import skewed_frame_of


# ---------------------------------------------------------------------------
# differential
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_differential_squares_to_zero(n, degree):
    b = MatrixBasis.gellmann(n)
    rng = np.random.default_rng(10 * n + degree)
    w = random_form(b, degree, rng)
    assert dprime(dprime(w)).norm() < 1e-10 * max(1.0, w.norm())


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p,q", [(0, 0), (0, 1), (1, 1), (1, 2)])
def test_graded_leibniz(n, p, q):
    b = MatrixBasis.gellmann(n)
    rng = np.random.default_rng(100 * n + 10 * p + q)
    f = random_form(b, p, rng)
    g = random_form(b, q, rng)
    lhs = dprime(wedge(f, g))
    rhs = wedge(dprime(f), g) + (-1.0) ** p * wedge(f, dprime(g))
    assert (lhs - rhs).norm() < 1e-10 * max(1.0, lhs.norm())


def test_differential_of_matrix_is_frame_commutators(basis2, rng):
    a = random_traceless_hermitian(2, rng) + 1j * random_traceless_hermitian(2, rng)
    da = dprime(DerForm.matrix(basis2, a))
    for k in range(3):
        expect = 1j * (basis2.mats[k] @ a - a @ basis2.mats[k])
        assert np.abs(da.component((k,)) - expect).max() < 1e-13


def test_differential_equals_canonical_bracket(basis3, rng):
    # d'a = [i theta, a] = (i theta) a - a (i theta) for degree-0 a
    a = random_traceless_hermitian(3, rng)
    w = DerForm.matrix(basis3, a)
    th = canonical_theta(basis3)
    bracket = wedge(th, w) - wedge(w, th)
    assert (dprime(w) - bracket).norm() < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_canonical_one_form_structure_equation(n):
    # d'(i theta) = (i theta)^2, equivalently d' theta^m = -sum C theta theta
    b = MatrixBasis.gellmann(n)
    th = canonical_theta(b)
    assert (dprime(th) - wedge(th, th)).norm() < 1e-12


# ---------------------------------------------------------------------------
# involution
# ---------------------------------------------------------------------------

def test_involution_conjugate_transposes_components(basis2, rng):
    w = random_form(basis2, 2, rng)
    ws = dinvolution(w)
    for key, mat in w:
        assert np.array_equal(ws.component(key), dagger(mat))
    # canonical one-form is anti-real
    th = canonical_theta(basis2)
    assert (dinvolution(th) + th).norm() == 0.0


@pytest.mark.parametrize("p,q", [(0, 1), (1, 1), (1, 2)])
def test_involution_reverses_products(basis2, p, q):
    rng = np.random.default_rng(31 * p + q)
    f = random_form(basis2, p, rng)
    g = random_form(basis2, q, rng)
    lhs = dinvolution(wedge(f, g))
    rhs = (-1.0) ** (p * q) * wedge(dinvolution(g), dinvolution(f))
    assert (lhs - rhs).norm() < 1e-10 * max(1.0, lhs.norm())


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_involution_commutes_with_differential(basis2, degree):
    rng = np.random.default_rng(degree + 1)
    w = random_form(basis2, degree, rng)
    assert (dprime(dinvolution(w)) - dinvolution(dprime(w))).norm() < 1e-10


# ---------------------------------------------------------------------------
# evaluation pairings
# ---------------------------------------------------------------------------

def test_frame_duality(basis3, rng):
    w = random_form(basis3, 1, rng)
    for k in range(basis3.dim):
        val = evaluate(w, [Derivation.frame(basis3, k)])
        assert np.abs(val - w.component((k,))).max() < 1e-14


def test_evaluate_antisymmetry(basis2, rng):
    w = random_form(basis2, 2, rng)
    x = Derivation.frame(basis2, 0)
    y = Derivation.frame(basis2, 1)
    assert np.abs(evaluate(w, [x, y]) + evaluate(w, [y, x])).max() < 1e-13
    assert np.abs(evaluate(w, [x, x])).max() < 1e-13


def test_derivation_refuses_coefficients_that_name_another_derivation(basis2, skewed_frame):
    # zero coefficients beside γ = iE_0 would make evaluate read 0 while the
    # derivation itself acts through γ
    gamma = 1j * basis2.mats[0]
    for coeffs in (np.zeros(3), np.array([1.0, 1e-6, 0.0]), np.ones(2)):
        with pytest.raises(ShapeError):
            Derivation(basis2, gamma, coeffs)
    for b in (basis2, skewed_frame(3)[0]):
        for k in range(b.dim):
            assert Derivation.frame(b, k).coeffs[k] == 1.0


def test_frame_bracket_reproduces_structure_constants(basis3):
    # [ad_{iE_k}, ad_{iE_l}] = ad_{sum_m C[k,l,m] iE_m}
    for k in range(3):
        for l in range(3):
            br = Derivation.frame(basis3, k).bracket(Derivation.frame(basis3, l))
            expect = 1j * np.einsum("m,mab->ab", basis3.c[k, l], basis3.mats)
            assert np.abs(br.gamma - expect).max() < 1e-12
            assert np.abs(br.coeffs - basis3.c[k, l]).max() < 1e-12


def test_koszul_formula_matches_differential(basis2, basis3, rng):
    # X w(Y) - Y w(X) - w([X, Y]) computed independently of dprime
    for b in (basis2, basis3):
        w = random_form(b, 1, rng)
        dw = dprime(w)
        for i in range(b.dim):
            for j in range(i + 1, b.dim):
                x, y = Derivation.frame(b, i), Derivation.frame(b, j)
                lhs = evaluate(dw, [x, y])
                rhs = koszul_evaluate(w, x, y)
                assert np.abs(lhs - rhs).max() < 1e-12


def test_koszul_rejects_higher_degrees(basis2, rng):
    w = random_form(basis2, 2, rng)
    x, y = Derivation.frame(basis2, 0), Derivation.frame(basis2, 1)
    with pytest.raises(DegreeError):
        koszul_evaluate(w, x, y)


# ---------------------------------------------------------------------------
# Hodge star and integration
# ---------------------------------------------------------------------------

def test_hodge_frozen_values_n2(basis2):
    # n = 2 has g = identity, so the star is the bare permutation duality
    one = np.eye(2, dtype=complex)
    th0 = DerForm.monomial(basis2, (0,), one)
    assert [k for k, _ in hodge(th0)] == [(1, 2)]
    assert np.abs(hodge(th0).component((1, 2)) - one).max() < 1e-14

    th01 = DerForm.monomial(basis2, (0, 1), one)
    assert np.abs(hodge(th01).component((2,)) - one).max() < 1e-14

    unit = DerForm.matrix(basis2, one)
    assert np.abs(hodge(unit).component((0, 1, 2)) - one).max() < 1e-14
    top = DerForm.monomial(basis2, (0, 1, 2), one)
    assert np.abs(hodge(top).component(()) - one).max() < 1e-14


def test_hodge_frozen_values_n3(basis3):
    # g = (2/3) id on 8 frame directions: sqrt(det g) = (2/3)^4 and each
    # raised index contributes 3/2, so star(theta^0) = (8/27) theta^{1..7}
    th0 = DerForm.monomial(basis3, (0,), np.eye(3, dtype=complex))
    h = hodge(th0)
    assert [k for k, _ in h] == [tuple(range(1, 8))]
    assert h.component(tuple(range(1, 8)))[0, 0] == pytest.approx(8.0 / 27.0)


@pytest.mark.parametrize(
    "skewed,n,degree",
    [
        pytest.param(False, n, p, id=f"{n}-{p}")
        for n, p in [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2)]
    ]
    + [
        pytest.param(True, n, p, id=f"skewed-{n}-{p}")
        for n, p in [(2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2), (3, 6), (3, 7), (3, 8)]
    ],
)
def test_double_hodge_sign(skewed, n, degree, skewed_frame):
    b = skewed_frame(n)[0] if skewed else MatrixBasis.gellmann(n)
    if skewed:
        # every row of g_inv reaches every column: the star sums all minors
        assert np.count_nonzero(b.g_inv) == b.dim**2
    rng = np.random.default_rng(5 * n + degree)
    w = random_form(b, degree, rng)
    d = b.dim
    sign = (-1.0) ** (degree * (d - degree))
    assert (hodge(hodge(w)) - sign * w).norm() < 1e-10 * max(1.0, w.norm())


def test_hodge_on_a_dense_metric_complements_each_minor_column_set_once(skewed_frame):
    # a full degree-3 form on the n = 4 skewed frame: 455 rows each reach all
    # 15 columns, so ⋆ pairs them with 207k column sets L of only 455 kinds
    b = skewed_frame(4)[0]  # a new basis, so the plan is made below
    w = random_form(b, 3, np.random.default_rng(0))
    tracemalloc.start()
    try:
        star = hodge(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert star.degrees() == [b.dim - 3] and len(star.components) == 455
    assert peak < 40e6, peak


def test_double_hodge_of_unit_at_n5():
    # a top-degree row has 24 indices: ⋆ must stay a sum over the minors that
    # the nonzero entries of g_inv reach, here one per row, and never run
    # through the 24! permutations of a complement
    b = MatrixBasis.gellmann(5)
    one = np.eye(5, dtype=complex)
    back = hodge(hodge(DerForm.matrix(b, one)))
    assert back.degrees() == [0]
    assert np.abs(back.component(()) - one).max() < 1e-12


def test_hodge_needs_homogeneous(basis2, rng):
    w = random_form(basis2, 0, rng) + DerForm.monomial(
        basis2, (0,), np.eye(2, dtype=complex)
    )
    with pytest.raises(DegreeError):
        hodge(w)


def test_integral_normalization(basis2, basis3):
    # integral of a . volume = tr(a)/n; the top component carries 1/sqrt(g)
    a2 = np.diag([1.0, 3.0]).astype(complex)
    top2 = DerForm.monomial(basis2, (0, 1, 2), a2)
    assert nc_integrate(top2) == pytest.approx(2.0)  # tr/2, sqrt(g)=1

    a3 = np.diag([1.0, 2.0, 3.0]).astype(complex)
    top3 = DerForm.monomial(basis3, tuple(range(8)), a3)
    assert nc_integrate(top3) == pytest.approx(27.0 * 6.0 / 16.0 / 3.0 * 3.0)
    # equivalently tr(a)/(n sqrt(g)) = 6 / (3 * (2/3)^4) = 10.125
    assert nc_integrate(top3) == pytest.approx(10.125)


def test_integral_vanishes_below_top_degree(basis2, rng):
    w = random_form(basis2, 2, rng)
    assert nc_integrate(w) == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_integral_kills_differentials(n):
    b = MatrixBasis.gellmann(n)
    rng = np.random.default_rng(n)
    eta = random_form(b, b.dim - 1, rng)
    assert abs(nc_integrate(dprime(eta))) < 1e-10 * max(1.0, eta.norm())


def test_pairing_positivity(basis2, rng):
    # integral of w* wedge (star w) is positive for nonzero w
    for degree in (0, 1, 2, 3):
        w = random_form(basis2, degree, rng)
        val = nc_integrate(wedge(dinvolution(w), hodge(w)))
        assert abs(val.imag) < 1e-10 * abs(val)
        assert val.real > 0.0


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------

def test_wedge_anticommutation_and_nilpotency(basis2):
    one = np.eye(2, dtype=complex)
    th0 = DerForm.monomial(basis2, (0,), one)
    th1 = DerForm.monomial(basis2, (1,), one)
    assert (wedge(th0, th1) + wedge(th1, th0)).norm() < 1e-14
    assert wedge(th0, th0).norm() == 0.0


def test_mixed_bases_rejected(basis2, basis3, rng):
    w2 = random_form(basis2, 1, rng)
    w3 = random_form(basis3, 1, rng)
    with pytest.raises(BasisMismatchError):
        wedge(w2, w3)


def test_record_roundtrip(basis2, rng):
    w = random_form(basis2, 2, rng)
    rec = w.to_record()
    back = DerForm.from_record(basis2, rec)
    assert (w - back).norm() == 0.0


def _form(basis, rows_by_degree, seed):
    """A form with seeded coefficients on the given rows of each degree."""
    rng = np.random.default_rng(seed)
    return DerForm(basis, {
        key: rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        for rows in rows_by_degree for key in rows
    })


#: case -> the rows of ``a`` and of ``b``, by degree
SUBTRACTIONS = {
    "equal_rows": ([[(0, 1), (0, 2), (1, 2)]], [[(0, 1), (0, 2), (1, 2)]]),
    "union_of_rows": ([[(0, 1), (0, 2)]], [[(0, 2), (1, 2)]]),
    "degree_only_in_b": ([[(0,), (2,)]], [[(0, 1), (1, 2)]]),
    "mixed_degrees": ([[()], [(0, 1), (1, 2)]], [[(1,)], [(0, 1), (0, 2)], [(0, 1, 2)]]),
}


@pytest.mark.parametrize("case", sorted(SUBTRACTIONS))
def test_difference_is_the_sum_with_the_negated_form_bit_for_bit(basis2, case):
    rows_a, rows_b = SUBTRACTIONS[case]
    a, b = _form(basis2, rows_a, 1), _form(basis2, rows_b, 2)
    diff, plus = a - b, a + (-1.0) * b
    assert diff.degrees() == plus.degrees()
    assert list(diff.components) == list(plus.components)
    for key, c in diff:
        assert c.tobytes() == plus.component(key).tobytes(), key
    assert (a - a).degrees() == [] and (b - b).norm() == 0.0


def test_degree_bookkeeping(basis2, rng):
    w = random_form(basis2, 2, rng)
    assert w.is_homogeneous() and w.degree() == 2 and w.degrees() == [2]
    z = DerForm.zero(basis2)
    assert z.norm() == 0.0 and z.degrees() == []
    with pytest.raises(DegreeError):
        evaluate(w, [Derivation.frame(basis2, 0)])


# ---------------------------------------------------------------------------
# validation at the public entry points
# ---------------------------------------------------------------------------

def _by_mapping(basis, key, mat):
    return DerForm(basis, {key: mat})


def _by_record(basis, key, mat):
    mat = np.asarray(mat, dtype=complex)
    entry = {"indices": list(key), "re": mat.real.tolist(), "im": mat.imag.tolist()}
    return DerForm.from_record(basis, {"n": basis.n, "dim": basis.dim, "components": [entry]})


ENTRY_POINTS = {"mapping": _by_mapping, "from_record": _by_record}
ONE = np.eye(2, dtype=complex)
BAD_INPUTS = {
    "index_out_of_range": ((0, 3), ONE, DegreeError),
    "negative_index": ((-1, 2), ONE, DegreeError),
    "non_increasing_row": ((2, 1), ONE, DegreeError),
    "repeated_index": ((1, 1), ONE, DegreeError),
    "wrong_coefficient_shape": ((0, 1), np.eye(3), ShapeError),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_public_entry_points_reject_bad_rows(basis2, entry, case):
    key, mat, error = BAD_INPUTS[case]
    with pytest.raises(error):
        ENTRY_POINTS[entry](basis2, key, mat)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_public_entry_points_drop_zero_coefficients(basis2, entry):
    assert ENTRY_POINTS[entry](basis2, (0, 2), np.zeros((2, 2))).degrees() == []
    kept = ENTRY_POINTS[entry](basis2, (0, 2), ONE)
    assert list(kept.components) == [(0, 2)]
    assert np.array_equal(kept.component((0, 2)), ONE)


def test_mapping_constructor_orders_rows_and_rejects_a_key_given_twice(basis2):
    w = DerForm(basis2, {(1, 2): 2 * ONE, (): ONE, (0,): ONE, (0, 2): ONE})
    assert list(w.components) == [(), (0,), (0, 2), (1, 2)]
    assert [k for k, _ in w] == list(w.components)
    with pytest.raises(DegreeError):
        DerForm(basis2, {(1,): ONE, (1.5,): ONE})


def test_pieces_merged_in_batches_may_cancel_to_nothing(basis2):
    # θ⁰θ¹ is reached twice, from θ⁰ ∧ θ¹ and θ¹ ∧ θ⁰, in different slots
    # of the coefficient pass: the two cancel exactly and leave no row
    theta = {k: DerForm.monomial(basis2, (k,), ONE) for k in range(3)}
    pair = theta[0] + theta[1]
    assert wedge(pair, pair).degrees() == []
    kept = wedge(pair, pair + theta[2])
    assert list(kept.components) == [(0, 2), (1, 2)]


# ---------------------------------------------------------------------------
# memory of the passes and of the plans kept on a basis
# ---------------------------------------------------------------------------

def _second_call_peak(op) -> float:
    op()  # the first call makes the plans kept on the basis
    tracemalloc.start()
    try:
        op()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("op, bound", [("dprime3", 25e6), ("wedge22", 9e6), ("wedge13", 14e6)])
def test_passes_on_full_forms_at_n5_hold_no_whole_source_table(op, bound):
    # the source table of d′ on a full degree-3 form is 20 MB and that of the
    # wedge of two full degree-2 forms 30 MB, against results of 4.25 MB: no
    # pass may hold a whole table
    b = MatrixBasis.gellmann(5)
    w1, w2, w3 = (random_form(b, p, np.random.default_rng(p)) for p in (1, 2, 3))
    ops = {"dprime3": lambda: dprime(w3), "wedge22": lambda: wedge(w2, w2), "wedge13": lambda: wedge(w1, w3)}
    assert _second_call_peak(ops[op]) <= bound


def test_complementary_product_forms_only_the_columns_its_blocks_reach():
    # at n = 5 each of the 276 rows of degree 2 meets one of the 276 rows of
    # degree 22, 276 of the 76,176 pairs. A block spans only the columns its
    # rows reach, so it forms B² products for B rows; as 36² products of 400
    # bytes fill the 512 KiB of a block, the blocks form at least 276²/8 =
    # 9,522 of them
    b = MatrixBasis.gellmann(5)
    rows = {p: np.array(list(combinations(range(b.dim), p))) for p in (2, b.dim - 2)}
    for p, q in [(2, b.dim - 2), (b.dim - 2, 2)]:
        _, blocks = _wedge_plan(b, rows[p], rows[q])
        formed = sum((hi - lo) * (c1 - c0) for lo, hi, c0, c1, *_ in blocks)
        assert formed <= 0.13 * 276**2, formed


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(map(_nbytes, obj))
    return sum(map(_nbytes, obj.values())) if isinstance(obj, dict) else 0


def test_plans_kept_by_one_calculus_suite_at_n5_stay_small():
    # int64 targets, sources and new indices in slot groups held 7.8 MB, and
    # float64 weights of ±1 in the ∧ plans 5.45 MB; int8 signs hold 4.32 MB
    basis = MatrixBasis.gellmann(5)
    verify.suite_calculus(basis)
    assert basis.derform_plans
    assert _nbytes(basis.derform_plans) <= 4.4e6


def test_wedge_plans_hold_their_signs_in_one_byte():
    b = MatrixBasis.gellmann(3)
    rows = np.array(list(combinations(range(b.dim), 2)))
    _, blocks = _wedge_plan(b, rows, rows)
    for *_, weight in blocks:
        assert weight.dtype == np.int8 and set(np.unique(weight).tolist()) <= {-1, 1}


def _rows(d, p):
    return np.array(list(combinations(range(d), p)), dtype=np.intp).reshape(-1, p)


@pytest.mark.parametrize("case", ["dprime3_n5", "dprime3_skewed_n4", "wedge22_n5"])
def test_a_plan_build_holds_at_most_three_times_its_plan(case):
    # the builders enumerated every candidate at once: 17.5 MB for a 1.6 MB d′
    # plan at n = 5, 25.1 MB for 1.4 MB on the skewed n = 4 frame, and 7.2 MB
    # for 1.3 MB of ∧ (2, 2) at n = 5; runs of whole blocks keep it near the plan
    basis = skewed_frame_of(4)[0] if case == "dprime3_skewed_n4" else MatrixBasis.gellmann(5)
    build = _wedge_plan if case == "wedge22_n5" else _dprime_plan
    rows = [_rows(basis.dim, 2)] * 2 if case == "wedge22_n5" else [_rows(basis.dim, 3)]
    basis.structure_terms  # of the basis, not of the build
    tracemalloc.start()
    try:
        plan = build(basis, *rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * _nbytes(plan), (peak, _nbytes(plan))
