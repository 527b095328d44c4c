"""The batched form code against a monomial-at-a-time reference.

The reference keeps a form as a dict from index tuples to matrices and
applies the generator rules of ``d'`` and the graded product one monomial
at a time, sorting each index sequence by adjacent swaps; its Hodge star
takes one stacked determinant per monomial.  The batched code must give
the same monomials, in order, and agree to 1e-12 relative.
"""
from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np
import pytest

from ncgauge import DerForm, MatrixBasis, dprime, hodge, wedge
from ncgauge.derforms import random_form


def _sort_with_sign(seq):
    """Sign of sorting ``seq`` by adjacent swaps, and the sorted tuple;
    ``(0, None)`` on a repeated index."""
    items, sign = list(seq), 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] == items[j + 1]:
                return 0, None
            if items[j] > items[j + 1]:
                items[j], items[j + 1], sign = items[j + 1], items[j], -sign
    if len(set(items)) < len(items):
        return 0, None
    return sign, tuple(items)


def _add(out, signed_key, mat):
    sign, key = signed_key
    if key is not None:
        out[key] = out.get(key, 0) + sign * mat


def ref_wedge(w1, w2):
    out = {}
    for k1, a in w1.items():
        for k2, b in w2.items():
            if not set(k1) & set(k2):  # a shared index gives no monomial
                _add(out, _sort_with_sign(k1 + k2), a @ b)
    return out


def ref_dprime(basis, w):
    out, c = {}, basis.c
    for key, a in w.items():
        for k in range(basis.dim):  # [iE_k, a] θ^k θ^K
            comm = 1j * (basis.mats[k] @ a - a @ basis.mats[k])
            _add(out, _sort_with_sign((k,) + key), comm)
        # θ^{k_i} ↦ −Σ_{l<m} C[l, m, k_i] θ^l θ^m, with the antiderivation sign (−1)^i
        for i, ki in enumerate(key):
            for l, m in zip(*np.nonzero(np.triu(c[:, :, ki], 1))):
                sign, merged = _sort_with_sign(key[:i] + (int(l), int(m)) + key[i + 1 :])
                _add(out, (-((-1) ** i) * sign * c[l, m, ki], merged), a)
    return out


def ref_hodge(basis, w):
    out, d = {}, basis.dim
    for key, a in w.items():
        p = len(key)
        cols = sorted({int(x) for k in key for x in np.flatnonzero(basis.g_inv[k])})
        ls = list(combinations(cols, p))
        idx = np.array(ls, dtype=int).reshape(len(ls), p)
        minors = np.linalg.det(basis.g_inv[list(key)][:, idx].transpose(1, 0, 2))
        for l_tuple, minor in zip(ls, minors):
            m_tuple = tuple(i for i in range(d) if i not in l_tuple)
            sign = (-1) ** (sum(l_tuple) - p * (p - 1) // 2)
            _add(out, (sign * basis.sqrt_g_det * minor, m_tuple), a)
    return out


def _assert_same(form: DerForm, ref: dict) -> None:
    ref = {k: v for k, v in ref.items() if np.count_nonzero(v)}
    # the same monomials, in degree then lexicographic order
    assert list(form.components) == sorted(ref, key=lambda k: (len(k), k))
    diff = np.sqrt(sum(np.sum(np.abs(form.component(k) - v) ** 2) for k, v in ref.items()))
    size = np.sqrt(sum(np.sum(np.abs(v) ** 2) for v in ref.values()))
    assert diff <= 1e-12 * size


def _sparse_form(basis, degree, rows, rng):
    """``rows`` distinct monomials of one degree (all of them, if fewer
    exist), drawn at random."""
    keys = set()
    while len(keys) < min(rows, comb(basis.dim, degree)):
        keys.add(tuple(sorted(rng.choice(basis.dim, degree, replace=False).tolist())))
    n = basis.n
    draw = {k: rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for k in sorted(keys)}
    return DerForm(basis, draw)


def _check_all(basis, forms):
    comps = [dict(w.components) for w in forms]
    for w, c in zip(forms, comps):
        _assert_same(dprime(w), ref_dprime(basis, c))
        for p in w.degrees():
            part = {k: v for k, v in c.items() if len(k) == p}
            _assert_same(hodge(DerForm(basis, part)), ref_hodge(basis, part))
    for (w1, c1), (w2, c2) in combinations(zip(forms, comps), 2):
        _assert_same(wedge(w1, w2), ref_wedge(c1, c2))
        _assert_same(wedge(w2, w1), ref_wedge(c2, c1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_batched_forms_match_reference_on_gellmann_frame(n):
    b = MatrixBasis.gellmann(n)
    rng = np.random.default_rng(700 + n)
    d = b.dim
    forms = [
        random_form(b, 0, rng) + random_form(b, 1, rng),
        random_form(b, 1, rng) + random_form(b, 2, rng),
        _sparse_form(b, 2, 12, rng) + _sparse_form(b, d - 3, 8, rng),
        _sparse_form(b, 3, 10, rng) + _sparse_form(b, d - 1, 4, rng),
    ]
    _check_all(b, forms)


@pytest.mark.parametrize("n", [2, 3])
def test_batched_forms_match_reference_on_skewed_frame(n, skewed_frame):
    b = skewed_frame(n)[0]
    rng = np.random.default_rng(800 + n)
    d = b.dim
    forms = [
        random_form(b, 0, rng) + random_form(b, 1, rng),
        random_form(b, 1, rng) + _sparse_form(b, 2, 6, rng),
        _sparse_form(b, 3, 5, rng) + _sparse_form(b, d - 2, 3, rng),
    ]
    _check_all(b, forms)


def test_batched_forms_match_reference_on_rows_longer_than_one_sort_key():
    # long rows at n = 5 (D = 24): degrees 12 and 20, whose ranks run to
    # C(24, 12) ≈ 2.7e6, and products reaching degree 23
    b = MatrixBasis.gellmann(5)
    rng = np.random.default_rng(905)
    forms = [
        _sparse_form(b, 1, 6, rng) + _sparse_form(b, 12, 3, rng),
        _sparse_form(b, 2, 4, rng) + _sparse_form(b, 20, 3, rng),
    ]
    _check_all(b, forms)


@pytest.mark.parametrize("n", [2, 3])
def test_plans_kept_on_one_basis_serve_fresh_coefficients_and_no_other_basis(n, skewed_frame):
    # the Gell-Mann and skewed frames share D but not C or g: a plan shared
    # between them, or one that kept the coefficients of its first use,
    # gives the wrong monomials on a later call
    bases = [MatrixBasis.gellmann(n), skewed_frame(n)[0]]
    rng = np.random.default_rng(600 + n)
    for _ in range(2):
        for b in bases:
            w1, w2 = random_form(b, 1, rng), random_form(b, 2, rng)
            c1, c2 = dict(w1.components), dict(w2.components)
            _assert_same(dprime(w1), ref_dprime(b, c1))
            _assert_same(dprime(w2), ref_dprime(b, c2))
            _assert_same(wedge(w1, w2), ref_wedge(c1, c2))
            _assert_same(wedge(w2, w1), ref_wedge(c2, c1))
            _assert_same(hodge(w1), ref_hodge(b, c1))
            _assert_same(hodge(w2), ref_hodge(b, c2))


def test_ranks_past_int64_at_n9():
    # D = 80 and C(80, 40) > 2⁶³: rows of degree 40 and 41 are ranked in
    # Python integers
    b = MatrixBasis.gellmann(9)
    rng = np.random.default_rng(909)
    w = _sparse_form(b, 40, 2, rng)
    one = _sparse_form(b, 1, 3, rng)
    c, c1 = dict(w.components), dict(one.components)
    _assert_same(dprime(w), ref_dprime(b, c))
    _assert_same(wedge(w, one), ref_wedge(c, c1))
    _assert_same(wedge(one, w), ref_wedge(c1, c))


def test_high_degree_rows_at_n9_are_unranked_in_int64():
    # C(80, 78) = 3,160 ranks fit int64 although C(79, 40) > 2⁶³: the rows of
    # ⋆ on degree 2 and of degree 1 ∧ degree 77 are found without a binomial
    # past the ranks
    b = MatrixBasis.gellmann(9)
    rng = np.random.default_rng(919)
    two, one, high = (_sparse_form(b, p, 3, rng) for p in (2, 1, 77))
    c2, c1, ch = dict(two.components), dict(one.components), dict(high.components)
    _assert_same(hodge(two), ref_hodge(b, c2))
    _assert_same(wedge(one, high), ref_wedge(c1, ch))


@pytest.mark.parametrize("n, degrees", [(4, (2, 2)), (5, (1, 2))])
def test_batched_forms_match_reference_when_the_source_table_spans_blocks(n, degrees):
    # full forms whose d' or wedge table exceeds one block of source rows:
    # each block's sums are added into the result rows they reach
    b = MatrixBasis.gellmann(n)
    rng = np.random.default_rng(950 + n)
    forms = [random_form(b, p, rng) for p in degrees]
    _check_all(b, forms)
    spanning = [key for key, (_, blocks) in b.derform_plans.items() if len(blocks) >= 2]
    p, q = degrees
    assert ("_wedge_plan", p, q) in spanning and ("_wedge_plan", q, p) in spanning
    assert n == 4 or ("_dprime_plan", q) in spanning


@pytest.mark.parametrize("n", [4, 5])
def test_complementary_products_match_reference(n):
    # the shape of F* ∧ ⋆F: a full degree-2 form by a full degree-(D−2) form
    # into the top degree, where each row meets one row of the other factor
    b = MatrixBasis.gellmann(n)
    rng = np.random.default_rng(960 + n)
    w2, wc = random_form(b, 2, rng), random_form(b, b.dim - 2, rng)
    c2, cc = dict(w2.components), dict(wc.components)
    _assert_same(wedge(w2, wc), ref_wedge(c2, cc))
    _assert_same(wedge(wc, w2), ref_wedge(cc, c2))


@pytest.mark.parametrize("n", [4, 5])
def test_differential_into_the_top_degree_matches_reference(n):
    b = MatrixBasis.gellmann(n)
    w = random_form(b, b.dim - 1, np.random.default_rng(970 + n))
    _assert_same(dprime(w), ref_dprime(b, dict(w.components)))
