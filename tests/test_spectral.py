"""Finite spectral triples: axiom reports, sign-table residues, mutation
detection, universal-form representation, inner fluctuations, gauge
coincidence, and the C (+) H (+) M3(C) fixture.

The mutation battery perturbs one structure at a time and asserts the
failing-line set changes by exactly the targeted axiom.  Two structural
facts shape the battery:

* On the two-point triple with entrywise-conjugation reality, the
  first-order condition holds exactly when the mass block vanishes; for
  M != 0 no antiunitary compatible with the KO-0 signs restores it.  The
  nonzero-mass baseline therefore carries {first_order} as its persistent
  failing set, and isolation is asserted relative to that set.
* A chirality that commutes with every generator cannot be broken in
  isolation here: the generators are scalar multiples of the identity in
  each block, so any block-diagonal grading commutes with them, and a
  non-block-diagonal grading breaks other lines too.  The battery breaks
  it through an off-diagonal generator instead, which necessarily also
  flips the zeroth-order line (documented companion flip).
"""
from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from ncgauge import (
    KO_TABLE,
    ConfigError,
    DegreeError,
    FiniteSpectralTriple,
    MissingStructureError,
    NotHermitianError,
    NotUnitaryError,
    RealStructure,
    ShapeError,
    UniversalForm,
    check_axioms,
    dagger,
    fermionic_pairing,
    fluctuate,
    frob_norm,
    inner_gauge,
    product_triple,
    quaternion,
    random_unitary,
    represent_form,
    sm_algebra_fixture,
    sm_represent,
    triple_from_json,
    triple_to_json,
    trivial_triple,
    two_point_action,
    two_point_curvature_form,
    two_point_one_form,
    two_point_triple,
)
from ncgauge import spectral

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
Z4 = np.zeros((4, 4), dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
OMEGA2 = np.array([[0, -1], [1, 0]], dtype=complex)
# real involution (G @ G = I) that is neither symmetric nor orthogonal
G_INV = np.block(
    [[np.array([[1.0, 1.0], [0.0, -1.0]]), np.zeros((2, 2))],
     [np.zeros((2, 2)), np.eye(2)]]
).astype(complex)


def blockdiag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def failing(t: FiniteSpectralTriple) -> set[str]:
    rep = check_axioms(t)
    return {ln.name for ln in rep.lines if not ln.passed}


# ---------------------------------------------------------------------------
# basic structures
# ---------------------------------------------------------------------------

def test_real_structure_is_antilinear(rng):
    j = RealStructure(OMEGA2)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert np.allclose(j.apply(2j * v), -2j * j.apply(v))
    assert np.allclose(j.squared(), -I2)


def test_real_structure_inverts_u_once(monkeypatch, rng):
    # a non-unitary U: J X J⁻¹ needs the true inverse, not U†
    u = np.array([[2.0, 1.0], [0.0, 0.5]], dtype=complex)
    j = RealStructure(u)
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda x: calls.append(x) or inv(x))
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    for _ in range(3):
        np.testing.assert_allclose(j.conjugate_operator(x), u @ x.conj() @ inv(u), atol=1e-14)
    assert len(calls) == 1
    assert j.u_inv is j.u_inv and not j.u_inv.flags.writeable
    np.testing.assert_allclose(j.u_inv @ u, I2, atol=1e-14)


def test_triple_shape_validation():
    with pytest.raises(ShapeError):
        FiniteSpectralTriple(generators=(I2,), d=np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        FiniteSpectralTriple(generators=(np.eye(3),), d=np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        FiniteSpectralTriple(generators=(I2,), d=np.zeros((2, 2)), gamma=np.eye(3))
    with pytest.raises(ShapeError):
        FiniteSpectralTriple(
            generators=(I2,), d=np.zeros((2, 2)), j=RealStructure(np.eye(3))
        )


def test_ko_dim_normalized_mod_8():
    t = FiniteSpectralTriple(
        generators=(I2,), d=np.zeros((2, 2)), j=RealStructure(I2), ko_dim=9
    )
    assert t.ko_dim == 1
    assert (t.eps, t.eps_p) == (1, -1)


@pytest.mark.parametrize("bad", [2.5, 6.7, -0.5, True, np.True_, np.nan, np.inf])
def test_non_integral_ko_dim_is_rejected(bad):
    with pytest.raises(ConfigError, match="KO-dimension must be an integer"):
        FiniteSpectralTriple(generators=(I2,), d=np.zeros((2, 2)), ko_dim=bad)


@pytest.mark.parametrize("k", [6, 6.0, np.int64(14), np.float64(-2.0)])
def test_integral_ko_dim_of_any_numeric_type_is_kept(k):
    t = FiniteSpectralTriple(generators=(I2,), d=np.zeros((2, 2)), ko_dim=k)
    assert t.ko_dim == 6 and type(t.ko_dim) is int


def test_missing_structure_errors():
    bare = FiniteSpectralTriple(generators=(I2,), d=SX.copy())
    with pytest.raises(MissingStructureError):
        _ = bare.eps
    with pytest.raises(MissingStructureError):
        fluctuate(bare, np.zeros((2, 2)))
    with pytest.raises(MissingStructureError):
        product_triple(bare, trivial_triple())


def test_ko_table_is_the_standard_sign_table():
    expect = {
        0: (1, 1, 1),
        1: (1, -1, None),
        2: (-1, 1, -1),
        3: (-1, 1, None),
        4: (-1, 1, 1),
        5: (-1, -1, None),
        6: (1, 1, -1),
        7: (1, 1, None),
    }
    assert KO_TABLE == expect


# ---------------------------------------------------------------------------
# KO residues: one concrete triple per row of the sign table
# ---------------------------------------------------------------------------

def ko_example(k: int) -> FiniteSpectralTriple:
    """A minimal triple realizing the k-th row of the sign table."""
    z2 = np.zeros((2, 2), dtype=complex)
    if k == 0:
        return FiniteSpectralTriple((I2,), z2, gamma=I2, j=RealStructure(I2), ko_dim=0)
    if k == 1:
        return FiniteSpectralTriple((I2,), SY, j=RealStructure(I2), ko_dim=1)
    if k == 2:
        return FiniteSpectralTriple((I2,), z2, gamma=SZ, j=RealStructure(OMEGA2), ko_dim=2)
    if k == 3:
        return FiniteSpectralTriple((I2,), I2, j=RealStructure(OMEGA2), ko_dim=3)
    if k == 4:
        return FiniteSpectralTriple(
            (np.eye(4, dtype=complex),),
            np.zeros((4, 4), dtype=complex),
            gamma=np.kron(I2, SZ),
            j=RealStructure(np.kron(OMEGA2, I2)),
            ko_dim=4,
        )
    if k == 5:
        return FiniteSpectralTriple((I2,), SX, j=RealStructure(OMEGA2), ko_dim=5)
    if k == 6:
        return FiniteSpectralTriple((I2,), z2, gamma=SZ, j=RealStructure(SX), ko_dim=6)
    if k == 7:
        return FiniteSpectralTriple((I2,), SX, j=RealStructure(I2), ko_dim=7)
    raise ValueError(k)


@pytest.mark.parametrize("k", range(8))
def test_each_ko_residue_is_realized(k):
    t = ko_example(k)
    rep = check_axioms(t)
    assert rep.passed, [ln for ln in rep.lines if not ln.passed]
    assert (t.eps, t.eps_p, t.eps_pp if t.gamma is not None else None) == KO_TABLE[k]


@pytest.mark.parametrize("k", range(8))
def test_shifting_ko_by_four_flips_exactly_the_square_sign(k):
    # eps(k+4) = -eps(k) while eps' and eps'' agree, so the same operator
    # data fails exactly the J^2 line under the shifted declaration
    t = replace(ko_example(k), ko_dim=(k + 4) % 8)
    assert failing(t) == {"reality_squares_sign"}


# ---------------------------------------------------------------------------
# the two-point triple and its mutation battery
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 9))
def test_two_point_triple_is_the_block_build_bit_for_bit(n, rng):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    eye = np.eye(n, dtype=complex)
    zero = np.zeros((n, n), dtype=complex)
    expected = {
        "p0": np.block([[eye, zero], [zero, zero]]),
        "p1": np.block([[zero, zero], [zero, eye]]),
        "d": np.block([[zero, dagger(m)], [m, zero]]),
        "gamma": np.block([[eye, zero], [zero, -eye]]),
    }
    t = two_point_triple(n, m)
    got = {"p0": t.generators[0], "p1": t.generators[1], "d": t.d, "gamma": t.gamma}
    for name, want in expected.items():
        assert got[name].dtype == want.dtype and got[name].shape == want.shape, name
        assert got[name].tobytes() == want.tobytes(), name  # signed zeros included


def test_zero_mass_triple_satisfies_every_axiom():
    t = two_point_triple(4, Z4)
    rep = check_axioms(t)
    assert rep.passed
    assert t.ko_dim == 0
    names = [ln.name for ln in rep.lines]
    assert names == [
        "dirac_self_adjoint",
        "chirality_self_adjoint",
        "chirality_squares_to_one",
        "chirality_commutes_algebra",
        "chirality_anticommutes_dirac",
        "reality_antiunitary",
        "reality_squares_sign",
        "reality_dirac_sign",
        "reality_chirality_sign",
        "zeroth_order",
        "first_order",
    ]


def test_real_mass_triple_fails_exactly_first_order():
    # the persistent failing set of every nonzero-mass baseline below
    assert failing(two_point_triple(4, I4)) == {"first_order"}
    assert failing(two_point_triple(2, np.array([[1.0, 2.0], [0.5, -1.0]]))) == {
        "first_order"
    }


def test_report_serialization_roundtrip_and_text():
    rep = check_axioms(two_point_triple(2, I2))
    text = rep.to_text()
    assert "first_order" in text and "FAIL" in text and "PASS" in text
    import json

    js = json.dumps(rep.to_record(), sort_keys=True)
    assert js == json.dumps(check_axioms(two_point_triple(2, I2)).to_record(), sort_keys=True)
    payload = json.loads(js)
    assert payload["passed"] is False
    by_name = {ln["name"]: ln for ln in payload["checks"]}
    assert by_name["first_order"]["passed"] is False
    assert by_name["dirac_self_adjoint"]["residual"] < 1e-14
    # the serialized tolerance is the bound the residual was held to
    first = rep.line("first_order")
    assert by_name["first_order"]["tolerance"] == first.tol * first.scale
    assert first.margin > 1.0 >= rep.line("zeroth_order").margin
    assert by_name["reality_squares_sign"]["note"] == "expect J^2 = +1"


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_axiom_verdicts_do_not_depend_on_scale(scale):
    # two_point_triple(2, 1) in a rotated basis, no real structure: every
    # line holds in exact arithmetic, whatever the size of D
    u = random_unitary(4, np.random.default_rng(1))

    def rotated(x):
        return u @ x @ dagger(u)

    t0 = two_point_triple(2, I2)
    exact = FiniteSpectralTriple(
        generators=tuple(rotated(p) for p in t0.generators),
        d=scale * rotated(t0.d),
        gamma=rotated(t0.gamma),
    )
    assert failing(exact) == set()
    # a non-self-adjoint bump in the odd block fails at every scale
    bump = np.zeros((4, 4), dtype=complex)
    bump[0, 2] = 1e-3
    assert failing(replace(exact, d=exact.d + scale * rotated(bump))) == {"dirac_self_adjoint"}

BASE = two_point_triple(4, I4)
BASE_FAILS = {"first_order"}


def test_mutation_dirac_self_adjoint():
    d = BASE.d.copy()
    d[0, 4] += 0.1
    assert failing(replace(BASE, d=d)) == BASE_FAILS | {"dirac_self_adjoint"}


def test_mutation_chirality_self_adjoint():
    # real non-symmetric involution: squares to one, still commutes with the
    # scalar blocks and anticommutes with the Dirac operator
    gamma = blockdiag(G_INV, -G_INV)
    assert failing(replace(BASE, gamma=gamma)) == BASE_FAILS | {
        "chirality_self_adjoint"
    }


def test_mutation_chirality_squares_to_one():
    assert failing(replace(BASE, gamma=1.1 * BASE.gamma)) == BASE_FAILS | {
        "chirality_squares_to_one"
    }


def test_mutation_chirality_anticommutes_dirac():
    h1 = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    h2 = (np.ones((4, 4)) + np.eye(4)).astype(complex)
    assert failing(replace(BASE, d=BASE.d + blockdiag(h1, h2))) == BASE_FAILS | {
        "chirality_anticommutes_dirac"
    }


def test_mutation_reality_antiunitary():
    # real non-orthogonal involution: J^2 = +1 still holds and conjugation
    # (which uses the true inverse) leaves the real Dirac block fixed
    assert failing(
        replace(BASE, j=RealStructure(blockdiag(G_INV, G_INV)))
    ) == BASE_FAILS | {"reality_antiunitary"}


def test_mutation_reality_squares_sign():
    omega4 = np.kron(OMEGA2, I2) @ np.kron(I2, I2)  # block rotation, squares to -1
    omega4 = np.block(
        [[np.zeros((2, 2)), -np.eye(2)], [np.eye(2), np.zeros((2, 2))]]
    ).astype(complex)
    assert failing(
        replace(BASE, j=RealStructure(blockdiag(omega4, omega4)))
    ) == BASE_FAILS | {"reality_squares_sign"}


def test_mutation_reality_dirac_sign():
    # an imaginary mass block flips the Dirac block under conjugation
    assert failing(two_point_triple(4, 1j * I4)) == BASE_FAILS | {
        "reality_dirac_sign"
    }


def test_mutation_reality_chirality_sign():
    swap = np.block([[Z4, I4], [I4, Z4]])
    assert failing(replace(BASE, j=RealStructure(swap))) == BASE_FAILS | {
        "reality_chirality_sign"
    }


def test_mutation_zeroth_order():
    r1 = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
    r2 = np.zeros((4, 4), dtype=complex)
    r2[0, 1] = r2[1, 0] = 1.0
    gens = (blockdiag(r1, Z4), blockdiag(r2, Z4))
    assert failing(replace(BASE, generators=gens)) == BASE_FAILS | {"zeroth_order"}


def test_mutation_first_order_caught_from_all_green():
    green = two_point_triple(4, Z4)
    assert failing(green) == set()
    assert failing(two_point_triple(4, I4)) == {"first_order"}


def test_mutation_ko_declaration_pair_flip():
    # declaring KO 2 on KO-0 data flips both sign rows that differ (J^2 and
    # J-gamma); the Dirac sign row agrees between the residues and stays green
    assert failing(replace(BASE, ko_dim=2)) == BASE_FAILS | {
        "reality_squares_sign",
        "reality_chirality_sign",
    }


def test_mutation_offdiagonal_generator_companion_flip():
    # no isolated mutation exists for chirality_commutes_algebra (see module
    # docstring); an off-diagonal generator flips it together with zeroth_order
    g0 = BASE.generators[0].copy()
    g0[0, 4] += 1.0
    muts = failing(replace(BASE, generators=(g0, BASE.generators[1])))
    assert muts == BASE_FAILS | {"chirality_commutes_algebra", "zeroth_order"}


def test_every_axiom_line_has_a_catching_mutation():
    # bookkeeping: the battery above covers each reported line exactly once
    covered = {
        "dirac_self_adjoint",
        "chirality_self_adjoint",
        "chirality_squares_to_one",
        "chirality_commutes_algebra",
        "chirality_anticommutes_dirac",
        "reality_antiunitary",
        "reality_squares_sign",
        "reality_dirac_sign",
        "reality_chirality_sign",
        "zeroth_order",
        "first_order",
    }
    assert covered == {ln.name for ln in check_axioms(two_point_triple(4, Z4)).lines}


# ---------------------------------------------------------------------------
# representing universal forms
# ---------------------------------------------------------------------------

def test_represent_degree_zero_is_block_scalars():
    t = two_point_triple(3, np.eye(3, dtype=complex))
    f = UniversalForm(2, 0, np.array([2.0, -1.0j]))
    op = represent_form(t, f)
    expect = blockdiag(2.0 * np.eye(3), -1.0j * np.eye(3))
    assert frob_norm(op - expect) < 1e-14


def test_represent_one_form_frozen_blocks(rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    t = two_point_triple(3, m)
    op = represent_form(t, two_point_one_form(2.0, 3.0j))
    expect = np.zeros((6, 6), dtype=complex)
    expect[:3, 3:] = 2.0 * dagger(m)
    expect[3:, :3] = 3.0j * m
    assert frob_norm(op - expect) < 1e-13


def test_represent_curvature_frozen_blocks(rng):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    t = two_point_triple(2, m)
    r = 0.3 - 0.7j
    op = represent_form(t, two_point_curvature_form(r))
    c = abs(1.0 + r) ** 2 - 1.0
    expect = blockdiag(c * dagger(m) @ m, c * m @ dagger(m))
    assert frob_norm(op - expect) < 1e-12


def test_represent_rejects_degree_three():
    t = two_point_triple(2, I2)
    w = UniversalForm(2, 3, _alternating_values(2, 3))
    with pytest.raises(DegreeError):
        represent_form(t, w)


def _alternating_values(size: int, degree: int) -> np.ndarray:
    vals = np.zeros((size,) * (degree + 1), dtype=complex)
    vals[(0, 1) * ((degree + 1) // 2) + ((0,) if degree % 2 == 0 else ())] = 1.0
    return vals


def test_represent_rejects_bad_projections():
    t = two_point_triple(2, I2)
    w = two_point_one_form(1.0, 1.0)
    with pytest.raises(ShapeError):
        represent_form(replace(t, generators=t.generators[:1]), w)  # wrong count
    with pytest.raises(ShapeError):
        represent_form(replace(t, generators=(t.generators[0],) * 2), w)


# ---------------------------------------------------------------------------
# fluctuations and the Higgs-type action
# ---------------------------------------------------------------------------

def test_fluctuation_doubles_real_potential():
    m = np.array([[1.0, 2.0], [0.0, 1.0]])
    t = two_point_triple(2, m)
    r = 0.25
    a = represent_form(t, two_point_one_form(r, r))
    t2 = fluctuate(t, a)
    # D + A + J A J^-1 with real A doubles the off-diagonal mass block
    assert frob_norm(t2.d[2:, :2] - (1.0 + 2.0 * r) * m) < 1e-13
    assert frob_norm(t2.d - dagger(t2.d)) < 1e-13
    # all non-Dirac lines keep their verdicts
    assert failing(t2) <= {"first_order"}


def test_fluctuate_rejects_non_self_adjoint():
    t = two_point_triple(2, I2)
    with pytest.raises(NotHermitianError):
        fluctuate(t, represent_form(t, two_point_one_form(1.0, 2.0)))
    with pytest.raises(ShapeError):
        fluctuate(t, np.zeros((3, 3)))


@pytest.mark.parametrize("phi", [0.0, 1.0, -1.0, 0.5 + 0.5j, 1.3j])
def test_two_point_action_closed_formula(phi, rng):
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    t = two_point_triple(3, m)
    op = represent_form(t, two_point_curvature_form(phi - 1.0))
    s_op = float(np.real(np.trace(op @ op)))
    assert two_point_action(phi, m) == pytest.approx(s_op, rel=1e-10, abs=1e-10)


def test_two_point_action_frozen_values():
    assert two_point_action(0.0, I4) == pytest.approx(8.0)  # 2N at N=4
    assert two_point_action(1.0, I4) == 0.0
    assert two_point_action(-1.0, np.eye(7)) == 0.0
    # minima exactly on the unit circle
    for angle in np.linspace(0.0, 2 * np.pi, 17):
        assert two_point_action(np.exp(1j * angle), I2) < 1e-12


def test_fermionic_pairing():
    t = two_point_triple(2, I2)
    psi = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)
    val = fermionic_pairing(t, psi)
    assert val == pytest.approx(2.0)
    assert abs(val.imag) < 1e-14  # real for self-adjoint D
    with pytest.raises(ShapeError):
        fermionic_pairing(t, np.ones(3, dtype=complex))


# ---------------------------------------------------------------------------
# inner gauge transformations
# ---------------------------------------------------------------------------

def test_inner_gauge_routes_coincide(rng):
    for big_n in (1, 2, 5, 8):
        m = rng.standard_normal((big_n, big_n)) + 1j * rng.standard_normal(
            (big_n, big_n)
        )
        t = two_point_triple(big_n, m)
        phases = np.exp(2j * np.pi * rng.random(2))
        omega = two_point_one_form(
            complex(rng.standard_normal(), rng.standard_normal()),
            complex(rng.standard_normal(), rng.standard_normal()),
        )
        res = inner_gauge(t, phases, omega)
        assert res.match
        assert res.max_diff < 1e-12
        assert res.gamma_invariant and res.j_invariant


def test_inner_gauge_rejects_bad_inputs(rng):
    t = two_point_triple(2, I2)
    omega = two_point_one_form(0.5, 0.5)
    with pytest.raises(NotUnitaryError):
        inner_gauge(t, np.array([2.0, 1.0]), omega)
    with pytest.raises(DegreeError):
        inner_gauge(t, np.array([1.0, 1.0]), UniversalForm(2, 0, np.ones(2)))
    with pytest.raises(ShapeError):
        inner_gauge(t, np.array([1.0, 1.0, 1.0]), omega)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def test_product_of_green_triples_is_green():
    t1 = trivial_triple()
    t2 = two_point_triple(2, np.zeros((2, 2)))
    prod = product_triple(t1, t2)
    assert prod.hilbert_dim == 4
    assert prod.ko_dim == 0
    assert check_axioms(prod).passed


def test_product_dimensions_and_ko_addition():
    t2 = ko_example(2)
    t6 = ko_example(6)
    prod = product_triple(t2, t6)
    assert prod.hilbert_dim == 4
    assert prod.ko_dim == 0  # 2 + 6 mod 8


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_triple_json_roundtrip():
    t = two_point_triple(3, np.diag([1.0, 2.0, 3.0]))
    back = triple_from_json(triple_to_json(t))
    assert back.hilbert_dim == t.hilbert_dim
    assert frob_norm(back.d - t.d) == 0.0
    assert frob_norm(back.gamma - t.gamma) == 0.0
    assert frob_norm(back.j.u - t.j.u) == 0.0
    assert back.ko_dim == 0 and back.algebra == t.algebra
    assert len(back.generators) == 2
    # verdicts identical after the roundtrip
    assert check_axioms(back).to_record() == check_axioms(t).to_record()


def test_triple_json_rejects_malformed():
    with pytest.raises(ConfigError):
        triple_from_json("not json at all {")
    with pytest.raises(ConfigError):
        triple_from_json("{}")


def test_triple_json_rejects_non_integral_ko_dim():
    payload = json.loads(triple_to_json(two_point_triple(2, np.eye(2))))
    for bad in (6.7, True):
        payload["ko_dim"] = bad
        with pytest.raises(ConfigError, match="KO-dimension must be an integer"):
            triple_from_json(json.dumps(payload))
    payload["ko_dim"] = 6.0  # integral, if written as a float
    assert triple_from_json(json.dumps(payload)).ko_dim == 6


@pytest.mark.parametrize("field", ["d", "gamma", "generator", "j", "ragged"])
def test_triple_json_shape_mismatch_is_a_config_error(field):
    payload = json.loads(triple_to_json(two_point_triple(2, np.eye(2))))
    wrong = {"re": np.eye(3).tolist(), "im": np.zeros((3, 3)).tolist()}
    if field == "generator":
        payload["generators"][1] = wrong
    elif field == "j":
        payload["j"]["u"] = wrong
    elif field == "ragged":
        payload["d"]["re"][0] = [0.0]
    else:
        payload[field] = wrong
    with pytest.raises(ConfigError, match="malformed triple serialization"):
        triple_from_json(json.dumps(payload))


@pytest.mark.parametrize("im", [0.5, [[0.0] * 4]], ids=["scalar", "one-row"])
def test_triple_json_refuses_an_imaginary_part_of_another_shape(im):
    # broadcast, a scalar im would read as that multiple of i in every entry of D
    payload = json.loads(triple_to_json(two_point_triple(2, np.eye(2))))
    payload["d"]["im"] = im
    with pytest.raises(ConfigError, match="malformed triple serialization.*shapes differ"):
        triple_from_json(json.dumps(payload))


# ---------------------------------------------------------------------------
# the order conditions: exact skips and their work count
# ---------------------------------------------------------------------------

def _naive_order_residuals(t: FiniteSpectralTriple) -> tuple[float, float]:
    """Every pair at once, by einsum: an oracle for ``check_axioms``'s loop."""
    b = np.stack(t.generators)
    u = t.j.u
    a = np.einsum("ij,bjk,kl->bil", u, b.conj(), np.linalg.inv(u))
    db = np.einsum("ij,bjk->bik", t.d, b) - np.einsum("bij,jk->bik", b, t.d)

    def worst(x, y):  # max over pairs of ||x_a y_b - y_b x_a||
        comm = np.einsum("aij,bjk->abik", x, y) - np.einsum("bij,ajk->abik", y, x)
        return float(np.sqrt((np.abs(comm) ** 2).sum(axis=(-2, -1))).max())

    return worst(a, b), worst(a, db)


def _audit_triple(case: str, rng) -> FiniteSpectralTriple:
    """Random generators under D = 0 or D != 0 and a unitary or non-unitary
    U in J, or one of the two model triples."""
    def cgauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if case == "two_point":
        return two_point_triple(3, cgauss(3, 3))
    if case == "fixture":
        return sm_algebra_fixture().triple
    h = cgauss(6, 6)
    u = random_unitary(6, rng) if case.endswith("-unitary") else cgauss(6, 6) + 3.0 * np.eye(6)
    return FiniteSpectralTriple(
        generators=tuple(cgauss(6, 6) for _ in range(4)),
        d=np.zeros((6, 6)) if case.startswith("d0") else h + dagger(h),
        j=RealStructure(u),
    )


@pytest.mark.parametrize(
    "case",
    ["d0-unitary", "d-unitary", "d0-nonunitary", "d-nonunitary", "two_point", "fixture"],
)
def test_order_residuals_match_a_naive_all_pairs_reference(case, rng):
    t = _audit_triple(case, rng)
    rep = check_axioms(t)
    for name, ref in zip(("zeroth_order", "first_order"), _naive_order_residuals(t)):
        got = rep.line(name).residual
        # exact zeros (the first order under D = 0, the commutant of the
        # models) stay exact; everything else agrees at roundoff
        assert got == ref == 0.0 or abs(got - ref) <= 1e-13 * ref, (name, got, ref)
    if case.startswith("d0") or case == "fixture":
        assert rep.line("first_order").residual == 0.0


def test_one_noncommuting_generator_still_fails_first_order():
    # of the generators (1, p0) only p0 fails to commute with D, so only its
    # rows of first-order products are formed, and they carry the residual
    t0 = two_point_triple(2, np.array([[1.0, 2.0], [0.0, 1.0]]))
    p0 = t0.generators[0]
    t = replace(t0, generators=(np.eye(4, dtype=complex), p0))
    assert frob_norm(t.d @ t.generators[0] - t.generators[0] @ t.d) == 0.0
    db = t.d @ p0 - p0 @ t.d
    line = check_axioms(t).line("first_order")
    assert not line.passed
    assert line.residual == frob_norm(db @ p0 - p0 @ db) > 0.0
    assert failing(t) == {"first_order"}


def _assert_matches_naive(t: FiniteSpectralTriple):
    """``check_axioms(t)``, after its order lines are checked against the
    naive reference: exact zeros exact, every other residual to 1e-13."""
    rep = check_axioms(t)
    for name, ref in zip(("zeroth_order", "first_order"), _naive_order_residuals(t)):
        got = rep.line(name).residual
        assert got == ref == 0.0 or abs(got - ref) <= 1e-13 * ref, (name, got, ref)
    return rep


def _direct_sum(t1: FiniteSpectralTriple, t2: FiniteSpectralTriple) -> FiniteSpectralTriple:
    """The triple of A1 (+) A2 on H1 (+) H2: each algebra acts on its own summand."""
    n1, n2 = t1.hilbert_dim, t2.hilbert_dim

    def blocks(x, y):
        out = np.zeros((n1 + n2, n1 + n2), dtype=complex)
        out[:n1, :n1], out[n1:, n1:] = x, y
        return out

    return FiniteSpectralTriple(
        generators=tuple(blocks(g, np.zeros((n2, n2))) for g in t1.generators)
        + tuple(blocks(np.zeros((n1, n1)), g) for g in t2.generators),
        d=blocks(t1.d, t2.d),
        j=RealStructure(blocks(t1.j.u, t2.j.u)),
    )


def _carried(t: FiniteSpectralTriple, w: np.ndarray) -> FiniteSpectralTriple:
    """``t`` carried by the unitary ``w``: ``X ↦ w X w†`` and ``J ↦ w J w†``,
    whose matrix is ``w U wᵀ``."""
    return FiniteSpectralTriple(
        generators=tuple(w @ g @ dagger(w) for g in t.generators),
        d=w @ t.d @ dagger(w),
        j=RealStructure(w @ t.j.u @ w.T),
    )


def _random_dirac(rng, dim: int) -> np.ndarray:
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return h + dagger(h)


def test_order_residuals_of_a_direct_sum_are_the_larger_of_its_summands(rng):
    # no generator of one summand meets the other, so every cross pair commutes
    t1, t2 = _audit_triple("d-nonunitary", rng), _audit_triple("two_point", rng)
    rep = _assert_matches_naive(_direct_sum(t1, t2))
    for name in ("zeroth_order", "first_order"):
        larger = max(check_axioms(t).line(name).residual for t in (t1, t2))
        assert abs(rep.line(name).residual - larger) <= 1e-13 * larger, name


@pytest.mark.parametrize("dirac", ["zero", "random"])
def test_order_residuals_do_not_depend_on_the_order_of_the_basis(dirac, rng):
    t = sm_algebra_fixture().triple
    if dirac == "random":
        t = replace(t, d=_random_dirac(rng, 32))
    w = np.eye(32)[rng.permutation(32)]
    rep, permuted = check_axioms(t), _assert_matches_naive(_carried(t, w))
    for name in ("zeroth_order", "first_order"):
        got, ref = permuted.line(name).residual, rep.line(name).residual
        if dirac == "zero":  # the commutant is exact, in every order of the basis
            assert got == ref == 0.0, name
        assert abs(got - ref) <= 1e-13 * ref, name


def test_order_residuals_of_the_fixture_in_a_random_basis(rng):
    # a random unitary couples every index: the audit is one dense block
    t = replace(sm_algebra_fixture().triple, d=_random_dirac(rng, 32))
    moved = _carried(t, random_unitary(32, rng))
    rep = check_axioms(moved)
    zeroth, first = _naive_order_residuals(moved)
    # the first order fails at O(1) and matches to 1e-13; the commutant holds
    # up to roundoff in both, which agree to 1e-13 of the operators' scale
    assert abs(rep.line("first_order").residual - first) <= 1e-13 * first
    line = rep.line("zeroth_order")
    assert line.passed and abs(line.residual - zeroth) <= 1e-13 * line.scale
    assert not rep.line("first_order").passed


@pytest.mark.parametrize("dim", [0, 3])
def test_order_residuals_of_a_triple_without_generators_are_zero(dim):
    t = FiniteSpectralTriple(generators=(), d=np.ones((dim, dim)), j=RealStructure(np.eye(dim)))
    rep = check_axioms(t)
    assert rep.line("zeroth_order").residual == rep.line("first_order").residual == 0.0


def _order_work(monkeypatch, t: FiniteSpectralTriple) -> tuple[list[int], tuple[int, int]]:
    """The sizes of the blocks the audit of ``t`` multiplies within, and the
    lengths of its two stacks: the ``JaJ⁻¹`` and the ``b`` with the nonzero ``[D, b]``."""
    calls = []
    add = spectral._add_squared_commutators
    monkeypatch.setattr(spectral, "_add_squared_commutators",
                        lambda sq, x, y, idx, tiles: calls.append((sq.shape, idx.shape))
                        or add(sq, x, y, idx, tiles))
    gens = np.array(t.generators)
    spectral._order_residuals(t.j.conjugate_operator(gens), gens, t.d)
    (stacks,) = {shape for shape, _ in calls}
    return sorted(s for _, (count, s) in calls for _ in range(count)), stacks


def test_order_residual_work_count(monkeypatch):
    # the products are formed within the connected components of the operators'
    # joint support, Na·Ny·s³ multiply-adds per component of size s; the
    # first-order rows of a generator b are stacked only when [D, b] != 0
    sizes, stacks = _order_work(monkeypatch, sm_algebra_fixture().triple)
    assert sizes == [1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 6, 6] and stacks == (15, 15)
    # a mass block with no zero entry couples every index: one block of size 2N
    assert _order_work(monkeypatch, two_point_triple(3, np.ones((3, 3)))) == ([6], (2, 2 + 2))
    # M = 1 couples index i with N + i only, M = 0 couples nothing
    assert _order_work(monkeypatch, two_point_triple(3, np.eye(3))) == ([2, 2, 2], (2, 2 + 2))
    assert _order_work(monkeypatch, two_point_triple(3, np.zeros((3, 3)))) == ([1] * 6, (2, 2))


# ---------------------------------------------------------------------------
# the C (+) H (+) M3(C) fixture
# ---------------------------------------------------------------------------

def test_quaternion_embedding():
    q = quaternion(1.0 + 2.0j, -0.5j)
    assert q[1, 1] == np.conj(q[0, 0])
    assert q[1, 0] == -np.conj(q[0, 1])


def test_sm_represent_block_structure():
    lam = 2.0 - 1.0j
    q = quaternion(0.5, 1.0 + 1.0j)
    m3 = np.arange(9.0).reshape(3, 3) + 0j
    rep = sm_represent(lam, q, m3)
    assert rep.shape == (32, 32)
    # first summand: diag(lam, conj lam, q) acting by left multiplication
    assert rep[0, 0] == lam and rep[4, 4] == np.conj(lam)
    assert rep[8, 8] == q[0, 0] and rep[8, 12] == q[0, 1]
    # second summand: diag(lam, m3)
    assert rep[16, 16] == lam and rep[20, 20] == m3[0, 0]
    # off-diagonal mixing between the summands vanishes
    assert np.abs(rep[:16, 16:]).max() == 0.0


def test_sm_represent_rejects_bad_blocks():
    with pytest.raises(ShapeError):
        sm_represent(1.0, np.eye(2, dtype=complex) * 1j + 1.0, np.zeros((3, 3)))
    with pytest.raises(ShapeError):
        sm_represent(1.0, quaternion(1, 0), np.zeros((2, 2)))


def test_sm_fixture_homomorphism_and_commutant():
    fx = sm_algebra_fixture()
    assert fx.homomorphism_residual < 1e-10
    assert fx.zeroth_order_residual < 1e-12
    assert fx.first_order_residual == 0.0  # zero Dirac block, exactly
    assert check_axioms(fx.triple).line("first_order").residual == 0.0
    assert fx.triple.hilbert_dim == 32
    assert len(fx.triple.generators) == 15
    assert fx.triple.gamma is None and fx.triple.ko_dim is None
    # the swap-adjoint reality operator is a genuine antiunitary involution
    j = fx.triple.j
    assert frob_norm(dagger(j.u) @ j.u - np.eye(32)) < 1e-13
    assert frob_norm(j.squared() - np.eye(32)) < 1e-13


def test_sm_fixture_rejects_bad_dirac_blocks(rng):
    with pytest.raises(ConfigError):
        sm_algebra_fixture(d_f=np.zeros((4, 4)))
    h = rng.standard_normal((32, 32))
    with pytest.raises(ConfigError):
        sm_algebra_fixture(d_f=h + 2.0 * h.T)  # not self-adjoint
    with pytest.raises(ConfigError):
        sm_algebra_fixture(d_f=(h + h.T) + 0j)  # violates first order


def _sm_random_element(rng) -> np.ndarray:
    lam, a, b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    m3 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return sm_represent(lam, quaternion(a, b), m3)


def test_sm_fixture_generators_span_the_represented_algebra(rng):
    # pi is only R-linear on C: pi(i (+) 0 (+) 0) needs a member of its own
    gens = np.stack(sm_algebra_fixture().triple.generators).reshape(-1, 32 * 32).T
    elements = [sm_represent(1j, np.zeros((2, 2)), np.zeros((3, 3)))]
    elements += [_sm_random_element(rng) for _ in range(20)]
    for x in elements:
        coef = np.linalg.lstsq(gens, x.ravel(), rcond=None)[0]
        assert np.linalg.norm(gens @ coef - x.ravel()) <= 1e-12 * np.linalg.norm(x)


def test_sm_fixture_judges_a_dirac_block_as_check_axioms_does():
    # couples columns 0 and 1 of the second summand, on which J pi(1 (+) 0 (+) 0) J^-1
    # acts alike and J pi(i (+) 0 (+) 0) J^-1 with opposite signs
    d_w = np.zeros((32, 32))
    d_w[25, 20] = d_w[20, 25] = 1.0
    line = check_axioms(replace(sm_algebra_fixture().triple, d=d_w)).line("first_order")
    assert not line.passed and line.residual > 1.0
    with pytest.raises(ConfigError, match="first-order condition"):
        sm_algebra_fixture(d_w)


def test_sm_fixture_audits_the_order_conditions_once(monkeypatch):
    # check_axioms is the only audit: no private order audit, no separate Hermiticity gate
    calls = []
    for name in ("_order_residuals", "is_hermitian"):
        monkeypatch.setattr(spectral, name, lambda *args, _name=name, _f=getattr(spectral, name):
                            calls.append(_name) or _f(*args))
    sm_algebra_fixture()
    assert calls == ["_order_residuals"]
