"""The curvature, action and gradient kernels against plain ``einsum``
references, on the inputs a real-GEMM kernel can misread: dense metrics and
structure constants, coefficients that are not anti-Hermitian, stacks with
leading site axes, and caller-supplied curvatures that are non-contiguous
views or real arrays."""
from __future__ import annotations

import numpy as np
import pytest

from ncgauge import (
    MatrixBasis,
    MatrixConnection,
    action,
    action_gradient,
    bracket_defect,
    curvature,
    frob_norm,
)

REL = 1e-13


def ref_bracket_defect(c, a):
    prod = np.einsum("...kij,...ljm->...klim", a, a)
    return prod - np.swapaxes(prod, -4, -3) - np.einsum("klm,...mij->...klij", c, a)


def ref_raised(g_inv, f):
    return np.einsum("ka,lb,abij->klij", g_inv, g_inv, f)


def ref_action(basis, f):
    """The action and the bound ‖F‖‖F^kl‖/8n on the size of its terms."""
    f_up = ref_raised(basis.g_inv, f)
    scale = frob_norm(f) * frob_norm(f_up) / (8.0 * basis.n)
    return -np.einsum("klij,klji->", f, f_up).real / (8.0 * basis.n), scale


def ref_gradient(conn, f):
    a, c, f_up = conn.coeffs, conn.basis.c, ref_raised(conn.basis.g_inv, f)
    comm = np.einsum("lij,kljm->kim", a, f_up) - np.einsum("klij,ljm->kim", f_up, a)
    m = 2.0 * comm - np.einsum("abk,abij->kij", c, f_up)
    return (m - np.conj(np.swapaxes(m, -1, -2))) / (8.0 * conn.basis.n)


def ginibre(rng, shape):
    """Complex Gaussian entries: neither Hermitian nor anti-Hermitian."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


FRAMES = ["gellmann-2", "gellmann-3", "gellmann-4", "gellmann-5", "skewed-2", "skewed-3"]


def build(frame, skewed_frame):
    """The Gell-Mann frame, or the ``skewed_frame`` one with a dense ``g_inv``."""
    kind, n = frame.split("-")
    return MatrixBasis.gellmann(int(n)) if kind == "gellmann" else skewed_frame(int(n))[0]


def rel_err(got, want):
    return frob_norm(got - want) / frob_norm(want)


@pytest.mark.parametrize("frame", FRAMES)
def test_kernels_match_einsum_on_general_coefficients(frame, skewed_frame):
    basis = build(frame, skewed_frame)
    if frame.startswith("skewed"):
        assert np.max(np.abs(basis.g_inv - np.diag(np.diag(basis.g_inv)))) > 0.1
    rng = np.random.default_rng(basis.n)
    for r in (basis.n, basis.n + 1):
        conn = MatrixConnection(basis, ginibre(rng, (basis.dim, r, r)))
        f = curvature(conn)
        assert rel_err(f, ref_bracket_defect(basis.c, conn.coeffs)) <= REL
        s, scale = ref_action(basis, f)
        assert abs(action(conn) - s) <= REL * scale
        assert rel_err(action_gradient(conn), ref_gradient(conn, f)) <= REL


@pytest.mark.parametrize("frame", ["gellmann-3", "skewed-2"])
def test_bracket_defect_matches_einsum_on_site_stacks(frame, skewed_frame):
    basis = build(frame, skewed_frame)
    rng = np.random.default_rng(7)
    n, d = basis.n, basis.dim
    stack = ginibre(rng, (3, 4, d, n, n))
    cases = {
        "contiguous": stack,
        "sliced": ginibre(rng, (3, 8, d, n, n))[:, ::2],
        "transposed": np.swapaxes(stack, -1, -2),
        "real": stack.real.copy(),
        "real view": stack.real,
    }
    for name, a in cases.items():
        got = bracket_defect(basis.c, a)
        assert got.shape == (3, 4, d, d, n, n), name
        assert rel_err(got, ref_bracket_defect(basis.c, a)) <= REL, name


@pytest.mark.parametrize("frame", ["gellmann-3", "gellmann-4", "skewed-3"])
def test_action_and_gradient_read_any_caller_curvature(frame, skewed_frame):
    # a bare float view of these would raise or pair the wrong numbers
    basis = build(frame, skewed_frame)
    rng = np.random.default_rng(11)
    d, r = basis.dim, basis.n + 1
    conn = MatrixConnection(basis, ginibre(rng, (d, r, r)))
    f = curvature(conn)
    cases = {
        "sliced": ginibre(rng, (d, d, 2 * r, r))[:, :, ::2],
        "transposed": f.transpose(1, 0, 3, 2),
        "real view": f.real,
        "real": np.ascontiguousarray(f.imag),
    }
    for name, f_in in cases.items():
        assert not (f_in.flags.c_contiguous and np.iscomplexobj(f_in)), name
        s, scale = ref_action(basis, f_in)
        assert abs(action(conn, f_in) - s) <= REL * scale, name
        assert rel_err(action_gradient(conn, f_in), ref_gradient(conn, f_in)) <= REL, name
