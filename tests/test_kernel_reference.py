"""The curvature, action and gradient kernels against plain ``einsum``
references, on the inputs a real-GEMM kernel can misread: dense metrics and
structure constants, coefficients that are not anti-Hermitian, and stacks
with leading site axes, non-contiguous views or real arrays.  The references
raise with ``g_inv`` in the original frame, so they are independent of the
normal frame the kernels work in."""
from __future__ import annotations

import math

import numpy as np
import pytest

from ncgauge import (
    MatrixBasis,
    MatrixConnection,
    action,
    action_gradient,
    action_via_pairing,
    bracket_defect,
    curvature,
    frob_norm,
    random_unitary,
)
from ncgauge.basis import conjugate_by, frame_map
from ncgauge.lattice import (
    _forward_diff, _geometric_rows, lattice_action, lattice_gauge_transform, random_lattice_config,
)

REL = 1e-13


def ref_bracket_defect(c, a):
    prod = np.einsum("...kij,...ljm->...klim", a, a)
    return prod - np.swapaxes(prod, -4, -3) - np.einsum("klm,...mij->...klij", c, a)


def ref_raised(g_inv, f):
    return np.einsum("ka,lb,abij->klij", g_inv, g_inv, f)


def ref_action(basis, f):
    """The action ``(1/8n) Σ Re tr(F_kl† F^kl)`` and the bound ‖F‖‖F^kl‖/8n on
    the size of its terms."""
    f_up = ref_raised(basis.g_inv, f)
    scale = frob_norm(f) * frob_norm(f_up) / (8.0 * basis.n)
    return np.einsum("klij,klij->", np.conj(f), f_up).real / (8.0 * basis.n), scale


def ref_gradient(conn, f):
    """``(K − K†)/8n`` with ``K_k = 2 Σ_l [F^kl, A_l†] − Σ_ab C[a, b, k] F^ab``."""
    c, f_up = conn.basis.c, ref_raised(conn.basis.g_inv, f)
    a_h = np.conj(np.swapaxes(conn.coeffs, -1, -2))
    comm = np.einsum("klij,ljm->kim", f_up, a_h) - np.einsum("lij,kljm->kim", a_h, f_up)
    k = 2.0 * comm - np.einsum("abk,abij->kij", c, f_up)
    return (k - np.conj(np.swapaxes(k, -1, -2))) / (8.0 * conn.basis.n)


def ginibre(rng, shape):
    """Complex Gaussian entries: neither Hermitian nor anti-Hermitian."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


FRAMES = ["gellmann-2", "gellmann-3", "gellmann-4", "gellmann-5", "gellmann-6", "skewed-2", "skewed-3"]


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


@pytest.mark.parametrize("frame", ["gellmann-2", "gellmann-3", "skewed-2", "skewed-3"])
def test_action_agrees_with_the_pairing_route_on_general_coefficients(frame, skewed_frame):
    # both are the Hermitian norm of the curvature: the kernel through the
    # normal frame, the pairing through ⋆ and g_inv in the form calculus
    basis = build(frame, skewed_frame)
    rng = np.random.default_rng(basis.n)
    for _ in range(3):
        conn = MatrixConnection(basis, ginibre(rng, (basis.dim, basis.n, basis.n)))
        s = action(conn)
        assert abs(action_via_pairing(conn) - s) <= 1e-12 * s


@pytest.mark.parametrize("frame", ["gellmann-3", "skewed-2", "skewed-3"])
def test_frame_map_matches_einsum(frame, skewed_frame):
    # the rectangular C views of bracket_defect (D², D) and of the gradient's
    # C̃ term (D, D²), and the square normal-frame map Lᵀ, on every stack layout
    basis = build(frame, skewed_frame)
    rng = np.random.default_rng(11)
    n, d = basis.n, basis.dim
    c = basis.c.reshape(d * d, d)
    stack = ginibre(rng, (5, d, n, n))
    pairs = {
        "C (D², D)": (c, stack[0]),
        "C̃ term (D, D²)": (c.T, ginibre(rng, (d * d, n, n))),
        "transposed": (basis.normal_frame[0].T, np.swapaxes(stack[1], -1, -2)),
        "real": (c, stack[2].real.copy()),
        "real view": (c, stack[3].real),
        "site stack": (basis.normal_frame[0].T, stack),
        "sliced site stack": (c, ginibre(rng, (4, d, n + 1, n + 1))[::2]),
    }
    for name, (t, x) in pairs.items():
        got = frame_map(t, x)
        assert got.shape == x.shape[:-3] + (len(t), x.shape[-1], x.shape[-1]), name
        assert rel_err(got, np.einsum("kl,...lab->...kab", t, x)) <= 1e-15, name


@pytest.mark.parametrize("lead", [(), (16,), (6, 6)])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_conjugate_by_matches_einsum(lead, r):
    # the gauge transforms' g† X_B g: one g per lead index, shared by every B
    rng = np.random.default_rng(13 + r)
    g = np.stack([random_unitary(r, rng) for _ in range(int(np.prod(lead)))]).reshape(lead + (r, r))
    cases = {
        "contiguous": ginibre(rng, lead + (5, r, r)),
        "sliced": ginibre(rng, lead + (10, r, r))[..., ::2, :, :],
        "transposed": np.swapaxes(ginibre(rng, lead + (5, r, r)), -1, -2),
    }
    for name, x in cases.items():
        want = np.einsum("...ji,...bjk,...kl->...bil", g.conj(), x, g)
        got = conjugate_by(g, x)
        assert got.shape == x.shape, name
        assert rel_err(got, want) <= 1e-14, name


@pytest.mark.parametrize("dims", [(2,), (3,), (2, 3), (3, 2), (3, 3)])
def test_forward_diff_is_roll_minus_field_bit_for_bit(dims):
    rng = np.random.default_rng(17)
    field = ginibre(rng, dims + (4, 2, 2))
    for axis in range(len(dims)):
        assert np.array_equal(_forward_diff(field, axis), np.roll(field, -1, axis) - field), axis


def ref_lattice_curvature(cfg):
    """The whole ``(m+D)²`` curvature of the stacked fields and the weights ``W_AB`` of
    its action, built as one block: the frame curvature of every direction under
    ``C̃`` padded with zeros on the geometric indices, plus the differences."""
    m, n, mu = cfg.m, cfg.basis.n, cfg.mu
    lower, c = cfg.basis.normal_frame
    x = np.concatenate([cfg.a, np.einsum("lk,...lij->...kij", lower, cfg.b)], axis=-3)
    f = bracket_defect(np.pad(c, ((m, 0),) * 3), x)
    for mu_dir in range(m):
        dx = np.roll(x, -1, axis=mu_dir) - x
        f[..., mu_dir, :, :, :] += dx
        f[..., :, mu_dir, :, :] -= dx
    w = np.full(f.shape[-4:-2], mu**4 / (16.0 * n**2))
    w[:m] = w[:, :m] = mu**2 / (16.0 * n**2)
    w[:m, :m] = 1.0 / (4.0 * n)
    return f, w


@pytest.mark.parametrize("dims", [(3,), (2, 3), (4, 4)])
@pytest.mark.parametrize("frame", ["gellmann-2", "gellmann-3", "skewed-2", "skewed-3"])
def test_lattice_blocks_match_the_padded_curvature(dims, frame, skewed_frame):
    basis = build(frame, skewed_frame)
    rng = np.random.default_rng(len(dims) + 10 * basis.n)
    cfg = random_lattice_config(dims, basis, 1.5, rng, scale=0.5)
    g = np.array([random_unitary(basis.n, rng) for _ in range(cfg.n_sites)])
    site_gauged = lattice_gauge_transform(cfg, g.reshape(dims + (basis.n, basis.n)))
    for name, c in (("random", cfg), ("site-gauged", site_gauged)):
        f, w = ref_lattice_curvature(c)
        rows = _geometric_rows(c)[1]  # F_μB at [..., μ, i, B, j]
        assert rel_err(rows.swapaxes(-3, -2), f[..., : c.m, :, :, :]) <= 1e-14, name
        want = math.fsum((w[:, :, None, None] * (f.real**2 + f.imag**2)).ravel())
        assert abs(lattice_action(c) - want) <= 1e-14 * want, name
