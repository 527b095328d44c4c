"""Lattice gauge-Higgs model: action positivity, the two vacuum families,
gauge behaviour, and the broken-vacuum mass spectrum.

The spectrum oracle is hand-derived: around the broken vacuum
``(a, b_k) = (0, i E_k)`` on a 1-D lattice of L sites, a constant gauge
fluctuation ``a = t X`` contributes ``S = (mu^2/(8 n^2)) L sum_k ||[X, iE_k]||^2``;
with the orthonormal directions used by the spectrum routine this gives one
exact zero mode (X proportional to the identity) and n^2-1 eigenvalues
``L mu^2 / 2`` — i.e. (0, 8, 8, 8) for n=2, L=16, mu=1."""
from __future__ import annotations

from dataclasses import replace
from functools import partial
from itertools import combinations

import numpy as np
import pytest

import ncgauge.lattice as lattice_mod
from ncgauge import (
    TAU_ALG,
    LatticeConfig,
    MatrixBasis,
    MatrixConnection,
    NotHermitianError,
    NotUnitaryError,
    ShapeError,
    commutator,
    curvature,
    dagger,
    frob_norm,
    gellmann_basis,
    lattice_action,
    lattice_gauge_transform,
    mass_spectrum,
    random_lattice_config,
    random_unitary,
    vacuum_config,
    zero_momentum_gradient_norm,
)
from ncgauge.verify import line_derivative


def expm_antihermitian(x: np.ndarray) -> np.ndarray:
    """exp of an anti-Hermitian matrix via the spectral theorem."""
    evals, vecs = np.linalg.eigh(1j * x)
    return (vecs * np.exp(-1j * evals)) @ vecs.conj().T


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_config_validation(basis2, rng):
    a = np.zeros((8, 1, 2, 2), dtype=complex)
    b = np.zeros((8, 3, 2, 2), dtype=complex)
    LatticeConfig((8,), basis2, a, b, 1.0)
    with pytest.raises(ShapeError):
        LatticeConfig((8,), basis2, a[:, 0], b, 1.0)  # missing direction axis
    with pytest.raises(ShapeError):
        LatticeConfig((8,), basis2, a, b[:, :2], 1.0)  # wrong frame count
    for bad_mu in (-1.0, 0.0, np.nan, np.inf):
        with pytest.raises(ShapeError):
            LatticeConfig((8,), basis2, a, b, bad_mu)  # bad mu: not finite and positive
    with pytest.raises(ShapeError):
        LatticeConfig((120,), basis2, a, b, 1.0)  # side too large
    with pytest.raises(ShapeError):
        LatticeConfig(
            (4, 4, 4),
            basis2,
            np.zeros((4, 4, 4, 3, 2, 2), dtype=complex),
            np.zeros((4, 4, 4, 3, 2, 2), dtype=complex),
            1.0,
        )  # three geometric directions unsupported


def test_config_rejects_non_antihermitian(basis2):
    a = np.zeros((4, 1, 2, 2), dtype=complex)
    a[0, 0] = np.eye(2)  # Hermitian, not anti-Hermitian
    b = np.zeros((4, 3, 2, 2), dtype=complex)
    with pytest.raises(NotHermitianError):
        LatticeConfig((4,), basis2, a, b, 1.0)
    # the check flag allows the same data through, with a reported defect
    cfg = LatticeConfig((4,), basis2, a, b, 1.0, check=False)
    assert frob_norm(cfg.a + dagger(cfg.a)) > 1.0


# ---------------------------------------------------------------------------
# action and vacua
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dims", [(16,), (6, 6)])
@pytest.mark.parametrize("kind", ["symmetric", "broken"])
def test_vacua_have_exactly_zero_action(basis2, dims, kind):
    cfg = vacuum_config(kind, dims, basis2, mu=1.3)
    assert lattice_action(cfg) == 0.0
    assert zero_momentum_gradient_norm(cfg) == 0.0


def test_vacuum_config_contents(basis2):
    broken = vacuum_config("broken", (8,), basis2)
    assert np.abs(broken.a).max() == 0.0
    for k in range(3):
        assert np.array_equal(broken.b[3, k], 1j * basis2.mats[k])
    with pytest.raises(ValueError):
        vacuum_config("other", (8,), basis2)


@pytest.mark.parametrize("dims", [(8,), (4, 4)])
def test_action_positive_on_random_fields(basis2, dims, rng):
    cfg = random_lattice_config(dims, basis2, 1.0, rng, scale=0.5)
    assert lattice_action(cfg) > 0.0


def test_action_extensivity_of_constant_fields(basis2, rng):
    # doubling a 1-D lattice with site-independent fields doubles the action
    def constant_cfg(length):
        a = np.zeros((length, 1, 2, 2), dtype=complex)
        b = np.zeros((length, 3, 2, 2), dtype=complex)
        x = 0.3j * basis2.mats[0]
        y = 0.2j * basis2.mats[1]
        a[:, 0] = x
        b[:, 1] = y
        return LatticeConfig((length,), basis2, a, b, 1.0)

    s8 = lattice_action(constant_cfg(8))
    s16 = lattice_action(constant_cfg(16))
    assert s16 == pytest.approx(2.0 * s8, rel=1e-12)


def test_higgs_term_is_the_frame_curvature_at_every_site(basis3):
    # S = G + μ²K + μ⁴H for fixed fields: the actions at μ² = 1, 2, 3 fix all
    # three coefficients, and each must be its own per-site sum: the gauge term
    # Σ_{μ<ν} 2‖F_μν‖²/4n, the kinetic term Σ_{μk} ‖Δ_μ b_k + [a_μ, b_k]‖²/8n²,
    # and H = Σ_x ‖curvature of the connection b(x)‖²/16n²
    cfg = random_lattice_config((3, 4), basis3, 1.0, np.random.default_rng(7))
    s1, s2, s3 = (lattice_action(replace(cfg, mu=np.sqrt(t))) for t in (1.0, 2.0, 3.0))
    higgs = (s3 - 2.0 * s2 + s1) / 2.0
    kinetic = s2 - s1 - 3.0 * higgs
    gauge = s1 - kinetic - higgs
    n, d, a, b = basis3.n, basis3.dim, cfg.a, cfg.b
    expect = {"gauge": 0.0, "kinetic": 0.0, "higgs": 0.0}
    for x in np.ndindex(cfg.dims):
        # the periodic neighbour x + μ̂ of x along each direction μ
        up = [tuple((x[i] + (i == mu_dir)) % cfg.dims[i] for i in range(2)) for mu_dir in range(2)]
        f_01 = a[up[0]][1] - a[x][1] - a[up[1]][0] + a[x][0] + commutator(a[x][0], a[x][1])
        expect["gauge"] += 2.0 * frob_norm(f_01) ** 2 / (4.0 * n)
        for mu_dir in range(2):
            for k in range(d):
                d_b = b[up[mu_dir]][k] - b[x][k] + commutator(a[x][mu_dir], b[x][k])
                expect["kinetic"] += frob_norm(d_b) ** 2 / (8.0 * n**2)
        f_b = curvature(MatrixConnection(basis3, b[x]))
        expect["higgs"] += frob_norm(f_b) ** 2 / (16.0 * n**2)
    got = {"gauge": gauge, "kinetic": kinetic, "higgs": higgs}
    for term, value in expect.items():
        assert abs(got[term] - value) <= TAU_ALG * value, (term, got[term], value)


# ---------------------------------------------------------------------------
# gauge transformations
# ---------------------------------------------------------------------------

def test_constant_gauge_transform_is_exact_symmetry(basis2, rng):
    cfg = random_lattice_config((8,), basis2, 1.2, rng, scale=0.4)
    g0 = random_unitary(2, rng)
    g = np.broadcast_to(g0, (8, 2, 2)).copy()
    moved = lattice_gauge_transform(cfg, g)
    assert lattice_action(moved) == pytest.approx(lattice_action(cfg), rel=1e-12)
    for x in (moved.a, moved.b):
        assert frob_norm(x + dagger(x)) < 1e-12


def test_gauge_transform_rejects_non_unitary(basis2, rng):
    cfg = random_lattice_config((8,), basis2, 1.0, rng)
    g = np.broadcast_to(np.diag([2.0, 1.0]).astype(complex), (8, 2, 2)).copy()
    with pytest.raises(NotUnitaryError):
        lattice_gauge_transform(cfg, g)
    # one bad site among unitary ones
    g = np.broadcast_to(random_unitary(2, rng), (8, 2, 2)).copy()
    g[5] *= 1.0 + 1e-6
    with pytest.raises(NotUnitaryError):
        lattice_gauge_transform(cfg, g)


def smooth_config(basis: MatrixBasis, length: int) -> LatticeConfig:
    """Deterministic smooth fields with a continuum limit."""
    x = np.arange(length)
    prof = 0.3 * np.sin(2 * np.pi * x / length)
    a = np.zeros((length, 1, 2, 2), dtype=complex)
    a[:, 0] = prof[:, None, None] * (1j * basis.mats[0])
    b = np.zeros((length, 3, 2, 2), dtype=complex)
    for k in range(3):
        b[:, k] = 1j * basis.mats[k]
    b[:, 0] += (
        0.2 * np.cos(2 * np.pi * x / length)[:, None, None] * (1j * basis.mats[2])
    )
    return LatticeConfig((length,), basis, a, b, 1.0)


def smooth_gauge(basis: MatrixBasis, length: int) -> np.ndarray:
    gen = 0.5j * basis.mats[0]
    return np.array(
        [
            expm_antihermitian(np.sin(2 * np.pi * x / length) * gen)
            for x in range(length)
        ]
    )


def test_site_dependent_gauge_drift_shrinks_with_spacing(basis2):
    # a slowly varying transform (one full period across the lattice) is a
    # symmetry only up to a discretization drift; refining the lattice
    # shrinks the drift at least linearly in the spacing.  Measured values
    # for this configuration: 3.94e-3 (L=16), 8.52e-4 (L=32).
    drifts = {}
    for length in (16, 32):
        cfg = smooth_config(basis2, length)
        s0 = lattice_action(cfg)
        moved = lattice_gauge_transform(cfg, smooth_gauge(basis2, length))
        drifts[length] = abs(lattice_action(moved) - s0)
        # the defect itself is an O(h) artifact, small but nonzero
        assert 0.0 < frob_norm(moved.a + dagger(moved.a)) < 1.0
        assert frob_norm(moved.b + dagger(moved.b)) < 1.0
    assert drifts[16] == pytest.approx(3.94e-3, rel=0.05)
    assert drifts[32] == pytest.approx(8.52e-4, rel=0.05)
    assert drifts[32] < 0.5 * drifts[16]


# ---------------------------------------------------------------------------
# mass spectrum
# ---------------------------------------------------------------------------

def test_broken_vacuum_spectrum_frozen(basis2):
    cfg = vacuum_config("broken", (16,), basis2, mu=1.0)
    spectrum = mass_spectrum(cfg)
    assert spectrum.shape == (4,)
    assert np.all(np.diff(spectrum) >= -1e-9)  # ascending
    assert abs(spectrum[0]) < 1e-12  # exact zero mode along the identity
    assert np.abs(spectrum[1:] - 8.0).max() < 1e-12  # L mu^2 / 2 = 8


def test_spectrum_scales_as_mu_squared(basis2):
    spectrum1 = mass_spectrum(vacuum_config("broken", (16,), basis2, mu=1.0))
    spectrum2 = mass_spectrum(vacuum_config("broken", (16,), basis2, mu=2.0))
    ratios = spectrum2[1:] / spectrum1[1:]
    assert np.abs(ratios - 4.0).max() < 1e-12


def test_spectrum_positive_semidefinite_at_broken_vacuum(basis2):
    spectrum = mass_spectrum(vacuum_config("broken", (16,), basis2, mu=0.7))
    assert np.all(spectrum > -1e-12)


def test_spectrum_scales_with_volume(basis2):
    # constant-direction masses are extensive: L=8 gives half of L=16
    spec8 = mass_spectrum(vacuum_config("broken", (8,), basis2, mu=1.0))
    assert np.abs(spec8[1:] - 4.0).max() < 1e-12


def test_symmetric_vacuum_gauge_directions_are_flat(basis2):
    # with b = 0 every constant gauge direction is a zero mode (the action
    # starts at quartic order); mu^2 masses are a broken-vacuum effect
    spectrum = mass_spectrum(vacuum_config("symmetric", (16,), basis2, mu=1.0))
    assert np.all(spectrum == 0.0)


def test_spectrum_of_the_same_fields_does_not_depend_on_the_frame(basis2, skewed_frame):
    # the Gell-Mann broken vacuum carried to a skewed frame E' = T·E with its
    # fields, b' = T·b: the spectrum must not move
    gm = vacuum_config("broken", (8,), basis2)
    skewed, t = skewed_frame(2)
    moved = LatticeConfig(gm.dims, skewed, gm.a, np.einsum("kl,...lab->...kab", t, gm.b), gm.mu)
    expected = mass_spectrum(gm)
    np.testing.assert_allclose(expected, [0.0, 4.0, 4.0, 4.0], rtol=0.0, atol=1e-12)
    spectrum = mass_spectrum(moved)
    np.testing.assert_allclose(spectrum, expected, rtol=0.0, atol=1e-12 * expected.max())


def frame_change(kind: str, d: int) -> np.ndarray:
    """``T`` of a frame change ``(E, b) → (T·E, T·b)``."""
    if kind == "orthogonal":
        return np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))[0]
    if kind == "skewed":
        return np.eye(d) + 0.5 * np.triu(np.ones((d, d)), 1)
    return float(kind) * np.eye(d)


@pytest.mark.parametrize("kind", ["orthogonal", "skewed", "0.05", "1e3"])
@pytest.mark.parametrize("dims", [(8,), (4, 4)])
@pytest.mark.parametrize("n", [2, 3])
def test_action_and_spectrum_are_frame_covariant(n, dims, kind):
    # the frame metric enters through the normal frame only, so the action and
    # the spectrum of the same fields read the same in any frame
    basis = MatrixBasis.gellmann(n)
    t = frame_change(kind, basis.dim)
    moved_basis = MatrixBasis.from_matrices(np.einsum("kl,lab->kab", t, basis.mats))
    cfg = random_lattice_config(dims, basis, 1.3, np.random.default_rng(n), scale=0.5)
    b = np.einsum("kl,...lab->...kab", t, cfg.b)
    moved = LatticeConfig(dims, moved_basis, cfg.a, b, cfg.mu)
    assert abs(lattice_action(moved) - lattice_action(cfg)) <= 1e-12 * lattice_action(cfg)
    spectrum = mass_spectrum(cfg)
    assert np.abs(mass_spectrum(moved) - spectrum).max() <= 1e-12 * np.abs(spectrum).max()


# ---------------------------------------------------------------------------
# exact second-order expansion against the exact five-point stencils
# ---------------------------------------------------------------------------

def oracle_directions(cfg: LatticeConfig) -> list[np.ndarray]:
    """i·1/√n and iλ_k/√2 in each geometric slot, slot by slot."""
    n = cfg.basis.n
    herm = [np.eye(n, dtype=complex) / np.sqrt(n)]
    herm += [e / np.sqrt(2.0) for e in gellmann_basis(n)]
    dirs = []
    for mu_dir in range(cfg.m):
        for hmat in herm:
            d = np.zeros((cfg.m, n, n), dtype=complex)
            d[mu_dir] = 1j * hmat
            dirs.append(d)
    return dirs


def shifted_action(cfg: LatticeConfig, delta_a: np.ndarray) -> float:
    """Action after adding a site-independent a-shift (shape (m, n, n))."""
    shifted = LatticeConfig(
        cfg.dims, cfg.basis, cfg.a + delta_a, cfg.b, cfg.mu, check=False
    )
    return lattice_action(shifted)


# The action is a quartic in a constant shift, so both five-point stencils
# below are exact up to roundoff at any step: the unit step is used.

def second_derivative(cfg: LatticeConfig, v: np.ndarray) -> float:
    """``d²/dt² S(a + t·v)`` at 0: (−S₂ + 16S₁ − 30S₀ + 16S₋₁ − S₋₂)/12."""
    weights = {-2: -1.0, -1: 16.0, 0: -30.0, 1: 16.0, 2: -1.0}
    return sum(c * shifted_action(cfg, t * v) for t, c in weights.items()) / 12.0


def fd_hessian(cfg: LatticeConfig) -> np.ndarray:
    """Hessian over the oracle directions: second derivatives on the diagonal,
    ``(S''_{dᵢ+dⱼ} − S''_{dᵢ−dⱼ})/4`` off it."""
    dirs = oracle_directions(cfg)
    hess = np.diag([second_derivative(cfg, d) for d in dirs])
    for i, j in combinations(range(len(dirs)), 2):
        hess[i, j] = hess[j, i] = (
            second_derivative(cfg, dirs[i] + dirs[j]) - second_derivative(cfg, dirs[i] - dirs[j])
        ) / 4.0
    return hess


def fd_gradient(cfg: LatticeConfig) -> np.ndarray:
    """Gradient over the oracle directions."""
    zero = np.zeros_like(cfg.a[(0,) * cfg.m])
    along = partial(shifted_action, cfg)
    return np.array([line_derivative(along, zero, v)[0] for v in oracle_directions(cfg)])


@pytest.mark.parametrize("frame", ["gellmann", "skewed", "orthogonal", "0.05", "1e3"])
@pytest.mark.parametrize("mu", [1.0, 2.0])
@pytest.mark.parametrize("dims", [(8,), (16,), (4, 4), (3, 5)])
@pytest.mark.parametrize("n", [2, 3])
def test_broken_vacuum_spectrum_matches_closed_form(n, dims, mu, frame, skewed_frame):
    # each frame's own broken vacuum b_k = iE_k: m exact zero modes (the
    # identity in each slot), every other mass sites·μ²/n
    gm = MatrixBasis.gellmann(n)
    if frame == "gellmann":
        basis = gm
    elif frame == "skewed":
        basis = skewed_frame(n)[0]
    else:
        t = frame_change(frame, gm.dim)
        basis = MatrixBasis.from_matrices(np.einsum("kl,lab->kab", t, gm.mats))
    cfg = vacuum_config("broken", dims, basis, mu=mu)
    spectrum = mass_spectrum(cfg)
    m = len(dims)
    mass = cfg.n_sites * mu**2 / n
    assert spectrum.shape == (m * n * n,)
    assert np.abs(spectrum[:m]).max() <= 1e-12 * mass
    assert np.abs(spectrum[m:] / mass - 1.0).max() <= 1e-12


@pytest.mark.parametrize("dims", [(16,), (4, 4)])
def test_symmetric_vacuum_spectrum_and_gradient_are_exactly_zero(basis3, dims):
    cfg = vacuum_config("symmetric", dims, basis3, mu=1.7)
    assert np.all(mass_spectrum(cfg) == 0.0)
    assert zero_momentum_gradient_norm(cfg) == 0.0


@pytest.mark.parametrize("frame", ["gellmann", "skewed"])
@pytest.mark.parametrize("dims", [(8,), (4, 4)])
@pytest.mark.parametrize("n", [2, 3])
def test_exact_derivatives_agree_with_the_stencil(n, dims, frame, skewed_frame):
    # the skewed frame's dense metric exercises the Lᵀ b of the stacked fields
    rng = np.random.default_rng(n)
    basis = MatrixBasis.gellmann(n) if frame == "gellmann" else skewed_frame(n)[0]
    cfg = random_lattice_config(dims, basis, 1.3, rng, scale=0.5)
    grad, hess = lattice_mod._shift_derivatives(cfg)
    eigs = mass_spectrum(cfg)
    # both stencils are exact, so they agree to roundoff in any dimension
    fd_hess = fd_hessian(cfg)
    assert np.abs(hess - fd_hess).max() <= TAU_ALG * np.abs(hess).max()
    assert np.abs(eigs - np.linalg.eigvalsh(fd_hess)).max() <= TAU_ALG * np.abs(eigs).max()
    assert np.array_equal(eigs, np.linalg.eigvalsh(hess))
    fd_grad = fd_gradient(cfg)
    assert np.abs(grad - fd_grad).max() <= TAU_ALG * np.linalg.norm(grad)
    assert zero_momentum_gradient_norm(cfg) == np.linalg.norm(grad)


def test_spectrum_and_gradient_evaluate_no_action(monkeypatch, basis2, rng):
    calls = []

    def counted(cfg):
        calls.append(cfg)
        return lattice_action(cfg)

    monkeypatch.setattr(lattice_mod, "lattice_action", counted)
    cfg = random_lattice_config((4, 4), basis2, 1.0, rng, scale=0.5)
    mass_spectrum(cfg)
    zero_momentum_gradient_norm(cfg)
    assert calls == []


def test_shift_frame_is_built_once_per_n_and_read_only(monkeypatch, basis2, basis3, rng):
    # the shift directions and their adjoint table depend only on n
    calls = []
    antihermitian_frame = lattice_mod.antihermitian_frame

    def counted(n):
        calls.append(n)
        return antihermitian_frame(n)

    monkeypatch.setattr(lattice_mod, "antihermitian_frame", counted)
    lattice_mod._shift_frame.cache_clear()
    for basis in (basis2, basis3, basis2, basis3):
        cfg = random_lattice_config((4,), basis, 1.0, rng, scale=0.5)
        mass_spectrum(cfg)
        zero_momentum_gradient_norm(cfg)
    assert calls == [2, 3]
    for n in (2, 3):
        e, table = lattice_mod._shift_frame(n)
        assert e.shape == (n * n, n, n) and table.shape == (n**4, n * n)
        assert not e.flags.writeable and not table.flags.writeable
