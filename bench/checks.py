"""Reference computations and output checks for the benchmark.

Every check compares a program output with a quantity computed here, by
code that shares nothing with ``ncgauge`` beyond numpy, or with a property
the method must have.  No check compares against stored output.

A check returns a list of ``(label, ok)`` pairs, one per operation it
judged, so the caller can count operations attempted and failed.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: flatness reached by descent to ``gtol = 1e-8``; the residuals seen on the
#: benchmark's starts stay below 1e-8, a connection 1e-3 away from flat reads 1e-3
FLAT_TOL = 1e-6
#: relative error allowed on a finite-difference mass eigenvalue; today's
#: error on the benchmark's lattices is at most 8e-7
SPECTRUM_RTOL = 2e-5
#: relative tolerance for identities that hold up to roundoff
ALG_RTOL = 1e-10
#: absolute bound the issue fixes for fixture and ``inner_gauge`` residuals
RESIDUAL_TOL = 1e-10


# ---------------------------------------------------------------------------
# the Gell-Mann frame, built here
# ---------------------------------------------------------------------------

def gellmann_frame(n: int) -> np.ndarray:
    """Generalized Gell-Mann matrices in grouped order: symmetric pairs,
    antisymmetric pairs, then diagonals; ``tr(E_k E_l) = 2 δ_kl``."""
    rows, cols = np.triu_indices(n, 1)
    pairs = len(rows)
    sym = np.zeros((pairs, n, n), dtype=complex)
    sym[np.arange(pairs), rows, cols] = 1.0
    sym[np.arange(pairs), cols, rows] = 1.0
    asym = np.zeros((pairs, n, n), dtype=complex)
    asym[np.arange(pairs), rows, cols] = -1j
    asym[np.arange(pairs), cols, rows] = 1j
    diag = np.zeros((n - 1, n, n), dtype=complex)
    for l in range(1, n):
        entries = np.r_[np.ones(l), -l, np.zeros(n - l - 1)]
        diag[l - 1] = np.diag(entries) * math.sqrt(2.0 / (l * (l + 1)))
    return np.concatenate([sym, asym, diag])


def structure_constants(frame: np.ndarray) -> np.ndarray:
    """``C[k, l, m] = (i/2) tr([E_k, E_l] E_m)``, so that
    ``i [E_k, E_l] = Σ_m C[k, l, m] E_m`` for a frame with ``tr(E E) = 2``."""
    prod = frame[:, None] @ frame[None, :]
    comm = prod - prod.transpose(1, 0, 2, 3)
    return np.real(0.5j * np.einsum("klab,mba->klm", comm, frame))


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    phases of R moved into Q."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def antihermitian(rng: np.random.Generator, shape: tuple[int, ...], scale: float = 1.0) -> np.ndarray:
    """Random anti-Hermitian matrices over the last two axes."""
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return scale * (z - np.conj(np.swapaxes(z, -1, -2))) / 2.0


def conjugate(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``g† x g`` over the last two axes of ``x``."""
    return np.conj(g.T) @ x @ g


# ---------------------------------------------------------------------------
# descent
# ---------------------------------------------------------------------------

def curvature_residual(a: np.ndarray, c: np.ndarray) -> float:
    """``max_kl ‖[A_k, A_l] − Σ_m C_klm A_m‖`` (Frobenius)."""
    prod = a[:, None] @ a[None, :]
    f = prod - prod.transpose(1, 0, 2, 3) - np.tensordot(c, a, axes=([2], [0]))
    return float(np.sqrt(np.max(np.sum(np.abs(f) ** 2, axis=(2, 3)))))


def ym_action(a: np.ndarray, c: np.ndarray, n: int) -> float:
    """``−(1/8n) Σ tr(F_kl F^kl)`` in a Gell-Mann frame, whose metric is
    ``(2/n)·1``: for anti-Hermitian F this is ``(n/32) Σ ‖F_kl‖²``."""
    prod = a[:, None] @ a[None, :]
    f = prod - prod.transpose(1, 0, 2, 3) - np.tensordot(c, a, axes=([2], [0]))
    return float(n / 32.0 * np.sum(np.abs(f) ** 2))


def casimir(a: np.ndarray, n: int) -> float:
    """``−Σ g^kl tr(A_k A_l) = (n/2) Σ_k ‖A_k‖²`` for anti-Hermitian A."""
    return float(n / 2.0 * np.sum(np.abs(a) ** 2))


def check_descent(start: np.ndarray, result, c: np.ndarray, n: int, casimir_reported: float) -> list[str]:
    """Problems with one descent, an empty list when there are none.

    ``start`` is the coefficient array handed to ``minimize``; ``result`` its
    ``MinimizeResult``; ``c`` the frame's structure constants, built here.
    """
    a = np.asarray(result.connection.coeffs)
    r = a.shape[-1]
    problems = []
    if not result.converged:
        problems.append(f"not converged after {result.iterations} iterations")
    scale = max(1.0, float(np.sqrt(np.sum(np.abs(a) ** 2))))
    herm = float(np.sqrt(np.sum(np.abs(a + np.conj(np.swapaxes(a, -1, -2))) ** 2)))
    if not herm <= ALG_RTOL * scale:
        problems.append(f"coefficients not anti-Hermitian ({herm:.3e})")
    s0 = ym_action(start, c, n)
    s1 = ym_action(a, c, n)
    if not 0.0 <= s1 <= s0:
        problems.append(f"final action {s1:.6e} outside [0, {s0:.6e}]")
    if not abs(result.action - s1) <= ALG_RTOL * max(1.0, s0):
        problems.append(f"reported action {result.action:.6e} != {s1:.6e}")
    resid = curvature_residual(a, c)
    if not resid <= FLAT_TOL:
        problems.append(f"curvature residual {resid:.3e} above {FLAT_TOL:.0e}")
    cas = casimir(a, n)
    if not abs(casimir_reported - cas) <= ALG_RTOL * max(1.0, cas):
        problems.append(f"reported Casimir {casimir_reported:.12g} != {cas:.12g}")
    if r == n:
        top = n * (n * n - 1)
        if not min(abs(cas), abs(cas - top)) <= FLAT_TOL * top:
            problems.append(f"Casimir {cas:.12g} is neither 0 nor {top}")
    return problems


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

def _shift(x: np.ndarray, axis: int) -> np.ndarray:
    """``x(site + e_axis)`` on a periodic lattice."""
    size = x.shape[axis]
    return np.take(x, (np.arange(size) + 1) % size, axis=axis)


def lattice_action(a: np.ndarray, b: np.ndarray, c: np.ndarray, mu: float) -> float:
    """The three-term action of the ``ncgauge.lattice`` docstring:

        Σ_x [ (1/4n) Σ_{μ≠ν} ‖F_μν‖² + (μ²/8n²) Σ_{μk} ‖D_μ b_k‖²
              + (μ⁴/16n²) Σ_{kl} ‖[b_k, b_l] − C^m_kl b_m‖² ]

    with forward periodic differences; ``a`` has shape ``(*dims, m, n, n)``
    and ``b`` shape ``(*dims, D, n, n)``.
    """
    m = a.shape[-3]
    n = a.shape[-1]
    total = 0.0
    for mu_dir in range(m):
        for nu_dir in range(m):
            if mu_dir == nu_dir:
                continue
            a_mu, a_nu = a[..., mu_dir, :, :], a[..., nu_dir, :, :]
            f = (
                (_shift(a_nu, mu_dir) - a_nu)
                - (_shift(a_mu, nu_dir) - a_mu)
                + a_mu @ a_nu
                - a_nu @ a_mu
            )
            total += float(np.sum(np.abs(f) ** 2)) / (4.0 * n)
    for mu_dir in range(m):
        a_mu = a[..., mu_dir, None, :, :]
        cov = (_shift(b, mu_dir) - b) + a_mu @ b - b @ a_mu
        total += mu**2 / (8.0 * n**2) * float(np.sum(np.abs(cov) ** 2))
    prod = b[..., :, None, :, :] @ b[..., None, :, :, :]
    h = prod - np.swapaxes(prod, -4, -3) - np.einsum("klm,...mab->...klab", c, b)
    total += mu**4 / (16.0 * n**2) * float(np.sum(np.abs(h) ** 2))
    return total


def gauge_fields(a: np.ndarray, b: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Site-wise gauge action ``a_μ ↦ g† a_μ g + g† Δ_μ g``, ``b_k ↦ g† b_k g``;
    ``g`` has shape ``(*dims, n, n)``."""
    gh = np.conj(np.swapaxes(g, -1, -2))
    a_new = np.empty_like(a)
    for mu_dir in range(a.shape[-3]):
        a_new[..., mu_dir, :, :] = gh @ a[..., mu_dir, :, :] @ g + gh @ (_shift(g, mu_dir) - g)
    b_new = gh[..., None, :, :] @ b @ g[..., None, :, :]
    return a_new, b_new


def close(x: float, ref: float, rtol: float = ALG_RTOL) -> bool:
    return math.isfinite(x) and abs(x - ref) <= rtol * max(1.0, abs(ref))


def check_spectrum(eigs: np.ndarray, m: int, n: int, n_sites: int, mu: float) -> list[str]:
    """Broken-vacuum mass spectrum: ``m`` zero modes, then ``m(n² − 1)``
    eigenvalues equal to ``n_sites·μ²/n``."""
    eigs = np.sort(np.asarray(eigs, dtype=float))
    mass = n_sites * mu**2 / n
    problems = []
    if eigs.shape != (m * n * n,):
        return [f"expected {m * n * n} eigenvalues, got {eigs.shape}"]
    if not np.all(np.abs(eigs[:m]) <= SPECTRUM_RTOL * mass):
        problems.append(f"zero modes {eigs[:m]} not within {SPECTRUM_RTOL:.0e}·{mass:.6g} of 0")
    worst = float(np.max(np.abs(eigs[m:] / mass - 1.0)))
    if not worst <= SPECTRUM_RTOL:
        problems.append(f"massive modes off {mass:.6g} by relative {worst:.3e}")
    return problems


# ---------------------------------------------------------------------------
# spectral triples and the two-point model
# ---------------------------------------------------------------------------

def two_point_potential(phi: complex, m: np.ndarray) -> float:
    """``2 (|φ|² − 1)² tr((M†M)²)``, using ``tr(H²) = ‖H‖²`` for Hermitian H."""
    h = np.conj(m.T) @ m
    return 2.0 * (abs(phi) ** 2 - 1.0) ** 2 * float(np.sum(np.abs(h) ** 2))


def check_two_point_report(report, mass_nonzero: bool) -> list[str]:
    """Every line of a two-point audit passes, except ``first_order``, which
    fails exactly when the mass block is nonzero."""
    problems = []
    names = [ln.name for ln in report.lines]
    if "first_order" not in names or "dirac_self_adjoint" not in names:
        problems.append(f"audit lines missing: {names}")
    for ln in report.lines:
        expect = not (mass_nonzero and ln.name == "first_order")
        if not math.isfinite(ln.residual) or ln.passed != expect:
            problems.append(f"{ln.name}: passed={ln.passed} residual={ln.residual:.3e}, expected passed={expect}")
    return problems


def check_clean_report(report) -> list[str]:
    """Every audit line passes with its residual below ``RESIDUAL_TOL``."""
    return [
        f"{ln.name}: passed={ln.passed} residual={ln.residual:.3e}"
        for ln in report.lines
        if not (ln.passed and math.isfinite(ln.residual) and ln.residual < RESIDUAL_TOL)
    ]


# ---------------------------------------------------------------------------
# verify reports
# ---------------------------------------------------------------------------

VERIFY_SUITES = ("universal_forms", "matrix_calculus_n", "gauge_engine_n", "lattice_higgs_n", "spectral_core")


def check_verify_output(text: str, exit_code: int, n: int, seed: int) -> list[str]:
    """A ``verify`` JSON report: every check's residual is finite and below
    its own tolerance, read check by check (the ``passed`` flags are not
    trusted); the report covers the five suites at the requested n and seed."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if report.get("n") != n or report.get("seed") != seed:
        problems.append(f"report is for n={report.get('n')} seed={report.get('seed')}")
    suites = report.get("suites", [])
    names = [s.get("suite", "") for s in suites]
    expected = [p + (str(n) if p.endswith("_n") else "") for p in VERIFY_SUITES]
    if names != expected:
        problems.append(f"suites {names}, expected {expected}")
    for suite in suites:
        checks = suite.get("checks", [])
        if not checks:
            problems.append(f"{suite.get('suite')}: no checks")
        for chk in checks:
            res, tol = chk.get("residual"), chk.get("tolerance")
            if not (isinstance(res, (int, float)) and isinstance(tol, (int, float))
                    and math.isfinite(res) and res < tol):
                problems.append(f"{suite.get('suite')}.{chk.get('name')}: residual {res} tolerance {tol}")
    return problems
