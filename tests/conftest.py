"""Shared fixtures, and the summary hook: the acceptance gate and the source size."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from ncgauge import MatrixBasis, gellmann_basis

# Result lines registered by tests/test_acceptance.py; printed at the end of
# every run so the gate verdict is visible regardless of output capturing.
ACCEPTANCE_LINES: list[str] = []

#: the package's modules, whose line counts every run reports
SOURCE = Path(__file__).resolve().parent.parent / "src" / "ncgauge"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance gate")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    # lines as ``wc -l`` counts them
    lines = {path.name: path.read_bytes().count(b"\n") for path in sorted(SOURCE.glob("*.py"))}
    terminalreporter.section("source size")
    terminalreporter.write_line(f"src/ncgauge/*.py: {sum(lines.values())} lines in {len(lines)} modules")
    terminalreporter.write_line(", ".join(f"{name} {count}" for name, count in lines.items()))


@pytest.fixture(scope="session")
def basis2() -> MatrixBasis:
    return MatrixBasis.gellmann(2)


@pytest.fixture(scope="session")
def basis3() -> MatrixBasis:
    return MatrixBasis.gellmann(3)


def skewed_frame_of(n: int) -> tuple[MatrixBasis, np.ndarray]:
    """The frame ``E'_k = Σ_l T_kl E_l`` of ``M_n`` for a fixed
    well-conditioned real ``T = 1 + 0.3 R``, returned with ``T``; its
    metric ``T g Tᵀ`` is far from diagonal."""
    dim = n * n - 1
    t = np.eye(dim) + 0.3 * np.random.default_rng(100 + n).standard_normal((dim, dim))
    return MatrixBasis.from_matrices(np.einsum("kl,lab->kab", t, gellmann_basis(n))), t


@pytest.fixture(scope="session")
def skewed_frame():
    """``skewed_frame(n)`` is ``skewed_frame_of(n)``."""
    return skewed_frame_of


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
