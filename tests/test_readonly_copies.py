"""Constructors keep a read-only copy of every array they are given: the
stored array cannot be written, and the caller's array stays writable and
independent of the object."""
from __future__ import annotations

import numpy as np
import pytest

from ncgauge import (
    DerForm,
    Derivation,
    FiniteSpectralTriple,
    LatticeConfig,
    MatrixBasis,
    MatrixConnection,
    RealStructure,
    UniversalForm,
)

B2 = MatrixBasis.gellmann(2)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)

# name -> (the caller's array, build an object from it, read the stored array)
CASES = {
    "MatrixConnection.coeffs": (
        lambda: np.zeros((3, 2, 2), dtype=complex),
        lambda x: MatrixConnection(B2, x),
        lambda obj: obj.coeffs,
    ),
    "Derivation.gamma": (
        lambda: 1j * SIGMA_Z,
        lambda x: Derivation(B2, x),
        lambda obj: obj.gamma,
    ),
    "Derivation.coeffs": (
        lambda: np.array([0.0, 0.0, 1.0], dtype=complex),
        lambda x: Derivation(B2, 1j * SIGMA_Z, x),
        lambda obj: obj.coeffs,
    ),
    "DerForm.components": (
        lambda: np.eye(2, dtype=complex),
        lambda x: DerForm.monomial(B2, (0,), x),
        lambda obj: obj.components[(0,)],
    ),
    "UniversalForm.values": (
        lambda: np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex),
        lambda x: UniversalForm(2, 1, x),
        lambda obj: obj.values,
    ),
    "LatticeConfig.a": (
        lambda: np.zeros((2, 1, 2, 2), dtype=complex),
        lambda x: LatticeConfig((2,), B2, x, np.zeros((2, 3, 2, 2), dtype=complex), 1.0),
        lambda obj: obj.a,
    ),
    "LatticeConfig.b": (
        lambda: np.zeros((2, 3, 2, 2), dtype=complex),
        lambda x: LatticeConfig((2,), B2, np.zeros((2, 1, 2, 2), dtype=complex), x, 1.0),
        lambda obj: obj.b,
    ),
    "RealStructure.u": (
        lambda: np.eye(2, dtype=complex),
        lambda x: RealStructure(x),
        lambda obj: obj.u,
    ),
    "FiniteSpectralTriple.generators": (
        lambda: np.eye(2, dtype=complex),
        lambda x: FiniteSpectralTriple((x,), SIGMA_Z),
        lambda obj: obj.generators[0],
    ),
    "FiniteSpectralTriple.d": (
        lambda: SIGMA_Z.copy(),
        lambda x: FiniteSpectralTriple((np.eye(2),), x),
        lambda obj: obj.d,
    ),
    "FiniteSpectralTriple.gamma": (
        lambda: SIGMA_Z.copy(),
        lambda x: FiniteSpectralTriple((np.eye(2),), np.zeros((2, 2)), x),
        lambda obj: obj.gamma,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_constructor_stores_a_readonly_copy(name):
    make, build, read = CASES[name]
    x = make()
    obj = build(x)
    stored = read(obj).copy()
    x[...] += 1.0  # raises if construction froze the caller's array
    np.testing.assert_array_equal(read(obj), stored)
    with pytest.raises(ValueError):
        read(obj)[...] = 0.0
