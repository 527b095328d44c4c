"""The JSON text of records is pinned byte for byte, and every complex array
goes through the one ``{"re", "im"}`` codec."""
from __future__ import annotations

import json

import numpy as np
import pytest

from ncgauge import (
    ConfigError,
    DerForm,
    Derivation,
    LatticeConfig,
    MatrixBasis,
    MatrixConnection,
    MinimizeResult,
    RealStructure,
    inner_gauge,
    sm_algebra_fixture,
    trivial_triple,
    two_point_one_form,
    two_point_triple,
)
from ncgauge.spectral import triple_from_json, triple_to_json

TRIVIAL_TRIPLE_JSON = (
    '{"algebra": "C", "d": {"im": [[0.0]], "re": [[0.0]]}, '
    '"gamma": {"im": [[0.0]], "re": [[1.0]]}, '
    '"generators": [{"im": [[0.0]], "re": [[1.0]]}], "hilbert_dim": 1, '
    '"j": {"conjugate": true, "u": {"im": [[0.0]], "re": [[1.0]]}}, "ko_dim": 0}'
)

DERFORM_RECORD_JSON = (
    '{"n": 2, "dim": 3, "components": ['
    '{"indices": [], "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}, '
    '{"indices": [1], "re": [[0.5, -0.0], [1.0, 0.0]], "im": [[0.0, -2.0], [1.0, 0.0]]}]}'
)


def test_trivial_triple_json_text():
    assert triple_to_json(trivial_triple()) == TRIVIAL_TRIPLE_JSON


def test_derform_record_text():
    b = MatrixBasis.gellmann(2)
    w = DerForm(b, {(1,): np.array([[0.5, -2j], [1 + 1j, 0]]), (): np.eye(2)})
    assert json.dumps(w.to_record()) == DERFORM_RECORD_JSON
    back = DerForm.from_record(b, json.loads(DERFORM_RECORD_JSON))
    assert (back - w).norm() == 0.0


@pytest.mark.parametrize("flag", [False, None, 1, "true"])
def test_triple_json_accepts_only_an_antiunitary_real_structure(flag):
    payload = json.loads(triple_to_json(two_point_triple(1, np.eye(1))))
    payload["j"]["conjugate"] = flag
    with pytest.raises(ConfigError):
        triple_from_json(json.dumps(payload))


#: builders of each record that holds arrays: two calls give equal contents
RECORDS = {
    "MatrixBasis": lambda: MatrixBasis.from_matrices(MatrixBasis.gellmann(2).mats),
    "MatrixConnection": lambda: MatrixConnection.canonical_flat(MatrixBasis.gellmann(2)),
    "Derivation": lambda: Derivation.frame(MatrixBasis.gellmann(2), 0),
    "LatticeConfig": lambda: LatticeConfig(
        (2,), MatrixBasis.gellmann(2), np.zeros((2, 1, 2, 2)), np.zeros((2, 3, 2, 2)), 1.0
    ),
    "UniversalForm": lambda: two_point_one_form(0.5, 2.0),
    "RealStructure": lambda: RealStructure(np.eye(2)),
    "FiniteSpectralTriple": lambda: two_point_triple(2, np.eye(2)),
    "InnerGaugeResult": lambda: inner_gauge(
        two_point_triple(2, np.eye(2)), np.array([1.0, 1j]), two_point_one_form(0.5, 2.0)
    ),
    "SMFixture": sm_algebra_fixture,
    "MinimizeResult": lambda: MinimizeResult(
        MatrixConnection.zero(MatrixBasis.gellmann(2)), 0.0, 0.0, 0, True
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_compare_and_hash_by_identity(name):
    # a record that holds arrays equals itself only; MatrixBasis.same_as compares contents
    x, rebuilt = RECORDS[name](), RECORDS[name]()
    assert x == x and x != rebuilt and not x == rebuilt
    assert {x: 1}[x] == 1 and rebuilt not in {x: 1}
