"""The JSON text of records is pinned byte for byte, and every complex array
goes through the one ``{"re", "im"}`` codec."""
from __future__ import annotations

import json

import numpy as np
import pytest

from ncgauge import ConfigError, DerForm, MatrixBasis, trivial_triple, two_point_triple
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
