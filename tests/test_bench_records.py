"""Every committed benchmark record carries the fields that all of them share,
so a malformed or truncated ``BENCH_*.json`` fails here."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

RECORDS = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))
TEXT_FIELDS = ("title", "claim")
TABLE_FIELDS = ("commits", "machine", "end_to_end", "kernels", "commands")


def test_records_are_found():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_holds_the_shared_fields(path):
    record = json.loads(path.read_text())
    for name in TEXT_FIELDS:
        assert isinstance(record.get(name), str) and record[name].strip(), name
    for name in TABLE_FIELDS:
        assert isinstance(record.get(name), dict) and record[name], name
    assert {"parent", "change"} <= record["commits"].keys()
    # a record that states a result also counts the source lines it changed
    if "result" in record:
        assert isinstance(record.get("src_lines"), dict) and record["src_lines"], "src_lines"
