"""The committed benchmark trajectory: every BENCH_*.json at the repository
root parses and names what it measured, against what, and what it
claimed."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
REQUIRED = ("label", "parent_commit", "command", "claim")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_is_well_formed(path):
    doc = json.loads(path.read_text())
    assert isinstance(doc, dict)
    missing = [key for key in REQUIRED if key not in doc]
    assert not missing, f"{path.name} lacks {missing}"
    assert path.name == f"BENCH_{doc['label']}.json"
    assert isinstance(doc["command"], str) and doc["command"]
    assert isinstance(doc["parent_commit"], str) and doc["parent_commit"]
