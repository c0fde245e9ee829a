"""``tools/artifact_drift.py``: which differences are numbers, which are structure."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "artifact_drift.py"
_SPEC = importlib.util.spec_from_file_location("artifact_drift", _PATH)
drift = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(drift)


def test_drift_pairs_every_number_an_artifact_holds():
    old = {"psi": 0.5, "bh": None, "checks": [
        {"name": "bound_slack", "passed": True, "detail": "cos_phi = 0.25, slack = 1e-3"}]}
    new = {"psi": 0.5000001, "bh": None, "checks": [
        {"name": "bound_slack", "passed": True, "detail": "cos_phi = 0.25, slack = 2e-3"}]}
    assert list(drift._numbers(old, new, "")) == [
        ("psi", 0.5, 0.5000001),
        ("checks[bound_slack].detail#0", 0.25, 0.25),
        ("checks[bound_slack].detail#1", 1e-3, 2e-3),
    ]


@pytest.mark.parametrize("old,new", [
    ({"a": 1.0}, {"b": 1.0}),
    ({"a": 1.0, "b": 2.0}, {"b": 2.0, "a": 1.0}),
    ([1.0], [1.0, 2.0]),
    ({"a": "x"}, {"a": "y"}),
    ({"a": 1.0}, {"a": "1.0"}),
    ({"a": True}, {"a": 1.0}),
    ({"a": None}, {"a": 0.0}),
    ("1'theta = 1.0 vs g0 = 1.0", "1'theta = 1.0 vs g1 = 1.0"),
])
def test_drift_refuses_a_structural_difference(old, new):
    with pytest.raises(drift.Structural):
        list(drift._numbers(old, new, ""))


def test_drift_reads_csv_cells_and_weights_json(tmp_path):
    old, new, short = tmp_path / "old.csv", tmp_path / "new.csv", tmp_path / "short.csv"
    old.write_text('k,flag,weights_json\n0.5,1,"[0.25, 0.75]"\n')
    new.write_text('k,flag,weights_json\n0.5,1,"[0.25, 0.7500001]"\n')
    short.write_text("k,flag,weights_json\n0.5,1\n")
    leaves = list(drift._numbers(drift._load(str(old)), drift._load(str(new)), ""))
    assert leaves[-1] == ("weights_json[*][*]", 0.75, 0.7500001)
    assert len(leaves) == 4
    with pytest.raises(drift.Structural):
        drift._load(str(short))
