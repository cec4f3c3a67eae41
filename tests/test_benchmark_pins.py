"""The benchmark's pinned partition labels, reproduced from the library.

``perfbench/pins.json`` holds, for each conjugacy partition command, the atom
count and a digest of the labels ``perfbench/pin.py`` computes from an exact
model IET.  This test imports ``pin`` read only, rebuilds the same models in a
temporary directory and checks that ``pin.model_labels`` still gives every
pinned value, so a change to the class names fails here before it reaches the
benchmark.  It writes nothing under ``perfbench/``.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def tree_state(root):
    return {p: p.stat().st_mtime_ns for p in root.rglob("*")}


@pytest.fixture
def pin(monkeypatch):
    """``perfbench/pin.py`` imported without writing its bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import pin

    yield pin
    for name in ("pin", "checks", "workloads"):
        sys.modules.pop(name, None)


def test_model_labels_reproduce_the_pinned_labels(pin, tmp_path):
    from gietlab import fileio
    from gietlab.combinatorics import rauzy_class
    from gietlab.thurston import build_reference

    before = tree_state(PERFBENCH)
    pins = json.loads((PERFBENCH / "pins.json").read_text())
    # the models of ``pin.main``, built from the conjugacy inputs
    pin.workloads.set_up("conjugacy", tmp_path, 0)
    m2 = fileio.load_map(str(tmp_path / "m2.json"))
    path60 = fileio.load_map(str(tmp_path / "f4.json")).rauzy_path(60).path
    models = {
        "f2@21": m2,
        "m2@21": m2,
        "f4@40": fileio.load_map(str(tmp_path / "m4.json")),
        "f4@60": build_reference(
            pin.workloads.completed(path60, rauzy_class(path60.source))).base_iet,
    }
    assert set(models) == set(pins)
    for key, T in models.items():
        labels = pin.model_labels(T, int(key.split("@")[1]))
        assert len(labels) == pins[key]["atoms"], key
        assert pin.checks.label_digest(labels) == pins[key]["labels"], key
    assert tree_state(PERFBENCH) == before
