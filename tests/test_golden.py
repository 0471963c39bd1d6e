"""The reference commands' outputs against their pins in ``tests/golden``."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_record", Path(__file__).with_name("golden") / "record.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(golden.OUTPUTS.read_text(encoding="utf-8"))


def test_pins_cover_every_reference_command(pinned):
    assert list(pinned) == list(golden.COMMANDS)


@pytest.mark.parametrize("name", list(golden.COMMANDS))
def test_command_matches_its_pin(pinned, tmp_path, name):
    fresh = json.loads(json.dumps(golden.run(golden.COMMANDS[name], tmp_path)))
    assert golden.compare(pinned[name], fresh, name) == []


def test_compare_judges_each_key_by_its_rule():
    base = {"lambda": [0.5], "residual": [1e-10], "z0": [0.6]}
    assert golden.compare(base, {"lambda": [0.5], "residual": [1e-10 + 5e-14], "z0": [0.6 * (1 + 5e-13)]}) == []
    assert golden.compare(base, {"lambda": [math.nextafter(0.5, 1.0)], "residual": [1e-10], "z0": [0.6]})
    assert golden.compare(base, {"lambda": [0.5], "residual": [1e-10 + 2e-13], "z0": [0.6]})
    assert golden.compare(base, {"lambda": [0.5], "residual": [1e-10], "z0": [0.6 * (1 + 2e-12)]})
    assert golden.compare(base, {"lambda": [0.5, 1.0], "residual": [1e-10], "z0": [0.6]})
    assert golden.compare({"passed": True}, {"passed": False})
