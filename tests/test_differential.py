import copy
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from klstab.boundary import ReconstructionSpec
from klstab.scheme import template
from klstab.verdict import sweep

_PATH = Path(__file__).resolve().parents[1] / "tools" / "differential.py"
_SPEC = importlib.util.spec_from_file_location("differential", _PATH)
differential = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(differential)


def _record(inputs):
    checks = [differential.run_check(inp) for inp in inputs]
    grid = sweep(template("o3"), lambda s: ReconstructionSpec(3, 0, s), [0.4], [-0.4])
    cells = [differential.verdict_fields(v) for v in grid.results[0]]
    data = {
        "inputs": inputs,
        "checks": checks,
        "maps": {"m": "lambda\n"},
        "map_cells": {"m": cells},
    }
    return json.loads(json.dumps(data))


def test_differential_records_of_one_checkout_agree(tmp_path):
    inputs = differential.check_inputs(6)
    a, b = _record(inputs), _record(inputs)
    counts, _, _ = differential.differences(a, b)
    assert sum(counts.values()) == 0
    for name, data in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(data))
    files = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    assert differential.main(["compare", *files]) == 0

    changed = copy.deepcopy(b)
    changed["checks"][0]["status"] = "marginal"
    changed["maps"]["m"] = "sigma\n"
    counts, _, _ = differential.differences(a, changed)
    assert (counts["status"], counts["map m"]) == (1, 1)
    assert differential.compare(a, changed)[1]


@pytest.mark.parametrize(
    "field, value, fails",
    [
        (("diagnostics", "min_curve_distance"), 0.25, False),
        (("status",), "marginal", True),
    ],
)
def test_differential_compares_map_cells_as_verdicts(field, value, fails):
    # a map cell's diagnostic that changes is counted but does not fail
    # compare; its status, winding or zeros does, as a check's would
    a = _record(differential.check_inputs(1))
    changed = copy.deepcopy(a)
    target = changed["map_cells"]["m"][0]
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = value
    counts, _, _ = differential.differences(a, changed)
    name = "cell " + ("diagnostic " if len(field) > 1 else "") + field[-1]
    assert counts[name] == 1 and sum(counts.values()) == 1
    assert differential.compare(a, changed)[1] is fails


def test_differential_counts_the_roots_that_differ_bit_for_bit():
    batches = [
        {"scheme": "o3", "lam": 0.5, "radius": 2.0},
        {"scheme": "lw5", "lam": 1.0, "radius": 1.0 + 1e-4},
        {"scheme": "upwind", "lam": 2.0, "radius": 1.0},
    ]
    a = _record(differential.check_inputs(1))
    a["root_inputs"] = batches
    a["roots"] = json.loads(json.dumps([differential.record_roots(b) for b in batches]))
    # upwind at lambda 2: P_{-1} = 2 loses its leading coefficient
    assert a["roots"][2] == {
        "error": "ValueError: leading coefficient must be nonzero in every row"
    }
    assert np.shape(a["roots"][1]["re"]) == (129, 3)
    counts, _, _ = differential.differences(a, a)
    assert counts["roots"] == 0 and not differential.compare(a, a)[1]

    changed = copy.deepcopy(a)
    im = changed["roots"][1]["im"]
    im[7][2] = float(np.nextafter(im[7][2], np.inf))
    counts, _, _ = differential.differences(a, changed)
    assert counts["roots"] == 1 and differential.compare(a, changed)[1]
    changed["roots"][2] = a["roots"][0]  # a batch that raised on one side only
    counts, _, _ = differential.differences(a, changed)
    assert counts["roots"] == 1 + np.size(a["roots"][0]["re"])

    changed["root_inputs"] = batches[:2]
    with pytest.raises(ValueError):
        differential.differences(a, changed)
