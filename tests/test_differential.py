import copy
import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "differential.py"
_SPEC = importlib.util.spec_from_file_location("differential", _PATH)
differential = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(differential)


def _record(inputs):
    checks = [differential.run_check(inp) for inp in inputs]
    data = {"inputs": inputs, "checks": checks, "maps": {"m": "lambda\n"}}
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
