"""The mutation baseline names only mutants that tools/mutants.py makes."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_every_baseline_entry_is_a_mutant_the_tool_makes():
    # an edit to a listed line must carry its entry along, or the tool would
    # fail on the mutant under its new text
    tool = load_tool()
    entries = json.loads(tool.BASELINE.read_text())
    made = {tool.baseline_key(module, place)
            for module in {entry["module"] for entry in entries}
            for place, *_ in tool.mutants(tool.ROOT / tool.PACKAGE / f"{module}.py")}
    assert [entry for entry in entries
            if (entry["module"], entry["line"], entry["mutation"]) not in made] == []
    assert all(entry["verdict"] in ("survived", "timed out") and entry["reason"]
               for entry in entries)
