"""Mutation testing of src/datamarket, with the standard library only.

Every comparison operator in src/datamarket/*.py is flipped in turn
(`<` <-> `<=`, `>` <-> `>=`, `==` <-> `!=`), and every int or float literal
is nudged (`x` -> `x + 1`), one mutant at a time, in a temporary copy of the
repository.  Each mutant runs the test files mapped to its module with
`pytest -x`; a mutant whose tests all pass survives, and one whose tests
outrun the time limit is timed out.  The tests run under a Hypothesis
profile with every phase but shrink, loaded by a pytest plugin written into
the copy: a failure ends its run as soon as it is found, so a mutant the
tests kill is not reported as timed out while Hypothesis shrinks its
failing example.  The survivors and the score (killed, timed out / total)
are printed.

Usage, from the root of a checkout:

    python3 tools/mutants.py                  # every module
    python3 tools/mutants.py optimize market  # only these modules

It is slow (one pytest run per mutant) and not part of the test suite.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from bisect import bisect_right
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "datamarket"
FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
         ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "==")}
# the test files run against a mutant of each module: its own, and those
# that drive it from another layer; the output corpus for the modules whose
# mutants can move a printed digit
TESTS = {
    "__init__": ["test_package.py"],
    "auction": ["test_auction.py", "test_acceptance.py"],
    "cli": ["test_cli.py", "test_fuzz.py", "test_output_corpus.py"],
    "csvio": ["test_csvio.py", "test_cli.py", "test_fuzz.py", "test_refusal_corpus.py"],
    "fitting": ["test_fitting.py", "test_acceptance.py"],
    "market": ["test_market.py", "test_auction.py", "test_simulate.py", "test_acceptance.py"],
    "optimize": ["test_optimize.py", "test_acceptance.py", "test_output_corpus.py"],
    "scenario": ["test_scenario.py", "test_cli.py"],
    "simulate": ["test_simulate.py", "test_acceptance.py", "test_output_corpus.py"],
}
# the unmutated runs' limit; a mutant, which may loop forever, gets three
# times its module's unmutated run and ten seconds more
TIMEOUT_S = 600
# the pytest plugin, a module in the copy's root, that loads the profile
PLUGIN = "mutants_no_shrink"
PLUGIN_SOURCE = """\
from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.shrink])
settings.load_profile("mutants")
"""


def mutants(path: Path) -> list[tuple[str, int, int, str]]:
    """(place, byte start, byte end, new) of each operator flip and literal
    nudge in path, in file order.

    place is `line:column: old -> new`.

    An operator lies between the operands around it; its place is found in
    the source bytes between them, past any brackets and comments.  A literal
    is its own node; those inside f-strings are skipped, as Python before 3.12
    does not place them reliably.
    """
    source = path.read_bytes()
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def offset(lineno: int, col: int) -> int:  # ast columns count UTF-8 bytes
        return starts[lineno - 1] + col

    tree = ast.parse(source)
    in_fstrings = {id(inner) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                   for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and type(node.value) in (int, float)
                and id(node) not in in_fstrings):
            at = offset(node.lineno, node.col_offset)
            end = offset(node.end_lineno, node.end_col_offset)
            old = source[at:end].decode("utf-8")
            new = repr(node.value + 1)
            found.append((f"{node.lineno}:{node.col_offset + 1}: {old} -> {new}",
                          at, end, new))
            continue
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if type(op) not in FLIPS:
                continue
            old, new = FLIPS[type(op)]
            lo = offset(left.end_lineno, left.end_col_offset)
            hi = offset(right.lineno, right.col_offset)
            gap = source[lo:hi].decode("utf-8")
            at = lo + len(gap[:gap.index(old)].encode("utf-8"))
            line = bisect_right(starts, at)
            found.append((f"{line}:{at - starts[line - 1] + 1}: {old} -> {new}",
                          at, at + len(old), new))
    return sorted(found, key=lambda mutant: mutant[1])


def run_tests(copy: Path, tests: list[str], timeout: float) -> bool | None:
    """Whether the tests pass in copy, or None if they outrun timeout seconds."""
    # python -m puts the copy's root, which holds PLUGIN, on sys.path
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "-p", PLUGIN, *(f"tests/{name}" for name in tests)]
    # no bytecode caches: a same-size mutant written within the second of the
    # last one could otherwise run from the stale cache
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(command, cwd=copy, env=env, capture_output=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    return proc.returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*", help="module names (default: all)")
    args = parser.parse_args()
    modules = args.modules or sorted(path.stem for path in (ROOT / PACKAGE).glob("*.py"))
    unknown = sorted(set(modules) - set(TESTS))
    if unknown:
        parser.error(f"no tests mapped for {', '.join(unknown)}")

    plan = [(module, *mutant) for module in modules
            for mutant in mutants(ROOT / PACKAGE / f"{module}.py")]
    survivors, timed_out = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".perfbench", ".hypothesis", "__pycache__", ".pytest_cache"))
        (copy / f"{PLUGIN}.py").write_text(PLUGIN_SOURCE)
        timeouts = {}
        for module in modules:
            began = time.perf_counter()
            if not run_tests(copy, TESTS[module], TIMEOUT_S):
                print(f"{module}: its tests fail unmutated; fix them first")
                return 1
            timeouts[module] = 3 * (time.perf_counter() - began) + 10
        for i, (module, place, start, end, new) in enumerate(plan, 1):
            target = copy / PACKAGE / f"{module}.py"
            original = target.read_bytes()
            target.write_bytes(original[:start] + new.encode() + original[end:])
            began = time.perf_counter()
            survived = run_tests(copy, TESTS[module], timeouts[module])
            target.write_bytes(original)
            name = f"{PACKAGE / module}.py:{place}"
            verdict = {True: "SURVIVED", False: "killed", None: "timed out"}[survived]
            print(f"[{i}/{len(plan)}] {verdict} {name} "
                  f"({time.perf_counter() - began:.1f} s)", flush=True)
            if survived:
                survivors.append(name)
            timed_out += survived is None
    killed = len(plan) - len(survivors) - timed_out
    print(f"\nsurvivors ({len(survivors)}):")
    for name in survivors:
        print(f"  {name}")
    print(f"score: {killed} killed, {timed_out} timed out, of {len(plan)}"
          f" ({100.0 * (killed + timed_out) / len(plan):.1f}% not survived)"
          if plan else "score: no mutants")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
