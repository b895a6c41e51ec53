"""Repo hygiene guards (run in CI's lint job and as plain tests)."""

import ast
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_budget_script_passes():
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "check_budgets.py")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "src/repro/sim/smcore.py" in proc.stdout
    assert "src/ total" in proc.stdout


def test_src_total_under_budget():
    """Deletions stick: the whole ``src/`` tree stays within the ratcheted
    total line budget, and the guard counts what ``wc -l`` would."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "check_budgets", REPO / "scripts" / "check_budgets.py")
    budgets = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(budgets)
    total = sum(path.read_bytes().count(b"\n")
                for path in (REPO / "src").rglob("*.py"))
    assert budgets.src_lines(REPO) == total
    assert total <= budgets.SRC_TOTAL_BUDGET, (
        f"src/ is {total} lines, budget {budgets.SRC_TOTAL_BUDGET}")


def test_smcore_under_budget():
    """The SM core must stay under 700 lines: pipeline logic belongs in
    src/repro/pipeline stages, not on the core (DESIGN.md §13)."""
    lines = (REPO / "src/repro/sim/smcore.py").read_text().count("\n")
    assert lines <= 700, f"sim/smcore.py is {lines} lines"


def test_no_duplicated_decision_logic():
    """The reuse/verify decision logic must exist only in the pipeline
    package — neither executor file may reimplement it."""
    for rel in ("src/repro/sim/smcore.py", "src/repro/sim/exec_engine.py"):
        text = (REPO / rel).read_text()
        for marker in ("load_may_reuse", "lookup_outcome", "verify_reads",
                       "hash_generations"):
            assert marker not in text, f"{rel} reimplements {marker}"


#: Cold paths allowed to bump a counter through ``StatGroup`` attribute
#: access: (file under src/repro, enclosing function, counter).
COLD_COUNTER_BUMPS = {
    ("core/vsb.py", "note_false_positive", "false_positives"),
    ("core/wir_unit.py", "_allocate_register_inner",
     "low_register_mode_entries"),
}


def _counter_bumps(path: Path):
    """``(function, counter)`` of every ``<expr>.stats.<name> op= ...`` or
    ``<expr>.counters.<name> op= ...`` in one source file."""
    tree = ast.parse(path.read_text())
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            target = getattr(node, "target", None)
            if (isinstance(node, ast.AugAssign)
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr in ("stats", "counters")):
                found.append((func.name, target.attr))
    return found


def test_hot_counters_use_preloaded_handles():
    """Counters in the WIR structures and pipeline stages are bumped
    through ``StatGroup.handle`` objects, not attribute magic (DESIGN.md
    §8); only the listed cold paths are exempt."""
    src = REPO / "src" / "repro"
    bumps = {(path.relative_to(src).as_posix(), func, counter)
             for package in ("core", "pipeline")
             for path in sorted((src / package).rglob("*.py"))
             for func, counter in _counter_bumps(path)}
    assert bumps - COLD_COUNTER_BUMPS == set()
    assert COLD_COUNTER_BUMPS - bumps == set(), "stale allowlist entry"


def test_counter_bump_scanner_sees_attribute_magic(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("def f(self):\n    self.stats.hits += 1\n"
                      "    self.unit.counters.reads -= 2\n"
                      "    self._c_hits.value += 1\n")
    assert _counter_bumps(sample) == [("f", "hits"), ("f", "reads")]
