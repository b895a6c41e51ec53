#!/usr/bin/env python3
"""Source-budget guard: fail CI when capped sources regrow past their budget.

The PR that split ``sim/smcore.py`` into the declarative stage pipeline
(``src/repro/pipeline``) left the SM core under 700 lines; this guard keeps
future changes from quietly re-accreting pipeline logic onto the core
instead of adding a stage.  A second budget caps the total line count of
every ``*.py`` file under ``src/``, ratcheted down to the count left by the
last deletion, so removed code stays removed: growth past it must lower
something else or raise the budget here, in review.  Stdlib-only so it
runs anywhere (CI, hooks) without installing the project.

Usage: ``python scripts/check_budgets.py`` from anywhere in the repo.
Exit status 0 when every budget holds, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Repo-relative path -> maximum allowed line count.
BUDGETS = {
    "src/repro/sim/smcore.py": 700,
}

#: Maximum total line count of every ``*.py`` file under ``src/``.
SRC_TOTAL_BUDGET = 19683


def repo_root() -> Path:
    here = Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pyproject.toml").exists():
            return parent
    raise SystemExit(f"cannot locate repo root above {here}")


def check(root: Path) -> list[str]:
    failures = []
    for rel, budget in sorted(BUDGETS.items()):
        path = root / rel
        if not path.exists():
            failures.append(f"{rel}: budgeted file is missing")
            continue
        lines = path.read_text().count("\n")
        status = "ok" if lines <= budget else "OVER"
        print(f"{rel}: {lines} lines (budget {budget}) {status}")
        if lines > budget:
            failures.append(
                f"{rel}: {lines} lines exceeds the {budget}-line budget — "
                "move logic into a pipeline stage (src/repro/pipeline) "
                "instead of growing the core")
    total = src_lines(root)
    status = "ok" if total <= SRC_TOTAL_BUDGET else "OVER"
    print(f"src/ total: {total} lines (budget {SRC_TOTAL_BUDGET}) {status}")
    if total > SRC_TOTAL_BUDGET:
        failures.append(
            f"src/ total: {total} lines exceeds the {SRC_TOTAL_BUDGET}-line "
            "budget — delete as much as you add, or justify raising it")
    return failures


def src_lines(root: Path) -> int:
    """Total line count of every ``*.py`` file under ``src/``."""
    return sum(path.read_text().count("\n")
               for path in (root / "src").rglob("*.py"))


def main() -> int:
    failures = check(repo_root())
    for failure in failures:
        print(f"budget violation: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
