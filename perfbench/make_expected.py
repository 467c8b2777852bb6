"""Regenerate ``expected_grid.json``: digests of every RunRecord a grid draw can produce.

Run from the repository root after a change that is meant to alter grid
results (and only then)::

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from inputs import GRID_POOL  # noqa: E402
from oracle import EXPECTED_PATH, cell_label, record_digest  # noqa: E402


def main() -> None:
    from repro.suite import Harness
    from repro.suite.matrices import suite_by_name

    by_name = suite_by_name()
    harness = Harness()
    table = {}
    for name in GRID_POOL:
        records = harness.run_suite([by_name[name]], n_jobs=1)
        table[name] = [[cell_label(r), record_digest(r)] for r in records]
        print(f"{name}: {len(records)} records", flush=True)
    EXPECTED_PATH.write_text(
        json.dumps({"harness": "Harness() defaults", "matrices": table}, indent=1) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    main()
