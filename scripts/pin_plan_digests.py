#!/usr/bin/env python3
"""Rewrite tests/fixtures/plan_pins_1000.json from the current planner.

Builds the 1000-node pin input of tests/test_plan_pins.py in a temporary
directory, runs the dry run at each pinned factor, and writes the input's and
every step file's sha256. Run it when a change alters plan bytes on purpose.

Usage: PYTHONPATH=src python scripts/pin_plan_digests.py
"""

import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent / "tests"
sys.path.insert(0, str(TESTS))

from test_plan_pins import DIGESTS, all_digests  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        digests = all_digests(Path(work))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}: {sum(len(d) for d in digests.values())} digests")


if __name__ == "__main__":
    main()
