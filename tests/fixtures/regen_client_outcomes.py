#!/usr/bin/env python
"""Regenerate ``tests/fixtures/client_outcomes.json``.

Run from the repository root::

    PYTHONPATH=src python tests/fixtures/regen_client_outcomes.py

Only regenerate when a behaviour change is *intended*; the script prints,
per configuration, how many rows changed against the stored fixture so the
diff can be reviewed row by row (see ``tests/test_client_outcomes.py`` for
the schema).
"""

from __future__ import annotations

import json
import pathlib
import sys

# The canonical payload builder lives next to the tests so the fixture and
# the assertions can never drift apart.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from test_client_outcomes import FIXTURE_PATH, build_payload, render  # noqa: E402


def main() -> int:
    payload = json.loads(render(build_payload()))
    if FIXTURE_PATH.exists():
        previous = json.loads(FIXTURE_PATH.read_text(encoding="utf-8"))
        for key, rows in payload.items():
            old = previous.get(key, [])
            changed = sum(1 for index, row in enumerate(rows) if index >= len(old) or old[index] != row)
            if changed:
                print(f"{key}: {changed}/{len(rows)} rows changed")
    FIXTURE_PATH.write_text(render(payload), encoding="utf-8")
    print(f"wrote {FIXTURE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
