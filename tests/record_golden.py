"""Rewrite tests/golden/ from the current code.

Use only for an intended report change, and say in CHANGES.md why the
reports changed:

    PYTHONPATH=src python3 tests/record_golden.py
"""

from __future__ import annotations

import sys

from test_golden import CASES, GOLDEN, report


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.json"):
        if stale.stem not in CASES:
            stale.unlink()
    for name, argv in sorted(CASES.items()):
        code, out = report(argv)
        if code != 0:
            print(f"{name}: exit {code}", file=sys.stderr)
            return 1
        (GOLDEN / f"{name}.json").write_text(out, encoding="utf-8")
    print(f"wrote {len(CASES)} reports to {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
