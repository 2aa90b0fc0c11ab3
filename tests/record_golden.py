"""Rewrite tests/golden/ from the current code.

Use only for an intended report or drawing change, and say in CHANGES.md
why the reports or drawings changed:

    PYTHONPATH=src python3 tests/record_golden.py
"""

from __future__ import annotations

import sys

from test_golden import CASES, GOLDEN, OTHER_GOLDENS, SVG_CASES, drawing, report


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    kinds = (("json", CASES, report), ("svg", SVG_CASES, drawing))
    for suffix, cases, run in kinds:
        for stale in GOLDEN.glob(f"*.{suffix}"):
            if stale.stem not in cases and stale.name not in OTHER_GOLDENS:
                stale.unlink()
        for name, argv in sorted(cases.items()):
            code, out = run(argv)
            if code != 0:
                print(f"{name}: exit {code}", file=sys.stderr)
                return 1
            (GOLDEN / f"{name}.{suffix}").write_text(out, encoding="utf-8")
    print(f"wrote {len(CASES)} reports and {len(SVG_CASES)} drawings "
          f"to {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
