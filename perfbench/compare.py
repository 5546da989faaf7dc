#!/usr/bin/env python3
"""Compare two results that run.py wrote to `.perfbench/`.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) when the environment stamps differ, so results of the
compiled and the pure kernels, of two Python versions, core counts,
workloads, seeds or trace modes are never set side by side.
"""

from __future__ import annotations

import json
import sys


class StampMismatch(Exception):
    pass


def compare(base: dict, new: dict) -> list:
    """One line per metric: base value, new value and relative change."""
    if base["stamp"] != new["stamp"]:
        diff = {k: (base["stamp"].get(k), new["stamp"].get(k))
                for k in base["stamp"].keys() | new["stamp"].keys()
                if base["stamp"].get(k) != new["stamp"].get(k)}
        raise StampMismatch(f"environment stamps differ: {diff}")
    lines = []
    for name, old in base["result"]["metrics"].items():
        value = new["result"]["metrics"][name]["value"]
        change = f"{(value - old['value']) / old['value']:+.1%}" if old["value"] else "n/a"
        lines.append(f"{name}: {old['value']:.6g} -> {value:.6g} {old['unit']} ({change})")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        base, new = json.load(fa), json.load(fb)
    try:
        lines = compare(base, new)
    except StampMismatch as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
