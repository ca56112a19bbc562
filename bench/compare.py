"""Largest relative drift between the op outputs of two benchmark result files.

    python3 bench/compare.py BEFORE.json AFTER.json [--bound 1e-10]

Both files must come from the same workload and seed, so that every op had
the same inputs.  Each output is a vector of numbers (a scalar is a vector of
one, a complex number is [re, im]); its drift is max|after - before| divided
by max|before|.  Prints a JSON report with the maximum per output name and
overall.  Exit code 0, or 1 when ``--bound`` is given and the drift exceeds
it, or 2 when the files cannot be compared.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, Iterator, List, Tuple


def vectors(obj, path: str = "") -> Iterator[Tuple[str, List[float]]]:
    """(name, numbers) for every innermost list of numbers, or lone number."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from vectors(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list) and all(isinstance(x, (int, float)) for x in obj):
        yield path, [float(x) for x in obj]
    elif isinstance(obj, list):
        for value in obj:
            yield from vectors(value, path)
    elif isinstance(obj, (int, float)):
        yield path, [float(obj)]


def drift(before: List[float], after: List[float]) -> float:
    scale = max((abs(x) for x in before), default=0.0)
    gap = max((abs(a - b) for a, b in zip(after, before)), default=0.0)
    if scale == 0.0:
        return 0.0 if gap == 0.0 else math.inf
    return gap / scale


def compare(before: dict, after: dict) -> Dict[str, float]:
    """Drift per output name; raises ValueError when not comparable."""
    for key in ("workload", "seed"):
        if before[key] != after[key]:
            raise ValueError(f"{key} differs: {before[key]!r} vs {after[key]!r}")
    ops_a = before["workers"][0]["ops"]
    ops_b = after["workers"][0]["ops"]
    if [op["spec"] for op in ops_a] != [op["spec"] for op in ops_b]:
        raise ValueError("the files have different op inputs")
    report: Dict[str, float] = {}
    for op_a, op_b in zip(ops_a, ops_b):
        if op_a["outputs"] is None or op_b["outputs"] is None:
            raise ValueError(f"op {op_a['spec']} failed in one of the files")
        prefix = op_a["spec"].get("kind", "")
        pairs = zip(vectors(op_a["outputs"], prefix), vectors(op_b["outputs"], prefix))
        for (name_a, vec_a), (name_b, vec_b) in pairs:
            if name_a != name_b or len(vec_a) != len(vec_b):
                raise ValueError(f"outputs of op {op_a['spec']} differ in shape")
            report[name_a] = max(report.get(name_a, 0.0), drift(vec_a, vec_b))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="relative drift between two results")
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--bound", type=float, help="exit 1 when the drift exceeds this")
    args = parser.parse_args(argv)
    try:
        with open(args.before) as fa, open(args.after) as fb:
            by_output = compare(json.load(fa), json.load(fb))
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: cannot compare: {exc!r}", file=sys.stderr)
        return 2
    worst = max(by_output.values(), default=0.0)
    print(json.dumps({"max_rel_drift": worst, "by_output": by_output}, indent=1))
    return 1 if args.bound is not None and worst > args.bound else 0


if __name__ == "__main__":
    sys.exit(main())
