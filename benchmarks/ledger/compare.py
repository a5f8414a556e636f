"""Compare two ledger result sets: ``compare.py A.json B.json``.

``A`` is the base (the parent commit, or the first of two sets of the same
commit), ``B`` the other.  For every workload and end-to-end metric it
prints both values, the relative difference with ``A`` as its base, and
the bound ``BENCHMARK.json`` fixes, one row per workload and metric.

Exit status is non-zero when any workload of either set had a failed op,
or when ``B`` is worse than ``A`` by more than the bound.  When both sets
carry the same commit the check is symmetric — two sets of one commit must
*agree* within the bound, whichever reads better.
"""

from __future__ import annotations

import json
import sys

from run import load_spec


def relative_worsening(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``
    (negative when it is better)."""
    if not base:
        return 0.0
    change = (other - base) / base
    return change if better == "lower" else -change


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    """The report lines, and whether the comparison passes."""
    same_commit = a["stamp"]["commit"] == b["stamp"]["commit"] != "unknown"
    lines = [
        f"A: commit {a['stamp']['commit'][:12]} seed {a['stamp']['seed']}   "
        f"B: commit {b['stamp']['commit'][:12]} seed {b['stamp']['seed']}   "
        f"({'same commit: sets must agree' if same_commit else 'B must not be worse than A'})",
        f"{'workload':<14} {'metric':<14} {'A':>12} {'B':>12} {'B vs A':>9} {'bound':>7}  verdict",
    ]
    passed = True
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            lines.append(f"{name:<14} missing from one set")
            passed = False
            continue
        for label, side in (("A", a), ("B", b)):
            entry = side["workloads"][name]
            if entry["failed"] or not entry["correct"]:
                lines.append(
                    f"{name:<14} set {label}: {entry['failed']} of {entry['attempted']} failed"
                )
                passed = False
        for metric in spec["end_to_end"]:
            base = a["workloads"][name]["end_to_end"][metric["name"]]
            other = b["workloads"][name]["end_to_end"][metric["name"]]
            worse = relative_worsening(base, other, metric["better"])
            outside = abs(worse) > metric["bound"] if same_commit else worse > metric["bound"]
            if outside:
                verdict = "OUTSIDE BOUND"
                passed = False
            else:
                verdict = "better" if worse < -metric["bound"] else "ok"
            change = (other - base) / base if base else 0.0
            lines.append(
                f"{name:<14} {metric['name']:<14} {base:>12.5g} {other:>12.5g} "
                f"{change:>+9.1%} {metric['bound']:>7.0%}  {verdict}"
            )
    return lines, passed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    sets = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            sets.append(json.load(handle))
    lines, passed = compare(sets[0], sets[1], load_spec())
    print("\n".join(lines))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
