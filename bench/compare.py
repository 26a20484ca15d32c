"""Compare two checkouts with alternating pairs of benchmark runs.

    python3 bench/compare.py BASE CHANGE --workload NAME [--seed N]
                             [--trace 0|1] [--out pairs.jsonl]

BASE and CHANGE are checkout roots; each side runs its own ``bench/run.py``
with the same arguments, ten times, and the side that runs first alternates
from pair to pair.  Every result line is appended to ``--out`` (default
``.bench_out/pairs.jsonl``).

The report refuses to compare fewer than ten pairs, or runs whose machine
record (nproc, CPU model, Python, numpy and scipy versions) or benchmark code
differ.  For each metric
it prints each side's median and quartiles, how many pairs the change won,
and a verdict by the rules in README.md: a gain needs at least nine tenths of
the pairs and a median difference larger than the base's own quartile
spread; a regression is a median worse than the base's by more than the
bound in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
PAIRS = 10


def run_side(root: Path, args: argparse.Namespace) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("record "):
        raise SystemExit(f"benchmark failed in {root}:\n{proc.stderr[-2000:]}")
    return {"record": json.loads(lines[-2][len("record "):]),
            "result": json.loads(lines[-1])}


def report(rows: list[dict]) -> int:
    machines = {json.dumps(r["record"]["machine"], sort_keys=True) for r in rows}
    benches = {r["record"]["code"].get("bench_sha256") for r in rows}
    if len(machines) > 1:
        print("refused: results come from different machines:", file=sys.stderr)
        for m in sorted(machines):
            print("  " + m, file=sys.stderr)
        return 3
    if len(benches) > 1:
        print("refused: the two sides ran different benchmark code", file=sys.stderr)
        return 3
    info = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    base = [r for r in rows if r["side"] == "base"]
    change = [r for r in rows if r["side"] == "change"]
    pairs = min(len(base), len(change))
    if pairs < PAIRS:
        print(f"refused: {pairs} pairs, at least {PAIRS} are needed", file=sys.stderr)
        return 3
    print(f"{pairs} pairs; machine {machines.pop()}")
    for r in rows:
        if not r["result"]["correct"]:
            print(f"warning: a {r['side']} run was not correct "
                  f"({r['result']['failed']} of {r['result']['attempted']} failed)")
    for name in base[0]["result"]["metrics"]:
        b = [r["result"]["metrics"][name]["value"] for r in base]
        c = [r["result"]["metrics"][name]["value"] for r in change]
        unit = base[0]["result"]["metrics"][name]["unit"]
        higher = info.get(name, {}).get("better") == "higher"
        bound = info.get(name, {}).get("bound")
        wins = sum((y > x) if higher else (y < x) for x, y in zip(b, c))
        bq, cq = statistics.quantiles(b, n=4), statistics.quantiles(c, n=4)
        spread = bq[2] - bq[0]
        diff = cq[1] - bq[1]
        worse = -diff if higher else diff
        if wins >= 0.9 * pairs and abs(diff) > spread and worse < 0:
            verdict = "gain"
        elif bound is None:
            verdict = "no bound (per-layer)"
        elif bq[1] and worse > bound * abs(bq[1]):
            verdict = "REGRESSION"
        elif bq[1] and spread > bound * abs(bq[1]) and not all(
                ((y > x) if higher else (y < x)) for x in b for y in c):
            verdict = "unresolved (spread wider than bound)"
        else:
            verdict = "no change beyond bound"
        print(f"{name:44s} {unit:6s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  "
              f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  "
              f"wins {wins}/{pairs}  {verdict}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=Path(".bench_out/pairs.jsonl"))
    args = parser.parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text("", encoding="utf-8")
    rows = []
    for i in range(PAIRS):
        order = [("base", args.base), ("change", args.change)]
        for side, root in order if i % 2 == 0 else order[::-1]:
            row = {"side": side, "pair": i, **run_side(root.resolve(), args)}
            rows.append(row)
            with args.out.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(row) + "\n")
    return report(rows)


if __name__ == "__main__":
    sys.exit(main())
