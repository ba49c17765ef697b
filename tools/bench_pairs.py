"""Paired same-session benchmark of two source checkouts, as one BENCH file.

    python3 tools/bench_pairs.py --parent <parent checkout> --change . \\
        --pairs wide-sketch=10,desk-heavytail=3,certify=3 \\
        --out BENCH_<n>.json

Pair i of a workload runs ``perfbench/run.py --trace 0 --seed <seed + i>``
once in each checkout, back to back; the parent goes first in even pairs and
the change in odd ones, so neither side always meets the host's slow phases.
Then each side runs one ``--trace 1`` wide-sketch op set (seed ``--seed``).
Every run lasts ``--seconds``, by default ``run_seconds`` of BENCHMARK.json.
The file keeps every run's metrics, per workload and end-to-end metric the
medians, the parent's interquartile range and the pairs the change wins, and
from the traced runs every per-layer metric, ``spans_missing``, the traced
and untraced step rates and the manifest.  Both checkouts need git metadata
only for the commit and ``src`` tree ids recorded beside them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}


def git_id(checkout: Path, rev: str) -> str | None:
    out = subprocess.run(["git", "-C", str(checkout), "rev-parse", rev],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its JSON line plus, for traced runs, the details."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{checkout}: {' '.join(cmd)} failed:\n{out.stdout}{out.stderr}")
    res = json.loads(lines[-1])
    run = {
        "correct": res["correct"],
        "failed_frac": res["failed"] / res["attempted"],
        "metrics": {k: v["value"] for k, v in res["metrics"].items()},
    }
    if trace:
        details = json.loads((checkout / ".perfbench" /
                              f"{workload}-seed{seed}-trace1.json").read_text())
        run.update({k: details[k] for k in (
            "manifest", "spans_missing", "steps_per_s", "self_time_share_by_layer")})
    return run


def summarize(pairs: list) -> dict:
    out = {}
    for name, better in BETTER.items():
        par = [p["parent"]["metrics"][name] for p in pairs]
        chg = [p["change"]["metrics"][name] for p in pairs]
        q1, _, q3 = statistics.quantiles(par, n=4) if len(par) > 1 else (par[0],) * 3
        wins = sum((c > p) if better == "higher" else (c < p) for p, c in zip(par, chg))
        out[name] = {
            "better": better,
            "parent_median": statistics.median(par),
            "change_median": statistics.median(chg),
            "median_rel_change": statistics.median(chg) / statistics.median(par) - 1.0,
            "parent_iqr": q3 - q1,
            "change_wins": wins,
            "ties": sum(c == p for p, c in zip(par, chg)),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, default=Path("."))
    ap.add_argument("--pairs", default="wide-sketch=10,desk-heavytail=3,certify=3")
    ap.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    result = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace T",
        "sides": {name: {"commit": git_id(d, "HEAD"), "src_tree": git_id(d, "HEAD:src")}
                  for name, d in sides.items()},
        "pairs": {},
        "summary": {},
        "traced": {},
    }
    for spec in args.pairs.split(","):
        workload, count = spec.split("=")
        pairs = []
        for i in range(int(count)):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for name in order:
                pair[name] = bench(sides[name], workload, seed, args.seconds, 0)
            print(workload, seed, {n: pair[n]["metrics"]["steps_per_s"] for n in order},
                  flush=True)
            pairs.append(pair)
        result["pairs"][workload] = pairs
        result["summary"][workload] = summarize(pairs)
    for name in ("parent", "change"):
        result["traced"][name] = bench(sides[name], "wide-sketch", args.seed, args.seconds, 1)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
