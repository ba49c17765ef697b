"""Paired same-session benchmark of two source checkouts, as one BENCH file.

    python3 tools/bench_pairs.py --parent <parent checkout> --change <change checkout> \\
        --pairs wide-sketch=10,desk-heavytail=3,certify=3 \\
        --out BENCH_<n>.json

Pair i of a workload runs ``perfbench/run.py --trace 0 --seed <seed + i>``
once in each checkout, back to back; the parent goes first in even pairs and
the change in odd ones, so neither side always meets the host's slow phases.
Then each side runs one ``--trace 1`` op set (seed ``--seed``) of every
workload in ``--pairs``, back to back: the parent goes first for the first,
third, ... workload and the change for the others, as
``traced_first[<workload>]`` records.  The per-layer figures still come from
one traced run per side.  Every run lasts ``--seconds``, by default
``run_seconds`` of BENCHMARK.json.  The file keeps every run's metrics, per
workload and end-to-end metric the medians, the parent's interquartile range
and the pairs the change wins, and from the traced runs, under
``traced[<workload>][<side>]``, every per-layer metric, ``spans_missing``,
the traced and untraced step rates and the manifest.  Each run's last line
is parsed as strict JSON: a NaN or an infinity in it stops the tool, as it
is no result.  ``metrics_missing[<workload>][<side>]`` lists the
``per_layer`` names of BENCHMARK.json that a traced side did not print; the
tool writes the file, then exits 1 when any side misses one.

Each untraced run also keeps its details file's ``unscaled`` figures (times
as measured) and ``no_sample_frac``, the share of its ops that ended before
the host sampler's first sample (``ref_ms == REF_MS``) and so were scaled
by 1.  Ops near that first sample (``SAMPLE_S`` of ``perfbench/hostspeed.py``)
are scaled by 1 or by the host's sampled speed depending on whether they end
before it, so a faster change can read far faster scaled than unscaled.
The summary gives the unscaled figures as ``unscaled.<metric>`` beside the
scaled ones, and ``no_sample_frac`` per side.  Every run keeps its ``exit_code``, which
is nonzero when an op or a gate failed.  ``args`` keeps the
``--pairs``, ``--seed`` and ``--seconds`` that regenerate the file.  Both
checkouts need git metadata only for the commit and ``src`` tree ids recorded
beside them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from hostspeed import REF_MS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
DECLARED = [m["name"] for m in BENCHMARK["per_layer"]]
# unscaled figures of an untraced run's details file, as perfbench/run.py names them
UNSCALED = {"steps_per_s": "higher", "op_ms_p50": "lower", "op_ms_p90": "lower"}


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
    try:
        res = json.loads(lines[-1], parse_constant=_reject_constant)
    except ValueError as e:
        raise SystemExit(f"{checkout}: {' '.join(cmd)}: last line is not strict JSON: {e}")
    run = {
        "exit_code": out.returncode,
        "correct": res["correct"],
        "failed_frac": res["failed"] / res["attempted"],
        "metrics": {k: v["value"] for k, v in res["metrics"].items()},
    }
    details = json.loads((checkout / ".perfbench" /
                          f"{workload}-seed{seed}-trace{trace}.json").read_text())
    if trace:
        run.update({k: details[k] for k in (
            "manifest", "spans_missing", "steps_per_s", "self_time_share_by_layer")})
    else:
        refs = details["ref_ms"]
        run["unscaled"] = details["unscaled"]
        run["no_sample_frac"] = sum(r == REF_MS for r in refs) / len(refs)
    return run


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def summarize(pairs: list) -> dict:
    out = _compare(pairs, BETTER, lambda run, name: run["metrics"][name])
    unscaled = _compare(pairs, UNSCALED, lambda run, name: run["unscaled"][name])
    out.update({f"unscaled.{name}": v for name, v in unscaled.items()})
    out["no_sample_frac"] = {
        f"{side}_median": statistics.median(p[side]["no_sample_frac"] for p in pairs)
        for side in ("parent", "change")
    }
    return out


def _compare(pairs: list, better_of: dict, value) -> dict:
    """Per metric of ``better_of``: each side's median, the parent's IQR and
    the pairs the change wins, reading a run's figure with ``value``."""
    out = {}
    for name, better in better_of.items():
        par = [value(p["parent"], name) for p in pairs]
        chg = [value(p["change"], name) for p in pairs]
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


def _order(i: int) -> tuple[str, str]:
    """The sides in the order they run: the parent first when ``i`` is even."""
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


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
        "args": {"pairs": args.pairs, "seed": args.seed, "seconds": args.seconds},
        "pairs": {},
        "summary": {},
        "traced": {},
        "traced_first": {},
        "metrics_missing": {},
    }
    for spec in args.pairs.split(","):
        workload, count = spec.split("=")
        pairs = []
        for i in range(int(count)):
            seed = args.seed + i
            order = _order(i)
            pair = {"seed": seed, "first": order[0]}
            for name in order:
                pair[name] = bench(sides[name], workload, seed, args.seconds, 0)
            print(workload, seed, {n: pair[n]["metrics"]["steps_per_s"] for n in order},
                  flush=True)
            pairs.append(pair)
        result["pairs"][workload] = pairs
        result["summary"][workload] = summarize(pairs)
    for i, workload in enumerate(result["pairs"]):
        order = _order(i)
        result["traced_first"][workload] = order[0]
        traced = {name: bench(sides[name], workload, args.seed, args.seconds, 1) for name in order}
        result["traced"][workload] = {name: traced[name] for name in sides}
        result["metrics_missing"][workload] = {
            name: [m for m in DECLARED if m not in traced[name]["metrics"]] for name in sides
        }
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    missing = {(w, side): names for w, by_side in result["metrics_missing"].items()
               for side, names in by_side.items() if names}
    for (workload, side), names in missing.items():
        print(f"{workload} {side}: traced run lacks {', '.join(names)}", file=sys.stderr)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
