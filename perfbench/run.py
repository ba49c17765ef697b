"""Layered benchmark for polarmuon.

    python3 perfbench/run.py --workload {desk-heavytail,wide-sketch,certify}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Ops are ``polarmuon.cli.main([...])`` calls made in this process
on inputs generated from ``--seed``; op outputs are checked after each op.

``--trace 0`` prints the end-to-end metrics, with times scaled to the host's
fast speed (``hostspeed.py``).  ``--trace 1`` runs
every op of the untraced run twice, once plain and once with every wrap
point of ``tracer.py`` active, and prints the per-layer metrics.  The last stdout line
is one JSON object; details (manifest, op times, span table, the first ops'
spans) go to ``.perfbench/<workload>-seed<N>-trace<T>.json``.  The exit code
is nonzero when any op or gate fails.
"""

import os

# Single-threaded BLAS baseline, pinned before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ["POLARMUON_WORKERS"] = "1"

import argparse
import contextlib
import filecmp
import importlib.util
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 5

if not (SRC / "polarmuon" / "cli.py").is_file():
    sys.exit(f"perfbench: no polarmuon sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np

from polarmuon import cli

import probes
from hostspeed import REF_MS, HostSampler
from tracer import SPAN_NAMES, Tracer
from workloads import WORKLOADS, OpCheck

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "grad_ratio": "ratio",
}


def invoke(argv) -> tuple:
    """One op: ``cli.main(argv)`` with its printing captured.  Returns
    (exit code or error text, wall ms)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception:  # an op failure is counted, the run goes on
            rc = traceback.format_exc()
        ms = (time.perf_counter() - t0) * 1e3
    if rc != 0 and not isinstance(rc, str):
        rc = f"exit code {rc}: {buf.getvalue()[-500:]}"
    return rc, ms


# Times ``import polarmuon.cli`` in a fresh interpreter that has already
# imported numpy (through hostspeed); prints (own ms, mean sample ms).
_IMPORT_CODE = """
import sys, time
sys.path[:0] = [{here!r}, {src!r}]
import hostspeed
sampler = hostspeed.HostSampler()
with sampler:
    t0 = time.perf_counter()
    import polarmuon.cli
    ms = (time.perf_counter() - t0) * 1e3
print(*sampler.own_ms(ms))
"""


def timed(sampler, fn) -> tuple:
    """Run ``fn`` under ``sampler``; (its result, own ms, mean sample ms)."""
    with sampler:
        t0 = time.perf_counter()
        out = fn()
        ms = (time.perf_counter() - t0) * 1e3
    return (out, *sampler.own_ms(ms))


def set_up(wl, sampler) -> float:
    """One set-up, scaled to the host's fast speed: the import of
    ``polarmuon.cli`` in a fresh interpreter, timed inside it, plus the
    workload's input generation.  Returns seconds."""
    code = _IMPORT_CODE.format(here=str(HERE), src=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True)
    import_ms, import_ref = (float(x) for x in out.stdout.split())
    _, gen_ms, gen_ref = timed(sampler, wl.setup)
    return (import_ms / import_ref + gen_ms / gen_ref) * REF_MS / 1e3


def run_op(wl, i: int, out_dir: Path, tracer=None, sampler=None) -> dict:
    """Op ``i`` into ``out_dir``, traced or host-sampled when a tracer or a
    sampler is given, and the check of its outputs."""
    argv = wl.argv(i, out_dir)
    ref_ms = REF_MS
    if tracer is not None:
        with tracer:
            tracer.op = i
            rc, ms = invoke(argv)
            tracer.op = -1
    elif sampler is not None:
        (rc, _), ms, ref_ms = timed(sampler, lambda: invoke(argv))
    else:
        rc, ms = invoke(argv)
    if rc == 0:
        try:
            check = wl.inspect(i, out_dir)
        except (OSError, ValueError, IndexError, KeyError, StopIteration) as e:
            check = OpCheck(0, [], error=f"unreadable outputs: {e!r}")
    else:
        check = OpCheck(0, [], error=str(rc)[-500:])
    return {"ms": ms, "ref_ms": ref_ms, "units": check.units, "ratios": check.ratios,
            "seeds_aborted": check.seeds_aborted, "error": check.error}


def run_ops(wl, work: Path, seconds: float, tracer=None, sampler=None) -> tuple:
    """Run ops until their wall time adds up to ``seconds`` and ``wl.min_ops``
    are done.  Op 0 writes to ``op0`` so it can be compared with the warm-up
    run of the same op.  With a tracer every op also runs traced, right next
    to its untraced run, so both see the same host speed; which of the two
    goes first alternates.  Returns (untraced, traced) records."""
    records, traced = [], []
    op_s = 0.0
    while len(records) < wl.min_ops or op_s < seconds:
        i = len(records)
        name = "op0" if i == 0 else "op"
        passes = [(records, None, name)]
        if tracer is not None:
            passes.append((traced, tracer, f"traced-{name}"))
            if i % 2:
                passes.reverse()
        for out, t, out_name in passes:
            out.append(run_op(wl, i, work / out_name, t, sampler))
        op_s += records[-1]["ms"] / 1e3
    return records, traced


def same_outputs(a: Path, b: Path) -> bool:
    if not (a.is_dir() and b.is_dir()):
        return False
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    _match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def rate(records) -> float:
    """Work units completed per second of op wall time."""
    return sum(r["units"] for r in records) / sum(r["ms"] / 1e3 for r in records)


def scaled_ms(records) -> list:
    """Op times scaled to the host's fast speed (``REF_MS``)."""
    return [r["ms"] * REF_MS / r["ref_ms"] for r in records]


def end_to_end(records, setup_times, wl) -> dict:
    ms = scaled_ms(records)
    ratios = [x for r in records[: wl.min_ops] for x in r["ratios"]]
    return {
        "setup_s": statistics.median(setup_times),
        "steps_per_s": sum(r["units"] for r in records) / sum(ms) * 1e3,
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": float(np.percentile(ms, 90)),
        "grad_ratio": statistics.fmean(ratios) if ratios else float("nan"),
    }


def per_layer(tracer, probe, traced, untraced, extra) -> dict:
    out = {}
    for name in SPAN_NAMES:
        if name not in tracer.stats:
            continue  # wrap point missing from the package: metrics absent
        if name.startswith("suites."):
            out[f"{name}.ms"] = tracer.ms(name)
            continue
        out[f"{name}.calls"] = tracer.calls(name)
        out[f"{name}.ms"] = tracer.ms(name)
        out[f"{name}.self_ms"] = tracer.self_ms(name)
    out["runner.seeds_aborted"] = sum(r["seeds_aborted"] for r in traced)
    calls = tracer.calls("sketch.randomized_polar")
    if calls and probe.ell_sum:
        out["sketch.basis_rank_frac"] = probe.rank_sum / probe.ell_sum
        out["sketch.draws_per_call"] = tracer.calls("sketch.power_iterate") / calls
    hw = extra["hw.dgemm_gflops"]
    for name, (flops, nbytes) in probe.kernel.items():
        if name not in tracer.stats:
            continue
        ms = tracer.ms(name)
        gflops = flops / 1e6 / ms if ms else 0.0
        out[f"kernel.{name}.gflop"] = flops / 1e9
        out[f"kernel.{name}.gbyte"] = nbytes / 1e9
        out[f"kernel.{name}.gflops"] = gflops
        out[f"kernel.{name}.dgemm_frac"] = gflops / hw
    out.update(extra)
    op_ms = sum(r["ms"] for r in traced)
    out["trace.overhead_frac"] = 1.0 - rate(traced) / rate(untraced)
    out["trace.uncovered_frac"] = (op_ms - tracer.ms("cli.main")) / op_ms
    return out


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def steal_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None
    return fields[7], sum(fields)


def manifest() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "polarmuon_workers": os.environ["POLARMUON_WORKERS"],
        "nproc": os.cpu_count(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(),
    }


def run_stats(cpu0, steal0) -> dict:
    t = os.times()
    out = {"cpu_s": t.user + t.system - cpu0}
    steal1 = steal_ticks()
    if steal0 and steal1:
        d_steal, d_total = steal1[0] - steal0[0], steal1[1] - steal0[1]
        out["steal_ticks"] = d_steal
        out["steal_frac"] = d_steal / d_total if d_total else 0.0
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    cpu0 = sum(os.times()[:2])
    steal0 = steal_ticks()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        wl = WORKLOADS[args.workload](args.seed)
        if args.trace:
            # set-up once, traced, so noise.calibrate shows on desk-heavytail
            probe = probes.Probe()
            tracer = Tracer(hooks=probe.hooks())
            with tracer:
                wl.setup()
            setup_self = {k: v[2] for k, v in tracer.stats.items()}
            sampler = None
        else:
            tracer = None
            sampler = HostSampler()
            setup_times = [set_up(wl, sampler) for _ in range(SETUP_REPS)]
        warm_rc, _ = invoke(wl.argv(0, work / "warmup"))
        records, traced = run_ops(wl, work, args.seconds, tracer, sampler)
        check_rerun(records, work / "op0", "rerun of op 0 differs from the warm-up run")
        result = {"manifest": manifest(), "op_ms": [r["ms"] for r in records]}
        if args.trace:
            check_rerun(traced, work / "traced-op0",
                        "traced op 0 differs from the warm-up run")
            metrics, shares = traced_metrics(
                wl, tracer, probe, setup_self, records, traced, args.seed)
            result.update(
                self_time_share_by_layer=shares,
                steps_per_s={"untraced": rate(records), "traced": rate(traced)},
                traced_op_ms=[r["ms"] for r in traced],
                spans_missing=tracer.missing,
                span_table=dict(sorted(tracer.stats.items())),
                spans=tracer.spans,
            )
            records = records + traced
        else:
            metrics = end_to_end(records, setup_times, wl)
            result["setup_s_reps"] = setup_times
            result["ref_ms"] = [r["ref_ms"] for r in records]
            result["unscaled"] = {
                "steps_per_s": rate(records),
                "op_ms_p50": statistics.median(result["op_ms"]),
                "op_ms_p90": float(np.percentile(result["op_ms"], 90)),
            }
        result["run"] = run_stats(cpu0, steal0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f"op {i}: {r['error']}" for i, r in enumerate(records) if r["error"]]
    if warm_rc != 0:
        failures.append(f"warm-up op: {warm_rc}")
    attempted = len(records) + 1
    result.update(failures=failures, metrics=metrics)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str), encoding="utf-8")

    report(args, result, attempted, len(failures), path)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 1 if failures else 0


def check_rerun(records, out_dir: Path, message) -> None:
    """Op 0 ran the warm-up op's config; its output files must match byte
    for byte."""
    if not same_outputs(out_dir.parent / "warmup", out_dir):
        records[0]["error"] = records[0]["error"] or message


def traced_metrics(wl, tracer, probe, setup_self, untraced, traced, seed) -> tuple:
    """Gates and per-layer metrics of a traced run, and the self time of
    each layer in the traced ops (set-up's ``setup_self`` taken out) as a
    share of traced op wall time."""
    for op in probe.op_norm_failures():
        traced[op]["error"] = traced[op]["error"] or "output operator norm > 1"
    if wl.name == "wide-sketch":
        for op in probe.rank_short_ops:
            traced[op]["error"] = traced[op]["error"] or "basis rank below ell"
    extra = {"hw.dgemm_gflops": probes.dgemm_gflops(seed)}
    if probe.captured:
        extra.update(probes.paper_claim(probe.captured))
    extra.update(probes.stage_split(seed))
    op_s = sum(r["ms"] for r in traced) / 1e3
    by_layer = {}
    for name, (_calls, _ns, self_ns) in tracer.stats.items():
        layer = name.split(".", 1)[0]
        op_self_s = (self_ns - setup_self.get(name, 0)) / 1e9
        by_layer[layer] = by_layer.get(layer, 0.0) + op_self_s
    # shares of traced op wall time; "uncovered" is time outside every span
    shares = {k: v / op_s for k, v in sorted(by_layer.items(), key=lambda kv: -kv[1])}
    shares["uncovered"] = 1.0 - sum(shares.values())
    return per_layer(tracer, probe, traced, untraced, extra), shares


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    suffix = name.rsplit(".", 1)[-1]
    return {
        "calls": "count", "ms": "ms", "self_ms": "ms", "seeds_aborted": "count",
        "gflop": "GFLOP", "gbyte": "GB", "gflops": "GFLOP/s",
        "dgemm_gflops": "GFLOP/s",
    }.get(suffix, "ratio")


def report(args, result, attempted, failed, path) -> None:
    m = result["manifest"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"  python {m['python']}, numpy {m['numpy']}, {m['blas']} "
          f"(threads {m['blas_threads']}), nproc {m['nproc']}, "
          f"numba importable: {m['numba_importable']}, commit {m['git_commit']}")
    run = result["run"]
    print(f"  process cpu {run['cpu_s']:.2f} s, steal "
          f"{run.get('steal_frac', float('nan')):.1%} of cpu ticks")
    print(f"  ops attempted {attempted} (warm-up included), failed {failed}")
    print(f"  failed_frac = {failed / attempted:.6g} ratio")
    for f in result["failures"]:
        print(f"  FAIL {f}")
    if "steps_per_s" in result:
        sps = result["steps_per_s"]
        print(f"  steps_per_s untraced {sps['untraced']:.6g}, traced {sps['traced']:.6g}")
        print("  self time by layer, share of traced op wall time: " + ", ".join(
            f"{k} {v:.1%}" for k, v in result["self_time_share_by_layer"].items()))
    for k, v in result["metrics"].items():
        print(f"  {k} = {v:.6g} {unit_of(k)}")
    for k, v in result.get("unscaled", {}).items():
        print(f"  unscaled {k} = {v:.6g} {unit_of(k)} (as measured, not bounded)")
    print(f"  details: {path}")


if __name__ == "__main__":
    sys.exit(main())
