"""The three benchmark workloads.

Each op is one ``polarmuon`` CLI invocation on inputs generated here from the
workload seed; the package sees only the generated INI files and argv.  Each
workload also reads back the op's own output files and checks them.

desk-heavytail  ``run`` on the acceptance criterion-11(b) shape: 16x16
                factorization, rank 8, symmetric-Pareto noise (alpha 1.5,
                sigma0 0.5), randomized Muon (Gaussian, s=3, p=2, h=1, q=5),
                K=64, four fresh seeds per op; the problem instance is
                criterion 11(b)'s (gen_seed 11).  Tiny matrices: per-call
                overhead dominates.
wide-sketch     ``run`` on a noiseless 1024x1024 quadratic (rank 256, decay
                0.99) with ell=64 (s=62, p=2), h=1, q=5, K=25, one seed.
                BLAS-bound stages of the lifted polar dominate.
certify         ``verify`` with all seven scopes.  Monte Carlo loops in the
                noise scopes dominate; every check must pass.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass
from pathlib import Path

from polarmuon import noise
from polarmuon.matcore import RngStream

from tracer import SUITE_SCOPES

_CALIB_STREAM = 0xCA11B


@dataclass
class OpCheck:
    """What one op's outputs say: work units done, accuracy, and any failure."""

    units: int  # optimizer steps, or verify checks for certify
    ratios: list  # per-seed min/initial grad norm (certify: prop2 bound/mean)
    seeds_aborted: int = 0
    error: str | None = None


def _read_csv(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.reader(f))


class RunWorkload:
    """``polarmuon run`` on a generated INI; subclasses supply the INI body."""

    K = 0

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        pass

    def seeds(self, i: int) -> tuple:
        raise NotImplementedError

    def ini_body(self, i: int) -> str:
        raise NotImplementedError

    def argv(self, i: int, out_dir: Path) -> list:
        out_dir.mkdir(parents=True, exist_ok=True)
        ini = out_dir.parent / f"{out_dir.name}.ini"
        seeds = ", ".join(str(s) for s in self.seeds(i))
        ini.write_text(
            self.ini_body(i) + f"\n[run]\nseeds = {seeds}\noutput_dir = {out_dir}\n",
            encoding="utf-8",
        )
        return ["run", str(ini)]

    def inspect(self, i: int, out_dir: Path) -> OpCheck:
        rows = _read_csv(out_dir / "run.summary.csv")
        per_seed = [r for r in rows[1:] if r[0] != "aggregate"]
        expected = set(self.seeds(i))
        if {int(r[0]) for r in per_seed} != expected:
            return OpCheck(0, [], error="summary seeds differ from the config")
        units, ratios, aborted = 0, [], 0
        for seed, steps, min_grad, _f, _flops, was_aborted in per_seed:
            units += int(steps)
            aborted += int(was_aborted)
            first = _read_csv(out_dir / f"run_seed{seed}.csv")[1]
            ratios.append(float(min_grad) / float(first[2]))
        error = None
        if aborted:
            error = f"{aborted} seed(s) aborted"
        elif units != self.K * len(expected):
            error = f"{units} steps, expected {self.K * len(expected)}"
        return OpCheck(units, ratios, aborted, error)


class DeskHeavyTail(RunWorkload):
    name = "desk-heavytail"
    min_ops = 100  # at least ten op times beyond p90
    K = 64
    SEEDS_PER_OP = 4

    def setup(self) -> None:
        # Criterion-11(b) calibration: scales are fitted once and written
        # into every op's INI, so ops never recalibrate.
        self.model = noise.calibrate(
            noise.NoiseModel(alpha=1.5, sigma0=0.5),
            (16, 8),
            RngStream(self.seed, _CALIB_STREAM),
        )

    def seeds(self, i: int) -> tuple:
        base = 1 + self.seed * 1_000_000 + i * self.SEEDS_PER_OP
        return tuple(range(base, base + self.SEEDS_PER_OP))

    def ini_body(self, i: int) -> str:
        m = self.model
        return (
            "[problem]\nkind = factorization\nm = 16\nn = 16\nrank = 8\ngen_seed = 11\n"
            f"[optimizer]\nkind = muon\nschedule = corollary1\nk = {self.K}\n"
            "[polar]\nsolver = polynomial\nschedule = quintic-theoretical\nq = 5\n"
            "delta = frobenius-norm\n"
            "[sketch]\ns = 3\np = 2\nh = 1\nkind = gaussian\n"
            f"[noise]\nalpha = {m.alpha!r}\nsigma0 = {m.sigma0!r}\nsigma1 = {m.sigma1!r}\n"
            f"tail_exponent = {m.tail_exponent!r}\nscale0 = {m.scale0!r}\n"
            f"scale1 = {m.scale1!r}\ncalib_shape = 16, 8\n"
            f"calib_rel_tol = {m.calib_rel_tol!r}\n"
        )


class WideSketch(RunWorkload):
    name = "wide-sketch"
    min_ops = 3
    K = 25

    def seeds(self, i: int) -> tuple:
        return (self.seed,)

    def ini_body(self, i: int) -> str:
        return (
            "[problem]\nkind = quadratic\nm = 1024\nn = 1024\nrank = 256\n"
            f"decay = 0.99\ngen_seed = {self.seed}\n"
            f"[optimizer]\nkind = muon\nschedule = corollary1\nk = {self.K}\n"
            "[polar]\nsolver = polynomial\nschedule = quintic-theoretical\nq = 5\n"
            "delta = frobenius-norm\n"
            "[sketch]\ns = 62\np = 2\nh = 1\nkind = gaussian\n"
        )


class Certify:
    """``polarmuon verify`` on all scopes.  The suites use fixed internal
    seeds, so the workload seed only sets the order of the scopes."""

    name = "certify"
    min_ops = 3

    def __init__(self, seed: int):
        self.scopes = list(SUITE_SCOPES)
        random.Random(seed).shuffle(self.scopes)

    def setup(self) -> None:
        pass

    def argv(self, i: int, out_dir: Path) -> list:
        return ["verify", *self.scopes, "--output-dir", str(out_dir)]

    def inspect(self, i: int, out_dir: Path) -> OpCheck:
        # verify.txt lines read "[PASS] <scope>: <check> -- <detail>"; check
        # names may hold commas, so verify.csv does not split reliably.
        lines = (out_dir / "verify.txt").read_text(encoding="utf-8").splitlines()
        checks = [(ln[:6], *ln[7:].split(": ", 1)) for ln in lines]
        if {scope for _, scope, _ in checks} != set(self.scopes):
            return OpCheck(len(checks), [], error="verify.txt misses a scope")
        failed = [f"{scope}: {rest}" for status, scope, rest in checks if status != "[PASS]"]
        # prop2 detail reads "mean=<m> bound=<b> se=<s>": the share of the
        # measured expected alignment that the Prop. 2 bound certifies.
        detail = next(rest for _, scope, rest in checks
                      if scope == "prop2" and rest.startswith("expected alignment"))
        fields = dict(kv.split("=") for kv in detail.split(" -- ", 1)[1].split())
        ratio = float(fields["bound"]) / float(fields["mean"])
        return OpCheck(len(checks), [ratio], error="; ".join(failed) or None)


WORKLOADS = {w.name: w for w in (DeskHeavyTail, WideSketch, Certify)}
