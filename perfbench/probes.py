"""Traced-run probes: computed kernel counters, the DGEMM reference, the
measured full/randomized wall ratio next to both FLOP models, and the stage
split at 2048^2, ell=128.

FLOP and byte counts are *computed* from argument shapes, not read from
hardware counters.  Bytes assume every numpy operation reads each operand
once and writes its result once (temporaries included, caches ignored).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from polarmuon import polar, runner, sketch, verify
from polarmuon.matcore import RngStream
from polarmuon.polar import PolarConfig, quintic_theoretical_schedule
from polarmuon.sketch import SketchConfig

from tracer import Tracer

OP_NORM_TOL = 1e-10
CAPTURE_CALLS = (0, 8, 16)  # randomized_polar calls whose input/output are kept
DGEMM_SHAPE = (1024, 1024, 64)  # wide-sketch power-iteration GEMM
DGEMM_REPS = 40
STAGE_SHAPE, STAGE_S, STAGE_P = 2048, 126, 2  # ell = 128
STAGE_REPS = 3
MIN_TIMED_S = 0.2  # shortest total time of one _median_s measurement


def _power_iterate_cost(m, omega, h):
    a, b = m.shape
    ell = omega.shape[1]
    gemms = 1 + 2 * h
    return gemms * 2 * a * b * ell, gemms * 8 * (a * b + a * ell + b * ell)


def _polynomial_iterate_cost(z, coeffs):
    s, big = min(z.shape), max(z.shape)
    q = coeffs.shape[0]
    # gram, square, scale/add on the gram side, apply, axpy
    flops = 4 * s * s * big + 2 * s**3 + 3 * s * s + 2 * s * big
    return q * flops, q * 8 * (9 * s * big + 11 * s * s)


def _orthonormal_basis_cost(y):
    d0, d1 = min(y.shape), max(y.shape)
    # thin SVD, priced with the SVD row of the package's own FLOP table
    return 14 * d1 * d0**2 + 8 * d0**3, 8 * (2 * y.size + d0 * d0 + d0)


KERNELS = {
    "sketch.power_iterate": _power_iterate_cost,
    "sketch.polynomial_iterate": _polynomial_iterate_cost,
    "polar.polynomial_iterate": _polynomial_iterate_cost,
    "sketch.orthonormal_basis": _orthonormal_basis_cost,
}


class Probe:
    """Hook state for a traced run: kernel counters, basis ranks and the
    randomized_polar calls kept for the op-norm gate and the wall ratio."""

    def __init__(self):
        self.kernel = {k: [0, 0] for k in KERNELS}  # flops, bytes
        self.rank_sum = self.ell_sum = 0
        self.rank_short_ops = set()
        self.polar_calls = 0
        self.captured = []  # (op, m, scfg, pcfg, out)

    def hooks(self) -> dict:
        out = {name: self._kernel_hook(name, fn) for name, fn in KERNELS.items()}
        counted = out["sketch.orthonormal_basis"]

        def basis(tracer, args, q):
            counted(tracer, args, q)
            rank, ell = q.shape[1], args[0].shape[1]
            self.rank_sum += rank
            self.ell_sum += ell
            if rank != ell:
                self.rank_short_ops.add(tracer.op)

        out["sketch.orthonormal_basis"] = basis
        out["sketch.randomized_polar"] = self._capture
        return out

    def _kernel_hook(self, name, cost):
        acc = self.kernel[name]

        def hook(tracer, args, result):
            flops, nbytes = cost(*args)
            acc[0] += flops
            acc[1] += nbytes

        return hook

    def _capture(self, tracer, args, out):
        if self.polar_calls in CAPTURE_CALLS:
            self.captured.append((tracer.op, args[0], args[1], args[2], out))
        self.polar_calls += 1

    def op_norm_failures(self) -> list:
        """Ops whose sampled output exceeds operator norm 1 under a
        theoretical schedule."""
        return [
            op
            for op, _m, _s, pcfg, out in self.captured
            if pcfg.schedule.theoretical
            and np.linalg.norm(out, 2) > 1.0 + OP_NORM_TOL
        ]


def _median_s(fn, min_reps=3) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < MIN_TIMED_S:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def dgemm_gflops(seed: int) -> float:
    """Best-of-``DGEMM_REPS`` DGEMM rate at the wide-sketch power-iteration shape,
    as the machine's reference peak for the pinned thread count."""
    m, k, n = DGEMM_SHAPE
    rng = RngStream(seed, 0xD6E)
    a, b = rng.normal((m, k)), rng.normal((k, n))
    best = float("inf")
    for _ in range(DGEMM_REPS):
        t0 = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - t0)
    return 2 * m * k * n / best / 1e9


def paper_claim(captured) -> dict:
    """Full polynomial polar against the lifted randomized polar on the kept
    momentum matrices, untraced, beside the two analytic FLOP ratios."""
    full, rand = [], []
    for op, m, scfg, pcfg, _out in captured:
        full.append(_median_s(lambda: polar.inexact_polar(m, pcfg), min_reps=1))
        rng = RngStream(op, 0x5CE)
        rand.append(_median_s(lambda: sketch.randomized_polar(m, scfg, pcfg, rng)))
    _op, m, scfg, pcfg, _out = captured[0]
    rows, cols = m.shape
    model = verify.FlopModel(m=rows, n=cols, ell=scfg.ell, q=pcfg.q, h=scfg.h)
    step = verify.StepFlopsConfig("muon", rows, cols, polar="polynomial", q=pcfg.q)
    step_rand = verify.StepFlopsConfig(
        "muon", rows, cols, polar="randomized", q=pcfg.q, ell=scfg.ell, h=scfg.h
    )
    return {
        "sketch.wall_ratio_vs_full": statistics.median(full) / statistics.median(rand),
        "verify.flop_ratio_model": verify.flop_counts(model)[2],
        "runner.step_flop_ratio_model": verify.measured_step_flops(step)
        / verify.measured_step_flops(step_rand),
    }


STAGES = {
    "draw": ("sketch.gaussian_sketch", Tracer.ms),
    "power_iterate": ("sketch.power_iterate", Tracer.ms),
    "orthonormal_basis": ("sketch.orthonormal_basis", Tracer.ms),
    "compress_lift": ("sketch.randomized_polar", Tracer.self_ms),
    "polynomial_iterate": ("sketch.polynomial_iterate", Tracer.ms),
    "delta": ("polar.PolarConfig.resolve_delta", Tracer.ms),
}


def stage_split(seed: int) -> dict:
    """Per-stage ms of one randomized_polar call at 2048^2, ell=128, q=5, h=1
    (median of ``STAGE_REPS`` traced calls).  ``compress_lift`` is the call's self
    time: the two projections plus glue."""
    m = RngStream(seed, 0x2048).normal((STAGE_SHAPE, STAGE_SHAPE))
    scfg = SketchConfig(s=STAGE_S, p=STAGE_P, h=1)
    pcfg = PolarConfig(schedule=quintic_theoretical_schedule(5))
    per_rep = []
    for r in range(STAGE_REPS):
        with Tracer(keep_ops=0) as t:
            # looked up through runner, whose wrap point times the whole call
            runner.randomized_polar(m, scfg, pcfg, RngStream(seed, r))
        per_rep.append({k: get(t, span) for k, (span, get) in STAGES.items()})
    return {
        f"stage2048.{k}.ms": statistics.median(rep[k] for rep in per_rep)
        for k in STAGES
    }
