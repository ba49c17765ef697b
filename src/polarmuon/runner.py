"""Config-driven experiment runner: single runs, axis sweeps, verification suites.

Determinism contract: identical config + seeds produce byte-identical CSV
output.  All randomness flows through Philox streams derived from the run
seeds by the documented hash in :mod:`polarmuon.matcore`; ``csv`` writes
float columns as their ``repr`` (shortest exact decimal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import matcore, noise as noise_mod, optimizer as opt, polar as polar_mod
from .config import RunConfig, make_output_dir, write_csv
from .errors import ConfigError, DegenerateInputError, NumericalAbortError, PreconditionError
from .matcore import RngStream, derive_stream_id
from .sketch import randomized_polar
from .verify import StepFlopsConfig, _alignment_and_op_norm, measured_step_flops

__all__ = ["SeedResult", "RunReport", "run_experiment", "sweep"]

# Stream-id tags: every consumer of randomness gets its own Philox stream.
_TAG_NOISE = 0x01
_TAG_SKETCH = 0x02
_TAG_INIT = 0x03
_CALIB_SEED = 0xCA11B

CSV_COLUMNS = ("k", "f", "grad_norm", "cum_flops", "gamma_hat", "nu_hat")
SUMMARY_COLUMNS = ("seed", "steps", "min_grad_norm", "final_f", "cum_flops", "aborted")
SWEEP_COLUMNS = ("axis", "value", "seed", "min_grad_norm", "final_f", "cum_flops", "failed")


@dataclass
class SeedResult:
    """One seed's CSV rows (``CSV_COLUMNS``) and whether it aborted; the
    figures read the rows, and a seed without rows reads inf, nan and 0."""

    seed: int
    rows: list
    aborted: bool

    @property
    def steps(self) -> int:
        return len(self.rows)

    @property
    def min_grad_norm(self) -> float:
        return min([float("inf")] + [row[2] for row in self.rows])

    @property
    def final_f(self) -> float:
        return self.rows[-1][1] if self.rows else float("nan")

    @property
    def cum_flops(self) -> int:
        return self.rows[-1][3] if self.rows else 0


@dataclass
class RunReport:
    seed_results: list

    @property
    def initial_grad_norm(self) -> float:
        """||grad f||_F at the first seed's start: its first row's, or nan
        when that seed recorded no step."""
        rows = self.seed_results[0].rows
        return rows[0][2] if rows else float("nan")

    @property
    def aborted(self) -> bool:
        return any(r.aborted for r in self.seed_results)

    def _min_grad_norms(self) -> list:
        # a seed that aborted before its first step has no minimum
        return [r.min_grad_norm for r in self.seed_results if r.steps > 0]

    @property
    def mean_min_grad_norm(self) -> float | None:
        """Mean over the seeds that recorded a step; None if none did."""
        norms = self._min_grad_norms()
        return float(np.mean(norms)) if norms else None

    @property
    def std_min_grad_norm(self) -> float | None:
        """Standard deviation over the seeds that recorded a step; None if
        none did."""
        norms = self._min_grad_norms()
        return float(np.std(norms)) if norms else None

    @property
    def cum_flops(self) -> int:
        """Analytic FLOPs of every step run, summed over the seeds."""
        return sum(r.cum_flops for r in self.seed_results)


def _polar_kind(cfg: RunConfig) -> str:
    if cfg.polar.solver == "exact":
        return "exact"
    return "polynomial" if cfg.sketch is None else "randomized"


def _step_flops(cfg: RunConfig) -> int:
    """Analytic FLOPs of one step; q is the schedule's own step count."""
    o, sk, rule = cfg.optimizer, cfg.sketch, cfg.polar.delta_rule
    return measured_step_flops(StepFlopsConfig(
        o.kind, *cfg.problem.param_shape, momentum=o.momentum, polar=_polar_kind(cfg),
        q=cfg.polar.q, ell=sk.ell if sk else 0, h=sk.h if sk else 0,
        delta=rule if isinstance(rule, str) else "explicit",
    ))


def _make_polar(cfg: RunConfig, sketch_rng: RngStream, checks: list):
    """Return polar(matrix) -> direction.  With ``verify``, each call also
    appends its (alignment loss, spectral slack) 1 - <M, T>/||M||_* and
    ||T||_op - 1 to ``checks``."""
    pcfg = cfg.polar
    call = {
        "exact": lambda m: polar_mod.exact_polar(m),
        "polynomial": lambda m: polar_mod.inexact_polar(m, pcfg),
        "randomized": lambda m: randomized_polar(m, cfg.sketch, pcfg, sketch_rng),
    }[_polar_kind(cfg)]
    if not cfg.verify:
        return call

    def call_verified(m):
        out = call(m)
        inner, op_norm = _alignment_and_op_norm(m, out)
        checks.append((1.0 - inner / matcore.nuclear_norm(m), op_norm - 1.0))
        return out

    return call_verified


def _initial_point(cfg: RunConfig, seed: int) -> np.ndarray:
    shape = cfg.problem.param_shape
    if cfg.problem.kind == "factorization":
        return RngStream(seed, derive_stream_id(_TAG_INIT)).normal(shape)
    return np.zeros(shape)


def _run_seed(cfg: RunConfig, seed: int, problem, model, step_flops: int) -> SeedResult:
    """K steps from this seed's start, on the run's resolved inputs: one
    step(g) that updates the state, one ||grad f||_F per step.  A non-finite
    f aborts the seed; a non-finite entry of the iterate makes f non-finite,
    so the iterate is not checked apart.  A step that raises, or whose
    projection finds an overflowing norm, aborts the seed without its row."""
    o = cfg.optimizer
    sched = o.step_schedule()
    noise_rng = RngStream(seed, derive_stream_id(_TAG_NOISE))
    x = _initial_point(cfg, seed)
    checks = []
    if o.kind == "muon":
        state = opt.MuonState.initial(x, kind=o.momentum, beta=sched.beta, eta=sched.eta)
        polar = _make_polar(cfg, RngStream(seed, derive_stream_id(_TAG_SKETCH)), checks)
        step = lambda g: opt.muon_step(state, g, polar)
    elif o.kind == "sgd_nesterov":
        state = opt.SgdState.initial(x, lr=sched.eta, momentum=sched.beta)
        step = lambda g: opt.sgd_nesterov_step(state, g)
    else:
        state = opt.AdamWState.initial(x, lr=sched.eta)
        step = lambda g: opt.adamw_step(state, g)

    rows = []
    for k in range(o.K):
        f_val, grad = problem.value_and_gradient(state.x)
        if not math.isfinite(f_val):
            return SeedResult(seed, rows, aborted=True)
        gnorm = matcore._frobenius(grad)
        g = noise_mod.gradient_oracle(grad, gnorm, o.B, model, noise_rng)
        try:
            step(g)
            state.x = problem.project(state.x)
        except (NumericalAbortError, DegenerateInputError):
            # the step or its projection overflowed, or the step
            # underflowed to a zero matrix
            return SeedResult(seed, rows, aborted=True)
        gamma_k, nu_k = checks.pop() if checks else (None, None)
        rows.append((k, f_val, gnorm, step_flops * (k + 1), gamma_k, nu_k))
    return SeedResult(seed, rows, aborted=False)


def _recorded_figures(r: SeedResult) -> tuple:
    """(min_grad_norm, final_f) of a seed for the CSV files: empty fields for
    a seed that recorded no step."""
    return (r.min_grad_norm, r.final_f) if r.steps else (None, None)


def run_experiment(cfg: RunConfig, write_files: bool = True) -> RunReport:
    """Execute K optimizer steps per seed; write each seed's CSV trace when it
    ends, a summary CSV, and plot-ready data.  Returns the aggregated report.
    The problem, noise model and step price are built once, for every seed."""
    problem = cfg.problem.build()
    model = cfg.noise
    if not model.calibrated:
        model = noise_mod.calibrate(model, cfg.problem.param_shape, RngStream(_CALIB_SEED))
    step_flops = _step_flops(cfg)
    out_dir = make_output_dir(cfg.output_dir) if write_files else None

    results = []
    for seed in cfg.seeds:
        result = _run_seed(cfg, seed, problem, model, step_flops)
        if write_files:
            write_csv(out_dir / f"run_seed{seed}.csv", CSV_COLUMNS, result.rows)
        results.append(result)

    report = RunReport(seed_results=results)
    if write_files:
        write_csv(
            out_dir / "run.summary.csv",
            SUMMARY_COLUMNS,
            [(r.seed, r.steps, *_recorded_figures(r), r.cum_flops, int(r.aborted))
             for r in results]
            + [("aggregate", None, report.mean_min_grad_norm, report.std_min_grad_norm,
                None, None)],
        )
        _write_plot_data(report, out_dir)
    return report


def _write_plot_data(report: RunReport, out_dir: Path) -> None:
    """Two-column (step, mean grad norm) data file plus a gnuplot stub."""
    counts = [r.steps for r in report.seed_results]
    if not counts or min(counts) == 0:
        return
    n = min(counts)
    with open(out_dir / "grad_norm_vs_step.dat", "w", encoding="utf-8", newline="\n") as f:
        for k in range(n):
            mean_g = float(
                np.mean([r.rows[k][2] for r in report.seed_results])
            )
            f.write(f"{k} {repr(mean_g)}\n")
    with open(out_dir / "plot.gp", "w", encoding="utf-8", newline="\n") as f:
        f.write(
            "set logscale y\n"
            "set xlabel 'step'\n"
            "set ylabel 'gradient Frobenius norm'\n"
            "plot 'grad_norm_vs_step.dat' using 1:2 with lines title 'mean over seeds'\n"
        )


SWEEP_AXES = ("s", "q", "K", "alpha", "B")
_INTEGER_AXES = ("s", "q", "K", "B")


def _apply_axis(cfg: RunConfig, axis: str, value) -> RunConfig:
    if axis == "s":
        if cfg.sketch is None:
            raise ConfigError("sweep axis 's' requires a [sketch] section")
        return replace(cfg, sketch=replace(cfg.sketch, s=int(value)))
    if axis == "q":
        schedule = polar_mod.schedule_by_name(cfg.polar.schedule.name, int(value))
        return replace(cfg, polar=replace(cfg.polar, schedule=schedule))
    if axis == "K":
        return replace(cfg, optimizer=replace(cfg.optimizer, K=int(value)))
    if axis == "alpha":
        # Tail sweep: a fresh, uncalibrated noise model; theorem-1 exponents.
        noise = noise_mod.NoiseModel(float(value), cfg.noise.sigma0, cfg.noise.sigma1)
        return replace(
            cfg, noise=noise, optimizer=replace(cfg.optimizer, alpha=float(value))
        )
    if axis == "B":
        return replace(cfg, optimizer=replace(cfg.optimizer, B=int(value)))
    raise ConfigError(f"sweep axis: unknown axis {axis!r} (choose from {SWEEP_AXES})")


@dataclass
class SweepCell:
    value: object
    report: RunReport | None
    error: str | None = None


def sweep(template: RunConfig, axis: str, values, write_files: bool = True) -> list:
    """One run per axis value; a cell that fails while it runs is marked and
    the sweep continues.

    Emits a long-form CSV keyed by axis value; the K axis additionally emits
    (log K, log mean-min-grad-norm) pairs for slope inspection.  Every cell's
    config is built before any cell runs: a value that makes it invalid (a
    non-integer on an integer axis s, q, K or B, or any value the config
    rejects) raises ConfigError naming the axis and the value, and nothing is
    written.  So does an axis the run does not read (its cells would all run
    the same steps): q unless a polynomial solver repeats its schedule q
    times, and s under the exact solver.
    """
    pl = template.polar
    name = pl.schedule.name
    if axis == "q" and (pl.solver == "exact" or name not in polar_mod._REPEATED):
        raise ConfigError(
            f"sweep axis 'q': q does not set the step count of solver "
            f"{pl.solver!r} with schedule {name!r}"
        )
    if axis == "s" and pl.solver == "exact":
        raise ConfigError("sweep axis 's': the exact solver draws no sketch")
    out_dir = Path(template.output_dir)
    cell_cfgs = []
    for value in values:
        try:
            if axis in _INTEGER_AXES and not float(value).is_integer():
                raise ConfigError("not an integer")
            cell_cfg = _apply_axis(template, axis, value)
        except (ConfigError, PreconditionError, OverflowError) as e:
            raise ConfigError(f"sweep axis {axis!r} = {value!r}: {e}") from e
        cell_cfgs.append(replace(cell_cfg, output_dir=str(out_dir / f"{axis}_{value}")))
    if write_files:
        make_output_dir(out_dir)

    cells = []
    for value, cell_cfg in zip(values, cell_cfgs):
        try:
            cells.append(SweepCell(value=value, report=run_experiment(cell_cfg, write_files)))
        except Exception as e:  # cell failures must not kill the sweep
            cells.append(SweepCell(value=value, report=None, error=str(e)))

    if write_files:
        rows = []
        for cell in cells:
            if cell.report is None:
                rows.append((axis, cell.value, None, None, None, None, 1))
                continue
            rows += [(axis, cell.value, r.seed, *_recorded_figures(r), r.cum_flops,
                      int(r.aborted)) for r in cell.report.seed_results]
        write_csv(out_dir / "sweep.csv", SWEEP_COLUMNS, rows)
        if axis == "K":
            with open(out_dir / "sweep_loglog.dat", "w", encoding="utf-8", newline="\n") as f:
                for cell in cells:
                    if cell.report is None or cell.report.mean_min_grad_norm is None:
                        continue
                    f.write(
                        f"{repr(float(np.log(float(cell.value))))} "
                        f"{repr(float(np.log(cell.report.mean_min_grad_norm)))}\n"
                    )
    return cells
