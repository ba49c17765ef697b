"""Config-driven experiment runner: single runs, axis sweeps, verification suites.

Determinism contract: identical config + seeds produce byte-identical CSV
output.  All randomness flows through Philox streams derived from the run
seeds by the documented hash in :mod:`polarmuon.matcore`; float columns are
written with ``repr`` (shortest exact decimal).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import matcore, noise as noise_mod, optimizer as opt, polar as polar_mod
from .config import RunConfig
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


@dataclass
class SeedResult:
    seed: int
    steps: int
    min_grad_norm: float
    final_f: float
    cum_flops: int
    aborted: bool
    rows: list


@dataclass
class RunReport:
    config: RunConfig
    seed_results: list
    initial_grad_norm: float

    @property
    def aborted(self) -> bool:
        return any(r.aborted for r in self.seed_results)

    def _min_grad_norms(self) -> np.ndarray:
        # a seed that aborted before its first step has no minimum
        return np.array([r.min_grad_norm for r in self.seed_results if r.steps > 0] or [np.nan])

    @property
    def mean_min_grad_norm(self) -> float:
        return float(np.mean(self._min_grad_norms()))

    @property
    def std_min_grad_norm(self) -> float:
        return float(np.std(self._min_grad_norms()))

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


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _initial_point(cfg: RunConfig, seed: int) -> np.ndarray:
    shape = cfg.problem.param_shape
    if cfg.problem.kind == "factorization":
        return RngStream(seed, derive_stream_id(_TAG_INIT)).normal(shape)
    return np.zeros(shape)


def _run_seed(
    cfg: RunConfig, seed: int, problem, model, step_flops: int, out_path: Path | None
) -> SeedResult:
    """K steps from this seed's start, on the run's resolved inputs."""
    o = cfg.optimizer
    sched = o.step_schedule()
    noise_rng = RngStream(seed, derive_stream_id(_TAG_NOISE))
    x = _initial_point(cfg, seed)
    checks = []
    if o.kind == "muon":
        state = opt.MuonState.initial(x, kind=o.momentum, beta=sched.beta, eta=sched.eta)
        polar = _make_polar(cfg, RngStream(seed, derive_stream_id(_TAG_SKETCH)), checks)
    elif o.kind == "sgd_nesterov":
        state = opt.SgdState.initial(x, lr=sched.eta, momentum=sched.beta)
    else:
        state = opt.AdamWState.initial(x, lr=sched.eta)

    rows = []
    min_grad = float("inf")
    cum_flops = 0
    final_f = float("nan")
    aborted = False

    fh = None
    if out_path is not None:
        fh = open(out_path, "w", encoding="utf-8", newline="\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
    try:
        for k in range(o.K):
            if not np.all(np.isfinite(state.x)):
                aborted = True
                break
            f_val, grad = problem.value_and_gradient(state.x)
            if not np.isfinite(f_val):
                aborted = True
                break
            g = noise_mod.gradient_oracle(grad, o.B, model, noise_rng)
            try:
                if o.kind == "muon":
                    state = opt.muon_step(state, g, polar)
                else:
                    state = opt.baseline_step(o.kind, state, g)
            except (NumericalAbortError, DegenerateInputError):
                # the step overflowed, or underflowed to a zero matrix
                aborted = True
                break
            gamma_k, nu_k = checks.pop() if checks else (None, None)
            if cfg.problem.kind == "factorization":
                xproj, _clipped = problem.project(state.x)
                state = replace(state, x=xproj)
            gnorm = float(np.linalg.norm(grad))
            min_grad = min(min_grad, gnorm)
            final_f = f_val
            cum_flops += step_flops

            row = (k, f_val, gnorm, cum_flops, gamma_k, nu_k)
            rows.append(row)
            if fh is not None:
                fh.write(",".join(_csv_cell(v) for v in row) + "\n")
    finally:
        if fh is not None:
            fh.close()

    return SeedResult(
        seed=seed,
        steps=len(rows),
        min_grad_norm=min_grad,
        final_f=final_f,
        cum_flops=cum_flops,
        aborted=aborted,
        rows=rows,
    )


def run_experiment(cfg: RunConfig, write_files: bool = True) -> RunReport:
    """Execute K optimizer steps per seed; write per-seed CSV traces, a
    summary CSV, and plot-ready data.  Returns the aggregated report.  The
    problem, noise model and step price are built once, for every seed."""
    problem = cfg.problem.build()
    model = cfg.noise
    if not model.calibrated:
        model = noise_mod.calibrate(model, cfg.problem.param_shape, RngStream(_CALIB_SEED))
    step_flops = _step_flops(cfg)
    out_dir = Path(cfg.output_dir)
    if write_files:
        out_dir.mkdir(parents=True, exist_ok=True)
    x0 = _initial_point(cfg, cfg.seeds[0])
    initial_grad = float(np.linalg.norm(problem.value_and_gradient(x0)[1]))

    results = []
    for seed in cfg.seeds:
        path = out_dir / f"run_seed{seed}.csv" if write_files else None
        results.append(_run_seed(cfg, seed, problem, model, step_flops, path))

    report = RunReport(config=cfg, seed_results=results, initial_grad_norm=initial_grad)
    if write_files:
        _write_summary(report, out_dir)
        _write_plot_data(report, out_dir)
    return report


def _write_summary(report: RunReport, out_dir: Path) -> None:
    with open(out_dir / "run.summary.csv", "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(SUMMARY_COLUMNS) + "\n")
        for r in report.seed_results:
            f.write(
                ",".join(
                    _csv_cell(v)
                    for v in (
                        r.seed,
                        r.steps,
                        r.min_grad_norm,
                        r.final_f,
                        r.cum_flops,
                        int(r.aborted),
                    )
                )
                + "\n"
            )
        f.write(
            f"aggregate,,{_csv_cell(report.mean_min_grad_norm)},"
            f"{_csv_cell(report.std_min_grad_norm)},,\n"
        )


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
    written.  So does a q sweep where q does not set the step count (exact
    solver, custom or PolarExpress schedules): its cells would all run the
    same steps.
    """
    pl = template.polar
    name = pl.schedule.name
    if axis == "q" and (
        pl.solver == "exact" or name == "custom" or name.startswith("polar-express-")
    ):
        raise ConfigError(
            f"sweep axis 'q': q does not set the step count of solver "
            f"{pl.solver!r} with schedule {name!r}"
        )
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
        out_dir.mkdir(parents=True, exist_ok=True)

    cells = []
    for value, cell_cfg in zip(values, cell_cfgs):
        try:
            cells.append(SweepCell(value=value, report=run_experiment(cell_cfg, write_files)))
        except Exception as e:  # cell failures must not kill the sweep
            cells.append(SweepCell(value=value, report=None, error=str(e)))

    if write_files:
        with open(out_dir / "sweep.csv", "w", encoding="utf-8", newline="\n") as f:
            f.write("axis,value,seed,min_grad_norm,final_f,cum_flops,failed\n")
            for cell in cells:
                if cell.report is None:
                    f.write(f"{axis},{cell.value},,,,,1\n")
                    continue
                for r in cell.report.seed_results:
                    f.write(
                        f"{axis},{cell.value},{r.seed},{_csv_cell(r.min_grad_norm)},"
                        f"{_csv_cell(r.final_f)},{r.cum_flops},{int(r.aborted)}\n"
                    )
        if axis == "K":
            with open(out_dir / "sweep_loglog.dat", "w", encoding="utf-8", newline="\n") as f:
                for cell in cells:
                    if cell.report is None:
                        continue
                    f.write(
                        f"{repr(float(np.log(float(cell.value))))} "
                        f"{repr(float(np.log(cell.report.mean_min_grad_norm)))}\n"
                    )
    return cells
