import csv
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from polarmuon import cli, matcore, runner, suites
from polarmuon.config import (
    OptimizerSpec,
    ProblemSpec,
    RunConfig,
    load,
    parse,
    save,
    serialize,
)
from polarmuon.errors import ConfigError, NumericalAbortError
from polarmuon.matcore import RngStream
from polarmuon.noise import NoiseModel, Problem, calibrate
from polarmuon.polar import (
    PolarConfig,
    PolynomialSchedule,
    polar_express_schedule,
    quintic_theoretical_schedule,
    schedule_by_name,
)
from polarmuon.runner import CSV_COLUMNS, SUMMARY_COLUMNS, run_experiment, sweep
from polarmuon.sketch import SketchConfig
from polarmuon.verify import StepFlopsConfig, measured_step_flops


def random_config(rng) -> RunConfig:
    g = rng.generator
    kind = "quadratic" if g.uniform() < 0.5 else "factorization"
    m = int(g.integers(4, 20))
    n = int(g.integers(4, 20))
    rank = int(g.integers(1, min(m, n) + 1))
    sketch = None
    if g.uniform() < 0.4:
        dim = min(m, rank if kind == "factorization" else n)
        s = int(g.integers(1, max(2, dim - 2)))
        p = int(g.integers(2, 4))
        if s + p <= dim:
            sketch = SketchConfig(s=s, p=p, h=int(g.integers(0, 3)),
                                  kind="gaussian" if g.uniform() < 0.5 else "kaczmarz")
    schedule = ["cubic", "quintic-theoretical", "quintic-empirical", "custom"][
        int(g.integers(0, 4))
    ]
    if schedule == "custom":
        coeffs = tuple(
            tuple(float(v) for v in g.uniform(-2, 2, 3)) for _ in range(int(g.integers(1, 4)))
        )
        polar_schedule = PolynomialSchedule(coeffs, name="custom")
    else:
        q_min = 1 if schedule == "quintic-empirical" else 0
        polar_schedule = schedule_by_name(schedule, int(g.integers(q_min, 10)))
    return RunConfig(
        problem=ProblemSpec(
            kind=kind,
            m=m,
            n=n,
            rank=rank,
            decay=float(g.uniform(0.3, 0.99)),
            scale=float(g.uniform(0.5, 10.0)),
            gen_seed=int(g.integers(1, 2**31)),
        ),
        optimizer=OptimizerSpec(
            kind=["muon", "sgd_nesterov", "adamw"][int(g.integers(0, 3))],
            momentum="nesterov" if g.uniform() < 0.5 else "polyak",
            schedule=["corollary1", "theorem1", "manual"][int(g.integers(0, 3))],
            K=int(g.integers(2, 500)),
            B=int(g.integers(1, 32)),
            alpha=float(g.uniform(1.05, 2.0)),
            eta=float(g.uniform(1e-4, 0.5)),
            beta=float(g.uniform(0.0, 0.999)),
        ),
        polar=PolarConfig(
            solver="exact" if g.uniform() < 0.2 else "polynomial",
            schedule=polar_schedule,
            delta_rule=["frobenius-norm", "operator-norm", float(g.uniform(0.5, 20))][
                int(g.integers(0, 3))
            ],
        ),
        sketch=sketch,
        noise=NoiseModel(
            alpha=float(g.uniform(1.05, 2.0)),
            sigma0=float(g.uniform(0, 2)),
            sigma1=float(g.uniform(0, 1)),
            scale0=float(g.uniform(0, 1)) if g.uniform() < 0.5 else None,
            scale1=float(g.uniform(0, 1)) if g.uniform() < 0.5 else None,
            calib_shape=(int(g.integers(1, 9)), int(g.integers(1, 9)))
            if g.uniform() < 0.5
            else None,
            calib_rel_tol=float(g.uniform(0, 0.1)) if g.uniform() < 0.5 else None,
        ),
        seeds=tuple(int(v) for v in g.integers(1, 10**6, int(g.integers(1, 6)))),
        output_dir="out",
        verify=bool(g.uniform() < 0.5),
    )


class TestConfigRoundTrip:
    def test_default_round_trip(self):
        cfg = RunConfig()
        assert parse(serialize(cfg)) == cfg

    def test_random_round_trip_sweep(self):
        rng = RngStream(81)
        for _ in range(100):
            cfg = random_config(rng)
            again = parse(serialize(cfg))
            assert again == cfg  # bit-exact, including repr'd floats

    def test_file_round_trip(self, tmp_path):
        cfg = random_config(RngStream(82))
        path = tmp_path / "cfg.ini"
        save(cfg, path)
        assert load(path) == cfg

    def test_calibrated_noise_round_trip(self):
        model = calibrate(
            NoiseModel(alpha=1.5, sigma0=1.0, sigma1=0.25), (6, 6), RngStream(83)
        )
        cfg = RunConfig(noise=model)
        again = parse(serialize(cfg))
        rebuilt = again.noise
        assert rebuilt.scale0 == model.scale0
        assert rebuilt.scale1 == model.scale1
        assert rebuilt.calib_shape == model.calib_shape

    def test_config_errors(self):
        with pytest.raises(ConfigError):
            parse("not an ini file [")
        with pytest.raises(ConfigError):
            parse("[optimizer]\nk = ten\n")
        with pytest.raises(ConfigError):
            parse("[sketch]\np = 2\n")  # s is required
        with pytest.raises(ConfigError):
            parse("[run]\nseeds =\n")
        with pytest.raises(ConfigError):
            RunConfig(optimizer=OptimizerSpec(K=0))

    @pytest.mark.parametrize(
        "body, named",
        [
            ("[optimizer]\nkk = 99\n", "optimizer.kk: unknown key"),
            ("[polar]\nbogus = 1\n", "polar.bogus: unknown key"),
            ("[sketch]\ns = 38\nell = 40\n", "sketch.ell: unknown key"),
            ("[run]\nseed = 3\n", "run.seed: unknown key"),
            ("[bogus_section]\nk = 1\n", "bogus_section: unknown section"),
            ("[Problem]\nm = 4\n", "Problem: unknown section"),
            ("[DEFAULT]\nm = 4\n", "DEFAULT: unknown section"),
        ],
    )
    def test_unknown_section_or_key_is_config_error(self, tmp_path, capsys, body, named):
        # configparser lowercases keys: the fields K and B are keys k and b
        parse("[optimizer]\nK = 3\nB = 2\n")
        with pytest.raises(ConfigError, match=named):
            parse(body)
        path = tmp_path / "typo.ini"
        path.write_text(body)
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert named in capsys.readouterr().err

    def test_polar_spec_errors(self):
        with pytest.raises(ConfigError):
            parse("[polar]\ndelta = explicit:abc\n")
        with pytest.raises(ConfigError):
            parse("[polar]\ndelta = spectral\n")
        with pytest.raises(ConfigError):
            parse("[polar]\nschedule = custom\n")


def small_run_config(tmp_path, **kw) -> RunConfig:
    base = dict(
        problem=ProblemSpec(kind="quadratic", m=8, n=8, rank=4, gen_seed=7),
        optimizer=OptimizerSpec(kind="muon", schedule="manual", K=20, eta=0.1, beta=0.9),
        polar=PolarConfig(schedule=quintic_theoretical_schedule(5)),
        noise=NoiseModel(alpha=2.0, sigma0=0.0),
        seeds=(1, 2),
        output_dir=str(tmp_path / "out"),
        verify=True,
    )
    base.update(kw)
    return RunConfig(**base)


class TestRunner:
    def test_csv_schema_and_summary(self, tmp_path):
        cfg = small_run_config(tmp_path)
        report = run_experiment(cfg)
        out = tmp_path / "out"
        for seed in (1, 2):
            lines = (out / f"run_seed{seed}.csv").read_text().splitlines()
            assert lines[0] == ",".join(CSV_COLUMNS)
            assert len(lines) == 1 + cfg.optimizer.K
            first = lines[1].split(",")
            assert first[0] == "0"
            assert float(first[1]) > 0  # objective
            assert int(first[3]) > 0  # cumulative flops
            assert float(first[4]) >= -1e-12  # gamma_hat present in verify mode
        summary = (out / "run.summary.csv").read_text().splitlines()
        assert summary[0] == ",".join(SUMMARY_COLUMNS)
        assert len(summary) == 1 + 2 + 1  # header + 2 seeds + aggregate
        assert summary[-1].startswith("aggregate,")
        assert (out / "grad_norm_vs_step.dat").exists()
        assert (out / "plot.gp").exists()
        assert not report.aborted
        assert report.mean_min_grad_norm < report.initial_grad_norm

    def test_aggregate_skips_seeds_without_steps(self):
        rows = [(k, 1.0, g, 10 * (k + 1), None, None) for k, g in enumerate((0.9, 0.5, 0.7))]
        seeds = [runner.SeedResult(1, rows, False), runner.SeedResult(2, [], True)]
        report = runner.RunReport(seeds)
        assert (seeds[0].steps, seeds[0].min_grad_norm, seeds[0].cum_flops) == (3, 0.5, 30)
        assert (seeds[1].steps, seeds[1].min_grad_norm, seeds[1].cum_flops) == (0, float("inf"), 0)
        assert np.isnan(seeds[1].final_f)
        assert report.mean_min_grad_norm == 0.5
        assert report.std_min_grad_norm == 0.0
        assert report.initial_grad_norm == 0.9
        assert np.isnan(runner.RunReport(seeds[::-1]).initial_grad_norm)

    def test_alpha_axis_resets_noise_model(self, tmp_path):
        model = calibrate(
            NoiseModel(alpha=1.5, sigma0=1.0, sigma1=0.25, tail_exponent=1.9),
            (4, 4),
            RngStream(84),
        )
        cell = runner._apply_axis(small_run_config(tmp_path, noise=model), "alpha", 1.25)
        assert cell.noise == NoiseModel(alpha=1.25, sigma0=1.0, sigma1=0.25)
        assert not cell.noise.calibrated
        assert cell.optimizer.alpha == 1.25

    def test_deterministic_rerun_byte_identical(self, tmp_path):
        cfg1 = small_run_config(
            tmp_path,
            noise=NoiseModel(alpha=1.5, sigma0=0.5),
            output_dir=str(tmp_path / "a"),
        )
        cfg2 = small_run_config(
            tmp_path,
            noise=NoiseModel(alpha=1.5, sigma0=0.5),
            output_dir=str(tmp_path / "b"),
        )
        run_experiment(cfg1)
        run_experiment(cfg2)
        for name in ("run_seed1.csv", "run_seed2.csv", "run.summary.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    def test_gradient_evaluated_once_per_step(self, tmp_path, monkeypatch):
        calls = Counter()

        def count(owner, name):
            exact = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return exact(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for owner, name in (
            (Problem, "value_and_gradient"),
            (Problem, "value"),
            (Problem, "gradient"),
            (ProblemSpec, "build"),
            (matcore, "as_matrix"),
        ):
            count(owner, name)
        cfg = small_run_config(tmp_path, noise=NoiseModel(alpha=1.5, sigma0=0.5))
        report = run_experiment(cfg, write_files=False)
        steps = sum(r.steps for r in report.seed_results)
        assert steps == cfg.optimizer.K * len(cfg.seeds)
        # one residual per step; the initial grad norm is the first row's
        assert calls["value_and_gradient"] == steps
        assert calls["value"] == calls["gradient"] == 0
        assert calls["build"] == 1  # shared by both seeds
        # Without verify only public entry points check their caller's input.
        for polar, sketch in (
            (PolarConfig(solver="exact"), None),
            (PolarConfig(delta_rule=1000.0), None),
            (PolarConfig(delta_rule="operator-norm"), SketchConfig(s=2, p=2, h=1)),
            (PolarConfig(), SketchConfig(s=2, p=2, h=1, kind="kaczmarz")),
        ):
            calls.clear()
            run_experiment(
                replace(cfg, polar=polar, sketch=sketch, verify=False), write_files=False
            )
            assert calls["as_matrix"] <= 2 * steps

    def test_gradient_norm_taken_once_per_step(self, tmp_path, monkeypatch):
        # sigma1 > 0: the oracle reads the runner's ||grad f||_F, the norm the
        # CSV row reports, and takes none of its own
        model = calibrate(NoiseModel(alpha=1.5, sigma0=0.5, sigma1=0.3), (8, 8), RngStream(5))
        cfg = small_run_config(
            tmp_path, noise=model, polar=PolarConfig(solver="exact"), verify=False
        )
        norms, oracle_norms = [], []
        norm, oracle = matcore._frobenius, runner.noise_mod.gradient_oracle
        monkeypatch.setattr(matcore, "_frobenius", lambda a: norms.append(a) or norm(a))
        monkeypatch.setattr(
            runner.noise_mod,
            "gradient_oracle",
            lambda g, gn, *a: oracle_norms.append(gn) or oracle(g, gn, *a),
        )
        report = run_experiment(cfg, write_files=False)
        steps = sum(r.steps for r in report.seed_results)
        assert steps == cfg.optimizer.K * len(cfg.seeds)
        assert len(norms) == steps  # one per step; the initial grad norm is the first row's
        assert oracle_norms == [row[2] for r in report.seed_results for row in r.rows]

    def test_cum_flops_totals_seeds_when_one_aborts(self, tmp_path, monkeypatch, capsys):
        # seed 2's objective turns non-finite at its step 3: it stops after
        # three steps while seed 1 runs all K; cum_flops is the sum
        cfg = small_run_config(tmp_path, verify=False)
        K = cfg.optimizer.K
        exact = Problem.value_and_gradient
        calls = Counter()

        def failing(self, x):
            calls["n"] += 1
            f, g = exact(self, x)
            return (np.inf if calls["n"] == K + 4 else f), g

        monkeypatch.setattr(Problem, "value_and_gradient", failing)
        report = run_experiment(cfg, write_files=False)
        assert [(r.steps, r.aborted) for r in report.seed_results] == [(K, False), (3, True)]
        step = measured_step_flops(StepFlopsConfig("muon", 8, 8, polar="polynomial", q=5))
        assert report.cum_flops == (K + 3) * step
        path = tmp_path / "cfg.ini"
        save(cfg, path)
        calls.clear()
        assert cli.main(["run", str(path)]) == cli.EXIT_NUMERICAL_ABORT
        assert f"cumulative FLOPs over all seeds = {(K + 3) * step}" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["sgd_nesterov", "adamw"])
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowed_iterate_aborts_at_next_step(self, tmp_path, monkeypatch, kind):
        # eta = 1e308 overflows the iterate in the first step; f of the
        # non-finite iterate is non-finite, so the seed aborts at step 1
        # with only step 0's row, the row an unaborted one-step run writes
        cfg = small_run_config(
            tmp_path,
            optimizer=OptimizerSpec(kind=kind, schedule="manual", K=5, eta=1e308, beta=0.9),
            verify=False,
        )
        exact = Problem.value_and_gradient
        finite = []
        monkeypatch.setattr(
            Problem,
            "value_and_gradient",
            lambda self, x: finite.append(bool(np.isfinite(x).all())) or exact(self, x),
        )
        report = run_experiment(cfg, write_files=False)
        assert finite == [True, False] * len(cfg.seeds)
        one_step = run_experiment(
            replace(cfg, optimizer=replace(cfg.optimizer, K=1)), write_files=False
        )
        for r, ref in zip(report.seed_results, one_step.seed_results):
            assert (r.steps, r.aborted) == (1, True)
            assert r.rows == ref.rows

    def test_overflowing_projection_aborts_the_seed(self, tmp_path, capsys):
        # eta = 1e308 leaves the factor finite after step 0, but its
        # Frobenius norm overflows; the projection scaled it by r / inf = 0,
        # so the run went on at U = 0 with grad_norm 0.0 and exit 0
        cfg = small_run_config(
            tmp_path,
            problem=ProblemSpec(kind="factorization", m=8, n=8, rank=4, gen_seed=7),
            optimizer=OptimizerSpec(kind="muon", schedule="manual", K=6, eta=1e308, beta=0.9),
            seeds=(1,),
            verify=False,
        )
        path = tmp_path / "cfg.ini"
        save(cfg, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(path)]) == cli.EXIT_NUMERICAL_ABORT
        assert "run aborted" in capsys.readouterr().err
        with open(tmp_path / "out" / "run.summary.csv", newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        assert (rows[0]["seed"], rows[0]["steps"], rows[0]["aborted"]) == ("1", "0", "1")

    def test_polar_express_priced_at_its_step_count(self, tmp_path):
        cfg = small_run_config(
            tmp_path,
            polar=PolarConfig(schedule=polar_express_schedule("nanogpt")),
            seeds=(1,),
            verify=False,
        )
        report = run_experiment(cfg, write_files=False)
        step = measured_step_flops(StepFlopsConfig("muon", 8, 8, polar="polynomial", q=9))
        rows = report.seed_results[0].rows
        assert [r[3] for r in rows] == [step * (k + 1) for k in range(len(rows))]

    @pytest.mark.parametrize(
        "rule, priced", [("operator-norm", "operator-norm"), (1000.0, "explicit")]
    )
    @pytest.mark.parametrize("sketch", [None, SketchConfig(s=2, p=2, h=1)])
    def test_step_priced_with_its_delta_rule(self, tmp_path, rule, priced, sketch):
        cfg = small_run_config(
            tmp_path,
            polar=PolarConfig(schedule=quintic_theoretical_schedule(5), delta_rule=rule),
            sketch=sketch,
            seeds=(1,),
            verify=False,
        )
        report = run_experiment(cfg, write_files=False)
        step = measured_step_flops(StepFlopsConfig(
            "muon", 8, 8, polar="randomized" if sketch else "polynomial", q=5,
            ell=sketch.ell if sketch else 0, h=1 if sketch else 0, delta=priced,
        ))
        rows = report.seed_results[0].rows
        assert [r[3] for r in rows] == [step * (k + 1) for k in range(len(rows))]

    def test_randomized_pipeline_runs(self, tmp_path):
        cfg = small_run_config(
            tmp_path, sketch=SketchConfig(s=2, p=2, h=1), verify=False
        )
        report = run_experiment(cfg)
        assert not report.aborted
        assert report.mean_min_grad_norm < report.initial_grad_norm

    def test_sweep_csv(self, tmp_path):
        cfg = small_run_config(tmp_path, seeds=(1,))
        cells = sweep(cfg, "K", [8, 16])
        assert all(c.report is not None for c in cells)
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("axis,value,seed")
        assert len(lines) == 3  # header + one row per (value, seed)
        assert (tmp_path / "out" / "sweep_loglog.dat").exists()

    def test_sweep_bad_cell_continues(self, tmp_path):
        cfg = small_run_config(tmp_path, seeds=(1,))
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "K_4").write_text("")  # the cell cannot make its directory
        cells = sweep(cfg, "K", [4, 8])
        assert cells[0].report is None and cells[0].error
        assert cells[1].report is not None
        assert (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1] == "K,4,,,,,1"


class TestCli:
    def test_parser_built_once_per_process(self, capsys):
        cli.build_parser.cache_clear()
        for _ in range(3):
            assert cli.main(["flops", "m=8,n=8,ell=2,q=1"]) == cli.EXIT_OK
        assert cli.main(["flops"]) == cli.EXIT_CONFIG_ERROR  # argparse's usage error
        assert cli.main(["flops", "m=8,n=8,ell=2,q=1"]) == cli.EXIT_OK
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 4)

    def test_run_exit_ok(self, tmp_path, capsys):
        cfg = small_run_config(tmp_path, seeds=(1,))
        path = tmp_path / "cfg.ini"
        save(cfg, path)
        assert cli.main(["run", str(path)]) == cli.EXIT_OK
        assert "mean min grad norm" in capsys.readouterr().out

    def test_run_missing_config_is_config_error(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "missing.ini")]) == cli.EXIT_CONFIG_ERROR
        assert "config error: cannot read config" in capsys.readouterr().err

    def test_run_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[optimizer]\nk = banana\n")
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_run_numerical_abort(self, tmp_path, capsys):
        # enormous scale and learning rate force the iterate to overflow
        cfg = small_run_config(
            tmp_path,
            problem=ProblemSpec(kind="quadratic", m=4, n=4, rank=4, scale=1e150),
            optimizer=OptimizerSpec(kind="adamw", schedule="manual", K=5, eta=1e160),
            seeds=(1,),
            verify=False,
        )
        path = tmp_path / "cfg.ini"
        save(cfg, path)
        assert cli.main(["run", str(path)]) == cli.EXIT_NUMERICAL_ABORT

    @pytest.mark.parametrize(
        "body",
        [
            "scale = 1e-300\n[optimizer]\n[sketch]\ns = 2\nh = 2\n",  # Y underflows to 0
            "scale = 1e70\n[optimizer]\n[sketch]\ns = 2\nh = 2\n",  # Y overflows
            "scale = 6.6e153\n[optimizer]\nschedule = manual\nbeta = 0.95\n"
            "[sketch]\ns = 2\nkind = kaczmarz\n",  # column energies overflow
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_run_step_failure_is_numerical_abort(self, tmp_path, body):
        # f(x_0) is finite, so the failure comes from inside the first step
        path = tmp_path / "cfg.ini"
        out = tmp_path / "out"
        body = body.replace("[optimizer]\n", "[optimizer]\nk = 3\n")
        path.write_text(
            f"[problem]\nm = 8\nn = 8\nrank = 4\n{body}[run]\noutput_dir = {out}\n"
        )
        assert cli.main(["run", str(path)]) == cli.EXIT_NUMERICAL_ABORT
        assert (out / "run.summary.csv").read_text().splitlines()[1].endswith(",1")

    def test_numerical_abort_error_exit_code(self, tmp_path, capsys, monkeypatch):
        def overflow(cfg):
            raise NumericalAbortError("matrix contains non-finite entries")

        monkeypatch.setattr(runner, "run_experiment", overflow)
        path = tmp_path / "cfg.ini"
        save(small_run_config(tmp_path), path)
        assert cli.main(["run", str(path)]) == cli.EXIT_NUMERICAL_ABORT
        assert "numerical abort" in capsys.readouterr().err

    def test_sweep_command(self, tmp_path, capsys):
        cfg = small_run_config(tmp_path, seeds=(1,))
        path = tmp_path / "cfg.ini"
        save(cfg, path)
        rc = cli.main(["sweep", str(path), "--axis", "K", "--values", "8,16"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "K=8" in out and "K=16" in out

    @pytest.mark.parametrize(
        "body",
        [
            "[noise]\nalpha = 3\n",
            "[sketch]\ns = 2\np = 1\n",
            "[problem]\nscale = nan\n",
            "[polar]\ndelta = explicit:inf\n",
            "[optimizer]\neta = -inf\n",
            "[polar]\nschedule = bogus\n",
            "[polar]\nsolver = exact\nschedule = bogus\n",
            "[polar]\ndelta = explicit:-1\n",
            "[optimizer]\nk = 1\n",
            "[optimizer]\nmomentum = heavy\n",
            "[problem]\nm = 0\n",
            "[problem]\nm = -1\n",
            "[problem]\nscale = 1e308\ndecay = 1.5\n",
            "[sketch]\ns = 20\n",
            pytest.param(f"[optimizer]\nk = {10**400}\n", id="k-1e400"),
        ],
    )
    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_run_bad_value_is_config_error(self, tmp_path, capsys, body):
        path = tmp_path / "bad.ini"
        path.write_text(body + f"[run]\noutput_dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("axis, value", [("K", "1e1"), ("K", "2.5")])
    def test_sweep_bad_values_is_config_error(self, tmp_path, capsys, axis, value):
        cfg = small_run_config(tmp_path, seeds=(1,))
        path = tmp_path / "cfg.ini"
        save(cfg, path)
        rc = cli.main(["sweep", str(path), "--axis", axis, "--values", value])
        assert rc == cli.EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "axis, values",
        [("K", "1"), ("s", "20"), ("alpha", "3"), ("B", "0"), ("q", "-1"), ("K", "4,1")],
    )
    def test_sweep_invalid_cell_is_config_error(self, tmp_path, capsys, axis, values):
        # every cell's config is built before any cell runs: K=4 never runs
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[problem]\nm = 8\nn = 8\n[optimizer]\nschedule = corollary1\nk = 4\n"
            f"[sketch]\ns = 2\np = 2\n[run]\noutput_dir = {tmp_path / 'out'}\n"
        )
        rc = cli.main(["sweep", str(path), "--axis", axis, "--values", values])
        assert rc == cli.EXIT_CONFIG_ERROR
        bad = values.split(",")[-1]
        assert f"config error: sweep axis {axis!r} = {int(bad)!r}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "polar",
        [
            PolarConfig(schedule=polar_express_schedule("nanogpt")),
            PolarConfig(schedule=PolynomialSchedule(((1.5, -0.5, 0.0),), name="custom")),
            PolarConfig(solver="exact"),
        ],
    )
    def test_sweep_q_unused_is_config_error(self, tmp_path, capsys, polar):
        # q does not set these solvers' step counts: every cell would match
        cfg = small_run_config(tmp_path, polar=polar, seeds=(1,))
        path = tmp_path / "cfg.ini"
        save(cfg, path)
        rc = cli.main(["sweep", str(path), "--axis", "q", "--values", "3,5"])
        assert rc == cli.EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sweep_s_under_exact_solver_is_config_error(self, tmp_path, capsys):
        # the exact solver draws no sketch, so every s cell would match;
        # a run of the same config still runs the exact solver
        cfg = small_run_config(
            tmp_path, polar=PolarConfig(solver="exact"), sketch=SketchConfig(s=2, p=2), seeds=(1,)
        )
        path = tmp_path / "cfg.ini"
        save(cfg, path)
        rc = cli.main(["sweep", str(path), "--axis", "s", "--values", "2,3"])
        assert rc == cli.EXIT_CONFIG_ERROR
        assert "sweep axis 's'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert cli.main(["run", str(path)]) == cli.EXIT_OK

    def test_verify_command(self, tmp_path, capsys):
        rc = cli.main(["verify", "flops", "lemma1", "--output-dir", str(tmp_path)])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out
        report = (tmp_path / "verify.csv").read_text()
        assert report.startswith("scope,check,passed,detail")

    def test_verify_csv_rows_match_verify_txt(self, tmp_path, capsys):
        # check names such as "... B in (1,4,16,64)" hold commas
        argv = ["verify", *sorted(suites.SCOPES), "--output-dir", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_OK
        lines = (tmp_path / "verify.txt").read_text(encoding="utf-8").splitlines()
        assert capsys.readouterr().out.splitlines() == lines
        with open(tmp_path / "verify.csv", newline="", encoding="utf-8") as f:
            header, *rows = csv.reader(f)
        assert header == ["scope", "check", "passed", "detail"]
        assert any("," in name for _, name, _, _ in rows)
        assert len(rows) == len(lines)
        for row, line in zip(rows, lines):
            assert len(row) == 4
            scope, name, passed, detail = row
            assert line == f"[{'PASS' if passed == '1' else 'FAIL'}] {scope}: {name} -- {detail}"

    def test_flops_command(self, capsys):
        rc = cli.main(["flops", "m=4096,n=4096,ell=256,q=5,h=1"])
        assert rc == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "reduction ratio" in out
        assert "42.52" in out

    def test_flops_bad_spec(self, capsys):
        assert cli.main(["flops", "m=4096,n=4096"]) == cli.EXIT_CONFIG_ERROR
        assert cli.main(["flops", "m=a,n=1,ell=1,q=1"]) == cli.EXIT_CONFIG_ERROR
        capsys.readouterr()
        assert cli.main(["flops", "m=8,n=8,ell=1,q=-1"]) == cli.EXIT_CONFIG_ERROR
        assert "m, n and ell must be >= 1 and q and h must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        [
            "m=0,n=4,ell=1,q=1",
            "m=8,n=8,ell=9,q=1",
            "m=8,n=8,ell=1,q=-1",
            "m=8,n=8,ell=1,q=1,h=-1",
            "m=8,n=8,ell=1,q=1,foo=3",
            "m=8,n=8,ell=1,q=1,m=4",
        ],
    )
    def test_flops_bad_value_is_config_error(self, capsys, spec):
        assert cli.main(["flops", spec]) == cli.EXIT_CONFIG_ERROR
        assert "config error: flops" in capsys.readouterr().err

    def test_run_without_steps_writes_empty_aggregate(self, tmp_path, capsys):
        # every seed aborts inside its first step (the sketch underflows)
        path = tmp_path / "cfg.ini"
        out = tmp_path / "out"
        path.write_text(
            "[problem]\nm = 8\nn = 8\nscale = 1e-300\n[sketch]\ns = 2\nh = 2\n"
            f"[run]\nseeds = 1, 2\noutput_dir = {out}\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(path)]) == cli.EXIT_NUMERICAL_ABORT
        assert "mean min grad norm = n/a, " in capsys.readouterr().out
        lines = (out / "run.summary.csv").read_text().splitlines()
        assert lines[1:3] == ["1,0,,,0,1", "2,0,,,0,1"]
        assert lines[3] == "aggregate,,,,,"

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_seed_aborted_at_step_0_writes_empty_fields(self, tmp_path, capsys):
        # eta = 1e308 overflows the factor's norm in step 0, so no seed
        # records a step: no inf or nan in the CSV files or on stdout
        cfg = small_run_config(
            tmp_path,
            problem=ProblemSpec(kind="factorization", m=8, n=8, rank=4, gen_seed=7),
            optimizer=OptimizerSpec(kind="muon", schedule="manual", K=6, eta=1e308, beta=0.9),
            seeds=(1, 2),
            verify=False,
        )
        path = tmp_path / "cfg.ini"
        save(cfg, path)
        assert cli.main(["run", str(path)]) == cli.EXIT_NUMERICAL_ABORT
        assert "mean min grad norm = n/a, " in capsys.readouterr().out
        out = tmp_path / "out"
        lines = (out / "run.summary.csv").read_text().splitlines()
        assert lines[1:] == ["1,0,,,0,1", "2,0,,,0,1", "aggregate,,,,,"]
        assert cli.main(["sweep", str(path), "--axis", "K", "--values", "4,6"]) == (
            cli.EXIT_NUMERICAL_ABORT
        )
        printed = capsys.readouterr().out.splitlines()
        assert printed == [f"K={k}: mean min grad norm = n/a [aborted]" for k in (4, 6)]
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[1:] == [f"K,{k},{seed},,,0,1" for k in (4, 6) for seed in (1, 2)]
        assert (out / "sweep_loglog.dat").read_text() == ""  # both cells skipped
