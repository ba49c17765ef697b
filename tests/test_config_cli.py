import csv
import hashlib
import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from polarmuon import cli, matcore, optimizer as opt, runner, suites
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

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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
            momentum="nesterov" if g.uniform() < 0.5 else "polyak",
            schedule=["corollary1", "theorem1", "manual"][int(g.integers(0, 3))],
            K=int(g.integers(2, 500)),
            B=int(g.integers(1, 32)),
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
            # fitted scales are valid only for the parameter's shape
            calib_shape=(m, rank if kind == "factorization" else n)
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
        cfg = RunConfig(problem=ProblemSpec(m=6, n=6, rank=4), noise=model)
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
            ("[optimizer]\nalpha = 1.5\n", "optimizer.alpha: unknown key"),  # [noise] alpha
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

    def test_repeated_seed_is_config_error(self, tmp_path, capsys):
        # a repeated seed would write its trace twice and count twice in the
        # aggregate
        with pytest.raises(ConfigError, match="run.seeds: seed 1 is listed twice"):
            parse("[run]\nseeds = 1, 2, 1\n")
        with pytest.raises(ConfigError, match="seed 4 is listed twice"):
            RunConfig(seeds=(3, 4, 4, 3))
        path = tmp_path / "seeds.ini"
        path.write_text(f"[run]\nseeds = 1, 1, 2\noutput_dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert "run.seeds: seed 1 is listed twice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unfittable_tail_is_config_error(self, tmp_path, capsys):
        # the run fits its scales only up to the quadrature's largest tail
        # exponent; with the scales written in, any tail runs
        body = "[problem]\nm = 4\nn = 3\n[optimizer]\nk = 2\n[noise]\nalpha = 1.5\nsigma0 = 1.0\n"
        path = tmp_path / "tail.ini"
        path.write_text(body + f"tail_exponent = 40.0\n[run]\noutput_dir = {tmp_path / 'a'}\n")
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert "noise.tail_exponent: the run fits the scales" in capsys.readouterr().err
        path.write_text(
            body + f"tail_exponent = 40.0\nscale0 = 0.1\n[run]\noutput_dir = {tmp_path / 'b'}\n"
        )
        assert cli.main(["run", str(path)]) == cli.EXIT_OK

    def test_calib_shape_must_match_parameter_shape(self, tmp_path, capsys):
        # the exact fit gives 2 x 2 scales 11.9x the 16 x 16 fit at
        # alpha = 1.5: 37x the noise's alpha-moment budget on the 16 x 16
        # parameter
        path = tmp_path / "calib.ini"
        path.write_text(
            "[problem]\nm = 16\nn = 16\n[noise]\nalpha = 1.5\nsigma0 = 1.0\nscale0 = 0.3\n"
            f"calib_shape = 2, 2\n[run]\noutput_dir = {tmp_path / 'out'}\n"
        )
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert "fitted for 2 x 2, but the parameter is 16 x 16" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        # a factorization's parameter is m x rank (the desk-heavytail INI)
        cfg = parse(
            "[problem]\nkind = factorization\nm = 16\nn = 16\nrank = 8\n"
            "[noise]\nsigma0 = 0.5\nscale0 = 0.1\ncalib_shape = 16, 8\n"
        )
        assert cfg.noise.calib_shape == cfg.problem.param_shape == (16, 8)
        with pytest.raises(ConfigError, match="fitted for 16 x 16, but the parameter is 16 x 8"):
            replace(cfg, noise=replace(cfg.noise, calib_shape=(16, 16)))

    def test_polar_spec_errors(self):
        with pytest.raises(ConfigError):
            parse("[polar]\ndelta = explicit:abc\n")
        with pytest.raises(ConfigError):
            parse("[polar]\ndelta = spectral\n")
        with pytest.raises(ConfigError):
            parse("[polar]\nschedule = custom\n")


    @pytest.mark.parametrize("schedule", ["manual", "corollary1", "theorem1"])
    @pytest.mark.parametrize("eta", [0.0, -0.5, math.inf, math.nan])
    def test_eta_positive_and_finite_whatever_the_schedule(self, schedule, eta):
        with pytest.raises(ConfigError, match="optimizer: eta must be positive and finite"):
            OptimizerSpec(schedule=schedule, eta=eta)

    def test_negative_eta_is_config_error(self, tmp_path, capsys):
        # a negative step size would run gradient ascent
        path = tmp_path / "ascent.ini"
        path.write_text(
            "[problem]\nm = 4\nn = 4\nrank = 2\n"
            "[optimizer]\nschedule = manual\nk = 3\neta = -0.5\n"
            f"[run]\noutput_dir = {tmp_path / 'out'}\n"
        )
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert "optimizer: eta must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "body, steps",
        [
            ("schedule = polar-express-nanogpt\nq = 3\n", 9),
            ("schedule = polar-express-cifar10\nq = 0\n", 9),
            ("schedule = custom\ncoefficients = 1.5, -0.5, 0.0\nq = 7\n", 1),
        ],
    )
    def test_q_the_schedule_does_not_read_is_config_error(self, tmp_path, capsys, body, steps):
        with pytest.raises(ConfigError, match=f"polar.q: the .* schedule has {steps} steps, not"):
            parse("[polar]\n" + body)
        path = tmp_path / "q.ini"
        path.write_text("[polar]\n" + body)
        assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG_ERROR
        assert "polar.q" in capsys.readouterr().err

    def test_q_equal_to_the_step_count_is_read(self):
        assert parse("[polar]\nschedule = polar-express-cifar10\nq = 9\n").polar.q == 9
        two = "coefficients = 1.5, -0.5, 0.0; 1.875, -1.25, 0.375\nq = 2\n"
        assert parse("[polar]\nschedule = custom\n" + two).polar.q == 2
        # serialize writes q as the step count, so these configs round-trip
        for schedule in (polar_express_schedule("nanogpt"), PolynomialSchedule(((1.5, -0.5, 0.0),))):
            cfg = RunConfig(polar=PolarConfig(schedule=schedule))
            assert parse(serialize(cfg)) == cfg


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


# INI body, which ends in its [run] section, -> sha256 of each run_seed*.csv
# and run.summary.csv it writes with seeds 1, 2
PINNED_RUNS = {
    "nesterov-polynomial-quadratic": (
        "[problem]\nkind = quadratic\nm = 10\nn = 8\nrank = 5\n"
        "[optimizer]\nkind = muon\nmomentum = nesterov\nschedule = corollary1\nk = 12\n"
        "[polar]\nsolver = polynomial\nschedule = quintic-theoretical\nq = 5\n[run]\n",
        {
            "run_seed1.csv":
                "ee091e4deca700bde11cd5c3d46d58d68e87e521f88b6aef50b3a523cc9b73a5",
            "run_seed2.csv":
                "ee091e4deca700bde11cd5c3d46d58d68e87e521f88b6aef50b3a523cc9b73a5",
            "run.summary.csv":
                "5f491c19736f56cc581c6cbdc01e6f0c4d771182ca74693361a6d6390b5eac87",
        },
    ),
    "polyak-gaussian-verify": (
        "[problem]\nkind = quadratic\nm = 12\nn = 10\nrank = 6\n"
        "[optimizer]\nmomentum = polyak\nschedule = manual\neta = 0.05\nbeta = 0.9\nk = 12\n"
        "[sketch]\ns = 3\np = 2\nh = 1\nkind = gaussian\n"
        "[run]\nverify = true\n",
        {
            "run_seed1.csv":
                "a282e76cb32dd919f6dbaef94ac4ef1eaa235d3c0ff90d84afdf55824218c5f4",
            "run_seed2.csv":
                "b8004fd4c7c12652885f0786fc6dc3c13d124cc74763e465fad735dc28470c8c",
            "run.summary.csv":
                "5e1a845f3d95a300ae189b9d72ce635da6a3230f0ee760652489dccd3236f3b6",
        },
    ),
    "noisy-kaczmarz-factorization": (
        "[problem]\nkind = factorization\nm = 12\nn = 12\nrank = 6\nscale = 1.0\n"
        "[optimizer]\nschedule = corollary1\nk = 12\n"
        "[sketch]\ns = 3\np = 2\nh = 1\nkind = kaczmarz\n"
        "[noise]\nalpha = 1.5\nsigma0 = 0.5\n[run]\n",
        {
            "run_seed1.csv":
                "44973eeefed87048883f706fbb93f962ad5b68c57a709b14941ea470138eb195",
            "run_seed2.csv":
                "57b1f4a37e50d8c20c30714ce2f7bed8b1e11349c1d329249d80d3f10c91603d",
            "run.summary.csv":
                "0a16469a870834ebde1027823050eb6e5872aa42e11cdfbfe4eb4caed4a6a161",
        },
    ),
    # hashed when the INI still set theorem 1's alpha twice, in [optimizer]
    # and [noise]: [noise] alpha is now the one tail index
    "noiseless-theorem1-tail-index": (
        "[problem]\nkind = quadratic\nm = 9\nn = 7\nrank = 4\n"
        "[optimizer]\nschedule = theorem1\nk = 12\n"
        "[noise]\nalpha = 1.5\n[run]\n",
        {
            "run_seed1.csv":
                "52b55d6353cf69aa181078b43892d199ad40f0be0b1089820040835aa2bab837",
            "run_seed2.csv":
                "52b55d6353cf69aa181078b43892d199ad40f0be0b1089820040835aa2bab837",
            "run.summary.csv":
                "2995c83958930bbbe32a3836e54c4b8efc0b227db099f28cfd29a6415cd8a8ae",
        },
    ),
    "operator-norm-polynomial": (
        "[problem]\nkind = quadratic\nm = 10\nn = 6\nrank = 3\n"
        "[optimizer]\nmomentum = polyak\nschedule = manual\neta = 0.05\nbeta = 0.9\nk = 12\n"
        "[polar]\nsolver = polynomial\nschedule = cubic\nq = 4\ndelta = operator-norm\n[run]\n",
        {
            "run_seed1.csv":
                "5b1eb51f41f9747f6ba2f14d3d6c52e2257a0a476a28c42479933c75ed11015a",
            "run_seed2.csv":
                "5b1eb51f41f9747f6ba2f14d3d6c52e2257a0a476a28c42479933c75ed11015a",
            "run.summary.csv":
                "cfca1539deea26dd5ea83301207a7a7d1051de470db986d9811798bb559dbe73",
        },
    ),
    # sigma1 = 0: each seed's noise is drawn ahead of its steps; these pin
    # the bits of the step-by-step draws they replace
    "noisy-batch3-factorization": (
        "[problem]\nkind = factorization\nm = 12\nn = 12\nrank = 6\nscale = 1.0\n"
        "[optimizer]\nschedule = corollary1\nk = 12\nb = 3\n"
        "[sketch]\ns = 3\np = 2\nh = 1\nkind = gaussian\n"
        "[noise]\nalpha = 1.5\nsigma0 = 0.5\n[run]\n",
        {
            "run_seed1.csv":
                "459724d4850f6b70917dac72af7b9359e0a4f5882a225fb74c36553a69325b8a",
            "run_seed2.csv":
                "9d823ac225442d7da4f28ebfd7b6ce8d8f9acaaad2889e2df8c1fc6013cf9b20",
            "run.summary.csv":
                "9b12ffdf168d851bb162a6d4aa03f0abf038845b42551c24125d99bc894b5463",
        },
    ),
    # 300 draws of a 16 x 8 factor take 76 800 uniforms: a step's batch
    # crosses a 2^16-uniform chunk
    "noisy-batch300-chunk-crossing": (
        "[problem]\nkind = factorization\nm = 16\nn = 16\nrank = 8\nscale = 1.0\n"
        "[optimizer]\nschedule = corollary1\nk = 6\nb = 300\n"
        "[polar]\nsolver = polynomial\nschedule = quintic-theoretical\nq = 5\n"
        "[noise]\nalpha = 1.25\nsigma0 = 0.5\n[run]\n",
        {
            "run_seed1.csv":
                "17014838b691d8d8bba14b749f881b6ed25f67f141a68886930462d3f5dde586",
            "run_seed2.csv":
                "08e37135a352a1008389f3bbc64c3b03db4e1fa767e1c9fe51b4f920bd681b99",
            "run.summary.csv":
                "905af569ec0e10788709f089e5f07997dce18135abd529d98cbd7a42a1360ce4",
        },
    ),
    # sigma1 > 0: the noise reads each step's grad norm and is drawn step by step
    "noisy-sigma1-batch2-quadratic": (
        "[problem]\nkind = quadratic\nm = 10\nn = 8\nrank = 5\n"
        "[optimizer]\nschedule = corollary1\nk = 12\nb = 2\n"
        "[polar]\nsolver = polynomial\nschedule = quintic-theoretical\nq = 5\n"
        "[noise]\nalpha = 1.5\nsigma0 = 0.3\nsigma1 = 0.4\n[run]\n",
        {
            "run_seed1.csv":
                "b4c04c8f1ebbc330b3e236595d72af2c86572069b1880fe695981136b419ec7e",
            "run_seed2.csv":
                "5f276596e4ca5a797bfbd5d516d01b312c623909719e4e87bada49de175917a5",
            "run.summary.csv":
                "050312c9d9fdc06ff65b104a87d37d9b3aff2b43f0f17de0cf77c2b603dc0d5d",
        },
    ),
    "exact-factorization-verify": (
        "[problem]\nkind = factorization\nm = 10\nn = 10\nrank = 4\nscale = 1.0\n"
        "[optimizer]\nschedule = corollary1\nk = 12\n"
        "[polar]\nsolver = exact\n[run]\nverify = true\n",
        {
            "run_seed1.csv":
                "adff742c11ca277b67b3868ab2aeb220eaca56494478709e4d66a376e0e3ea63",
            "run_seed2.csv":
                "b2d84d52e06cbab0848fc3dd17bf047046c20f9b757702a567ad035fedc43129",
            "run.summary.csv":
                "efb77fbf3a52c53287bef3799c8fdc2bf91c820a5d3b5621846dcad6c7b0ce46",
        },
    ),
}


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
            (8, 8),
            RngStream(84),
        )
        cfg = small_run_config(
            tmp_path, noise=model, optimizer=OptimizerSpec(schedule="theorem1", K=20)
        )
        cell = runner._apply_axis(cfg, "alpha", 1.25)
        assert cell.noise == NoiseModel(alpha=1.25, sigma0=1.0, sigma1=0.25)
        assert not cell.noise.calibrated
        # the one tail index sets theorem 1's schedule too
        assert cell.optimizer.step_schedule(cell.noise.alpha) == opt.theorem1_schedule(20, 1.25)

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

    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_run_bytes_pinned(self, tmp_path, name):
        # a refactor of the step path must not move a byte of these runs
        body, pins = PINNED_RUNS[name]
        path = tmp_path / "cfg.ini"
        path.write_text(body + f"seeds = 1, 2\noutput_dir = {tmp_path / 'out'}\n")
        assert cli.main(["run", str(path)]) == cli.EXIT_OK
        got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in (tmp_path / "out").glob("run*.csv")}
        assert got == pins

    def test_verify_bytes_pinned(self, tmp_path, capsys):
        # all seven scopes, in the order polynomials, prop1, prop2,
        # sketch-moments, noise-moments, flops, lemma1: a refactor of the
        # harness must not move a byte of either report
        out = tmp_path / "verify"
        argv = ["verify", "polynomials", "prop1", "prop2", "sketch-moments", "noise-moments",
                "flops", "lemma1", "--output-dir", str(out)]
        assert cli.main(argv) == cli.EXIT_OK
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("verify.txt", "verify.csv")}
        assert got == {
            "verify.txt": "1c0cb8ad9f8d8717c0335c85441f181bf2950ab08323bbc343c23aaa113b6d65",
            "verify.csv": "bc48a4681a755e755fea678324ffbd187efb8650e38f222cf0038a2dc034ce95",
        }

    def test_theorem1_reads_noise_alpha(self, tmp_path, monkeypatch):
        # theorem 1's step sizes are functions of the noise's tail index
        seen = set()
        step = opt.muon_step

        def record(state, g, polar):
            seen.add((state.eta, state.beta))
            return step(state, g, polar)

        monkeypatch.setattr(opt, "muon_step", record)
        path = tmp_path / "cfg.ini"
        path.write_text(
            "[problem]\nm = 4\nn = 4\nrank = 2\n[optimizer]\nschedule = theorem1\nk = 100\n"
            f"[noise]\nalpha = 1.5\n[run]\noutput_dir = {tmp_path / 'out'}\n"
        )
        assert cli.main(["run", str(path)]) == cli.EXIT_OK
        assert seen == {(100 ** -0.8, 1.0 - 100 ** -0.6)}

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

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_overflowed_muon_iterate_aborts_at_next_step(self, tmp_path, monkeypatch):
        # the one-step schedule 10 M/||M||_F has entries above 1.8, so
        # eta = 1e308 overflows the iterate in the first step; f of the
        # non-finite iterate is non-finite, so the seed aborts at step 1
        # with only step 0's row, the row an unaborted one-step run writes
        cfg = small_run_config(
            tmp_path,
            optimizer=OptimizerSpec(kind="muon", schedule="manual", K=5, eta=1e308, beta=0.9),
            polar=PolarConfig(schedule=PolynomialSchedule(((10.0, 0.0, 0.0),), name="custom")),
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

    def test_exact_solver_survives_non_converging_svd(self, tmp_path):
        # Build-dependent (OpenBLAS 0.3.31, one BLAS thread): LAPACK's SVD of
        # this run's step-8 momentum does not converge, while the SVD of its
        # transpose does.  Without the retry the seed aborted after 8 rows
        # with exit 3; other builds may converge at once.  The step sizes are
        # corollary1's for K = 25, the run in which the failure was seen.
        path = tmp_path / "svd.ini"
        path.write_text(
            "[problem]\nkind = quadratic\nm = 1024\nn = 1024\nrank = 256\ndecay = 0.99\n"
            "gen_seed = 3\n[optimizer]\nschedule = manual\nk = 9\n"
            "eta = 0.08944271909999159\nbeta = 0.8\n[polar]\nsolver = exact\n"
            f"[run]\nseeds = 1\noutput_dir = {tmp_path / 'out'}\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-m", "polarmuon.cli", "run", str(path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == cli.EXIT_OK, done.stderr
        rows = (tmp_path / "out" / "run_seed1.csv").read_text().splitlines()
        assert len(rows) == 1 + 9

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
            optimizer=OptimizerSpec(kind="muon", schedule="manual", K=5, eta=1e160),
            seeds=(1,),
            verify=False,
        )
        path = tmp_path / "cfg.ini"
        save(cfg, path)
        assert cli.main(["run", str(path)]) == cli.EXIT_NUMERICAL_ABORT

    def test_overflowing_delta_aborts_before_the_step(self, tmp_path):
        # the momentum's Frobenius norm overflows: an inf delta would scale
        # every step to 0 and freeze the iterate, so the seed aborts instead
        path = tmp_path / "cfg.ini"
        out = tmp_path / "out"
        path.write_text(
            "[problem]\nm = 8\nn = 8\nrank = 1\nscale = 1e154\n[optimizer]\nk = 5\n"
            f"[run]\noutput_dir = {out}\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["run", str(path)]) == cli.EXIT_NUMERICAL_ABORT
        assert (out / "run_seed1.csv").read_text().splitlines() == [",".join(CSV_COLUMNS)]

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
            "[optimizer]\nschedule = corollary1\nbeta = 1.0\n",  # beta is checked always
            "[optimizer]\nkind = sgd_nesterov\n",  # retired baselines: muon is the one kind
            "[optimizer]\nkind = adamw\n",
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

    def test_sweep_s_without_sketch_is_config_error(self, tmp_path, capsys):
        # a polynomial run without [sketch] draws no sketch for s to set
        cfg = small_run_config(tmp_path, seeds=(1,))
        assert cfg.sketch is None and cfg.polar.solver == "polynomial"
        path = tmp_path / "cfg.ini"
        save(cfg, path)
        rc = cli.main(["sweep", str(path), "--axis", "s", "--values", "2,3"])
        assert rc == cli.EXIT_CONFIG_ERROR
        assert "sweep axis 's'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
