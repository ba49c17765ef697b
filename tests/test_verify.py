import numpy as np
import pytest

from polarmuon import cli, matcore, optimizer as opt, suites, verify
from polarmuon.errors import ConfigError, DimensionError, NumericalAbortError, PreconditionError
from polarmuon.matcore import RngStream, nuclear_norm, svd
from polarmuon.polar import (
    RANGE_SLACK,
    PolarConfig,
    cubic_schedule,
    exact_polar,
    inexact_polar,
    polar_express_schedule,
    polynomial_iterate,
    prop1_gamma,
    quintic_empirical_schedule,
    quintic_theoretical_schedule,
)
from polarmuon.sketch import SketchConfig, gaussian_sketch, kaczmarz_sketch, randomized_polar
from polarmuon.verify import (
    FlopModel,
    StepFlopsConfig,
    _polar_stages,
    check_polynomial_lemmas,
    check_prop2,
    estimate_gamma_nu,
    flop_counts,
    measured_step_flops,
)


class TestEstimateGammaNu:
    def test_exact_polar_is_lossless(self):
        m = RngStream(71).normal((6, 8))
        est = estimate_gamma_nu(m, lambda a, _r: exact_polar(a), 1, RngStream(71))
        assert est.gamma_hat == pytest.approx(0.0, abs=1e-10)
        assert est.nu_hat == pytest.approx(0.0, abs=1e-10)
        assert est.gamma_se == 0.0 and est.nu_se == 0.0

    def test_matches_prop1_closed_form(self):
        m = RngStream(72).normal((5, 7))
        cfg = PolarConfig(schedule=cubic_schedule(2), delta_rule="frobenius-norm")
        est = estimate_gamma_nu(
            m, lambda a, _r: inexact_polar(a, cfg), 1, RngStream(72)
        )
        gamma = prop1_gamma(svd(m).sigma, cfg.resolve_delta(m), cfg.schedule)
        assert est.gamma_hat == pytest.approx(gamma, abs=1e-10)
        # deterministic polynomial solvers have op norm <= 1, so nu_hat <= 0
        assert est.nu_hat <= 1e-10

    def test_trial_streams_match_substreams(self):
        # trial t draws what a fresh rng.substream(t) draws, and a draw of
        # trial t - 1 leaves no trace
        rng, drawn = RngStream(74, 9), []

        def record(a, r):
            drawn.append((r.normal((3, 2)), r.uniform(5), r.generator.integers(0, 1000, 7)))
            return a

        verify._polar_trials(np.eye(2), record, 50, rng)
        for t, got in enumerate(drawn):
            r = rng.substream(t)
            want = (r.normal((3, 2)), r.uniform(5), r.generator.integers(0, 1000, 7))
            assert all(x.tobytes() == y.tobytes() for x, y in zip(got, want))
        assert len({d[0].tobytes() for d in drawn}) == 50

    def test_random_map_statistics(self):
        # polar output scaled by a random factor in {0.5, 1.0} gives known
        # mean alignment and op-norm second moment
        m = np.diag([2.0, 1.0])
        def noisy(a, rng):
            f = 0.5 if rng.uniform(()) < 0.5 else 1.0
            return f * exact_polar(a)
        est = estimate_gamma_nu(m, noisy, 4000, RngStream(73))
        assert est.gamma_hat == pytest.approx(0.25, abs=3 * est.gamma_se + 1e-12)
        expected_nu = np.sqrt(0.5 * (0.25 + 1.0)) - 1.0
        assert est.nu_hat == pytest.approx(expected_nu, abs=3 * est.nu_se + 1e-12)

    def test_degenerate_trials_counted(self):
        m = np.eye(2)
        def sometimes_zero(a, rng):
            return np.zeros_like(a) if rng.uniform(()) < 0.5 else exact_polar(a)
        est = estimate_gamma_nu(m, sometimes_zero, 200, RngStream(74))
        assert est.degenerate_trials > 0
        assert len(est.ratios) + est.degenerate_trials == 200
        assert est.gamma_hat == pytest.approx(0.0, abs=1e-12)

    def test_all_degenerate_raises(self):
        with pytest.raises(PreconditionError):
            estimate_gamma_nu(
                np.eye(2), lambda a, _r: np.zeros_like(a), 5, RngStream(75)
            )

    def test_measurement_validates_output_once(self, monkeypatch):
        # one as_matrix pass per output T, and the floats of the public norms
        rng = RngStream(94)
        a = rng.normal((6, 4))
        outs = [rng.normal((6, 4)), np.asfortranarray(rng.normal((6, 4))), np.zeros((6, 4))]
        refs = [(matcore.inner_product(a, t), matcore.operator_norm(t)) for t in outs]
        checked = []
        as_matrix = matcore.as_matrix
        monkeypatch.setattr(
            matcore, "as_matrix", lambda m, *n: checked.append(1) or as_matrix(m, *n)
        )
        got = [verify._alignment_and_op_norm(a, t) for t in outs]
        assert len(checked) == len(outs)
        assert [(x.hex(), y.hex()) for x, y in got] == [(x.hex(), y.hex()) for x, y in refs]

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (np.ones((4, 6)), DimensionError, "shape mismatch: (6, 4) vs (4, 6)"),
            (np.ones((6, 4, 1)), DimensionError, "b must be 2-D, got ndim=3"),
            (np.full((6, 4), np.nan), NumericalAbortError, "b contains non-finite entries"),
        ],
    )
    def test_bad_polar_output_raises(self, bad, error, message):
        a = RngStream(95).normal((6, 4))
        with pytest.raises(error) as exc:
            matcore.inner_product(a, bad)
        assert str(exc.value) == message
        # estimate_gamma_nu names the map's output; inner_product keeps "b"
        polar_message = "polar output" + message[1:] if message.startswith("b ") else message
        with pytest.raises(error) as exc:
            estimate_gamma_nu(a, lambda m, r: bad, 2, RngStream(96))
        assert str(exc.value) == polar_message

    def test_trials_precondition(self):
        with pytest.raises(PreconditionError):
            estimate_gamma_nu(np.eye(2), lambda a, _r: a, 0, RngStream(76))


def _reference_measure(a, t):
    """(<A, T>, ||T||_op) of one output by the public per-matrix norms."""
    return matcore.inner_product(a, t), matcore.operator_norm(t)


def _outputs(shape, count, seed):
    """``count`` polar outputs of ``shape``: C- and Fortran-ordered, all-zero,
    and, for a tall shape, the Fortran-ordered transpose that
    ``polynomial_iterate``'s Gram form returns."""
    rng = RngStream(seed)
    kinds = [
        lambda: rng.normal(shape),
        lambda: np.asfortranarray(rng.normal(shape)),
        lambda: np.zeros(shape),
    ]
    if shape[0] >= 2 * shape[1]:
        steps = quintic_theoretical_schedule(5).coeff_array()
        kinds.append(lambda: polynomial_iterate(rng.normal(shape) / (4.0 * shape[0]), steps))
    return [kinds[t % len(kinds)]() for t in range(count)]


def _replay(outs):
    """A polar map that returns ``outs`` in turn, whatever its input."""
    it = iter(outs)
    return lambda a, rng: next(it)


class TestStackedMeasurement:
    """Trials are measured in C-ordered blocks, bit for bit the per-matrix
    measurement of each output."""

    @pytest.mark.parametrize("shape", [(4, 4), (5, 8), (11, 3), (24, 6), (16, 8), (7, 7)])
    @pytest.mark.parametrize("block_matrices", [1, 3, 64])
    def test_blocks_equal_per_trial_measurement(self, monkeypatch, shape, block_matrices):
        a = RngStream(97).normal(shape)
        outs = _outputs(shape, 17, 98)
        if shape == (24, 6):
            assert outs[3].flags.f_contiguous and not outs[3].flags.c_contiguous
        monkeypatch.setattr(verify, "BLOCK_ENTRIES", block_matrices * a.size)
        inners, op_norms = verify._polar_trials(a, _replay(outs), 17, RngStream(99))
        single = [verify._alignment_and_op_norm(a, t) for t in outs]
        ref = [_reference_measure(a, t) for t in outs]
        got = [(x.hex(), y.hex()) for x, y in zip(inners.tolist(), op_norms.tolist())]
        assert got == [(x.hex(), y.hex()) for x, y in single]
        assert got == [(x.hex(), y.hex()) for x, y in ref]
        assert 0.0 in op_norms.tolist()

    def test_stacked_svd_failure_retries_each_matrix(self, monkeypatch):
        a = RngStream(100).normal((6, 4))
        outs = _outputs((6, 4), 9, 101)
        want = verify._polar_trials(a, _replay(outs), 9, RngStream(0))
        shapes, lapack = [], np.linalg.svd

        def stacked_fails(x, *args, **kwargs):
            shapes.append(x.shape)
            if x.ndim == 3:
                raise np.linalg.LinAlgError("SVD did not converge")
            return lapack(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", stacked_fails)
        got = verify._polar_trials(a, _replay(outs), 9, RngStream(0))
        assert shapes == [(9, 6, 4)] + [(6, 4)] * 9
        assert [w.tobytes() for w in want] == [g.tobytes() for g in got]

    @pytest.mark.parametrize("shape, trials", [((64, 40), 60), ((4, 4), 5000), ((300, 300), 3)])
    def test_block_never_exceeds_entry_bound(self, monkeypatch, shape, trials):
        a = np.ones(shape)
        blocks, measure = [], verify._measure_block
        monkeypatch.setattr(
            verify, "_measure_block", lambda x, b: blocks.append(b.shape) or measure(x, b)
        )
        verify._polar_trials(a, lambda x, r: x, trials, RngStream(102))
        assert sum(b[0] for b in blocks) == trials
        assert all(b[1:] == shape for b in blocks)
        assert all(b[0] == 1 or b[0] * a.size <= verify.BLOCK_ENTRIES for b in blocks)
        full = max(1, verify.BLOCK_ENTRIES // a.size)
        assert [b[0] for b in blocks[:-1]] == [full] * (len(blocks) - 1)

    @pytest.mark.parametrize(
        "bad, error",
        [(np.ones((4, 6)), DimensionError), (np.full((6, 4), np.inf), NumericalAbortError)],
    )
    def test_invalid_output_raises_at_its_own_trial(self, monkeypatch, bad, error):
        a = RngStream(103).normal((6, 4))
        calls, measured, measure = [], [], verify._measure_block
        monkeypatch.setattr(
            verify, "_measure_block", lambda x, b: measured.append(len(b)) or measure(x, b)
        )

        def polar(x, r):
            calls.append(r.stream)
            return bad if len(calls) == 4 else x

        with pytest.raises(error):
            verify._polar_trials(a, polar, 10, RngStream(104))
        assert len(calls) == 4 and measured == []

    def test_one_validation_per_trial(self, monkeypatch):
        a = RngStream(105).normal((5, 3))
        checked, as_matrix = [], matcore.as_matrix
        monkeypatch.setattr(
            matcore, "as_matrix", lambda m, *n: checked.append(n) or as_matrix(m, *n)
        )
        verify._polar_trials(a, lambda x, r: x, 40, RngStream(106))
        assert checked == [("polar output",)] * 40


class TestCheckProp2:
    def test_kept_trial_streams_replay_their_substreams(self, monkeypatch):
        # a polar map may keep the rng of each trial: after the check returns,
        # each kept rng goes on drawing what rng.substream(t) draws after the
        # trial's own draws
        m = np.diag([10.0, 10.0, 1.0, 1.0])
        scfg = SketchConfig(s=2, p=2, h=0)
        pcfg = PolarConfig(schedule=quintic_theoretical_schedule(6), delta_rule=10.0)
        kept, polar = [], verify.randomized_polar
        monkeypatch.setattr(
            verify, "randomized_polar",
            lambda a, s, cfg, r: kept.append((r, cfg)) or polar(a, s, cfg, r),
        )
        rng = RngStream(77, 3)
        check_prop2(m, scfg, pcfg, trials=6, rng=rng)
        estimate_gamma_nu(m, lambda a, r: kept.append((r, None)) or r.normal(a.shape), 6, rng)
        assert len(kept) == 12
        for i, (r, cfg) in enumerate(kept):
            replay = rng.substream(i % 6)
            if cfg is None:
                replay.normal(m.shape)
            else:
                polar(m, scfg, cfg, replay)
            assert r.normal(5).tobytes() == replay.normal(5).tobytes(), i

    def test_gapped_spectrum_passes(self):
        m = np.diag([10.0, 10.0, 1.0, 1.0])
        rep = check_prop2(
            m,
            SketchConfig(s=2, p=2, h=0),
            PolarConfig(schedule=quintic_theoretical_schedule(6), delta_rule=10.0),
            trials=500,
            rng=RngStream(77),
        )
        assert rep.passed
        assert rep.bound == pytest.approx(19.6)
        assert rep.mean_alignment >= rep.bound - 3 * rep.alignment_se
        assert rep.max_op_norm <= 1.0 + 1e-10

    def test_empirical_schedule_op_norm_not_asserted(self):
        m = np.diag([10.0, 10.0, 1.0, 1.0])
        rep = check_prop2(
            m,
            SketchConfig(s=2, p=2, h=0),
            PolarConfig(schedule=quintic_empirical_schedule(6), delta_rule=10.0),
            trials=100,
            rng=RngStream(78),
        )
        assert rep.op_norm_pass  # not claimed for non-theoretical schedules

    @pytest.mark.parametrize("variant", ["nanogpt", "cifar10"])
    def test_polar_express_op_norm_gated(self, variant):
        # the prop2 scope's matrix and sketch: PolarExpress maps [0, 1] into
        # [0, 1], so its operator-norm bound is now asserted
        sched = polar_express_schedule(variant)
        assert sched.theoretical
        rep = check_prop2(
            np.diag([10.0, 10.0, 1.0, 1.0]),
            SketchConfig(s=2, p=2, h=0),
            PolarConfig(schedule=sched, delta_rule=10.0),
            trials=500,
            rng=RngStream(suites._SUITE_SEED, 2),
        )
        assert rep.op_norm_pass and rep.max_op_norm <= 1.0 + verify.OP_NORM_TOL

    def test_same_trials_as_estimate_gamma_nu(self):
        # both estimators measure the outputs of one trial loop
        m = RngStream(80).normal((9, 7))
        scfg = SketchConfig(s=3, p=2, h=1)
        pcfg = PolarConfig(schedule=quintic_theoretical_schedule(5), delta_rule="operator-norm")
        rep = check_prop2(m, scfg, pcfg, trials=40, rng=RngStream(81))
        est = estimate_gamma_nu(
            m, lambda a, r: randomized_polar(a, scfg, pcfg, r), 40, RngStream(81)
        )
        assert est.degenerate_trials == 0
        assert np.max(est.op_norms) == rep.max_op_norm
        assert np.mean(est.ratios) * nuclear_norm(m) == pytest.approx(
            rep.mean_alignment, rel=1e-12
        )

    def test_operator_norm_delta_on_random_matrices(self):
        # delta and the spectrum come from two SVDs whose sigma_1 may differ
        # in the last ulp; delta = sigma_1 must still meet the bound's
        # hypothesis delta >= sigma_1
        rng = RngStream(90)
        scfg = SketchConfig(s=3, p=2, h=0)
        pcfg = PolarConfig(schedule=quintic_theoretical_schedule(3), delta_rule="operator-norm")
        for i in range(60):
            rows, cols = (int(v) for v in rng.generator.integers(8, 40, size=2))
            m = rng.normal((rows, cols))
            rep = check_prop2(m, scfg, pcfg, trials=20, rng=rng.substream(i))
            assert rep.passed, (i, rows, cols)

    def test_trials_share_the_bounds_delta(self, monkeypatch):
        # under operator-norm, delta is sigma_1 of the one SVD of m that gives
        # the spectrum, and it is handed to every trial as an explicit delta:
        # neither the bound nor a trial takes another SVD of m
        m = RngStream(92).normal((9, 7))
        sigma_1 = float(matcore.svd(m).sigma[0])
        pcfg = PolarConfig(schedule=quintic_theoretical_schedule(3), delta_rule="operator-norm")
        seen, svds_of_m = [], []
        traced, lapack_svd = verify.randomized_polar, np.linalg.svd
        monkeypatch.setattr(
            verify, "randomized_polar",
            lambda a, scfg, cfg, rng: seen.append(cfg.delta_rule) or traced(a, scfg, cfg, rng),
        )
        monkeypatch.setattr(
            np.linalg, "svd",
            lambda a, **k: svds_of_m.append(np.array_equal(a, m)) or lapack_svd(a, **k),
        )
        check_prop2(m, SketchConfig(s=3, p=2, h=1), pcfg, trials=5, rng=RngStream(93))
        assert svds_of_m.count(True) == 1
        assert [d.hex() for d in seen] == [sigma_1.hex()] * 5

    def test_kaczmarz_rejected(self):
        with pytest.raises(PreconditionError):
            check_prop2(
                np.diag([2.0, 1.0, 0.5]),
                SketchConfig(s=1, p=2, kind="kaczmarz"),
                PolarConfig(),
                trials=10,
                rng=RngStream(79),
            )


class TestPolynomialLemmas:
    def test_cubic_passes(self):
        rep = check_polynomial_lemmas(cubic_schedule(4))
        assert rep.all_passed
        for s in rep.steps:
            assert s.max_value <= 1.0 + 1e-12
            assert s.min_gain >= -1e-12
            assert s.min_derivative >= -1e-12

    def test_quintic_theoretical_passes(self):
        assert check_polynomial_lemmas(quintic_theoretical_schedule(4)).all_passed

    def test_quintic_empirical_overshoot_reported(self):
        rep = check_polynomial_lemmas(quintic_empirical_schedule(1))
        assert not rep.all_passed
        assert not quintic_empirical_schedule(1).theoretical
        # the exact peak, which a 10^4-point grid read as 1.2023686020
        assert rep.steps[0].max_value == pytest.approx(1.2023686051632128, rel=0, abs=RANGE_SLACK)


class TestFlopModels:
    def test_full_space_formula(self):
        full, _, _ = flop_counts(FlopModel(m=100, n=50, ell=10, q=3, h=0))
        assert full == 3 * (4 * 100 * 50**2 + 2 * 50**3)

    def test_randomized_formula(self):
        _, rand, _ = flop_counts(FlopModel(m=100, n=50, ell=10, q=3, h=2))
        assert rand == 14 * 100 * 50 * 10 + 3 * (4 * 50 * 10**2 + 2 * 10**3)

    def test_reference_ratio(self):
        _, _, ratio = flop_counts(FlopModel(m=4096, n=4096, ell=256, q=5, h=1))
        assert 40.0 <= ratio <= 45.0

    def test_ell_precondition(self):
        with pytest.raises(PreconditionError):
            FlopModel(m=10, n=10, ell=11, q=1)

    def test_nesterov_polyak_delta(self):
        kw = dict(m=16, n=8, polar="polynomial", q=3)
        nest = measured_step_flops(StepFlopsConfig("muon", momentum="nesterov", **kw))
        poly = measured_step_flops(StepFlopsConfig("muon", momentum="polyak", **kw))
        assert nest - poly == 2 * 16 * 8

    def test_polynomial_matches_flop_model(self):
        # on a near-square matrix the polynomial-iteration part of the muon
        # step equals the full-space model count
        m, n, q = 24, 16, 4
        step = measured_step_flops(
            StepFlopsConfig("muon", m=m, n=n, momentum="polyak", polar="polynomial", q=q)
        )
        full, _, _ = flop_counts(FlopModel(m=m, n=n, ell=1, q=q))
        overhead = 2 * m * n + 3 * m * n + 2 * m * n  # momentum + rescale + update
        assert step == full + overhead

    @pytest.mark.parametrize("m, n", [(32, 16), (16, 32), (31, 16)])
    @pytest.mark.parametrize("q", [0, 1, 5])
    def test_polynomial_priced_in_the_form_it_runs(self, m, n, q):
        # Gram form from d1 >= 2 d0 on (and q >= 1), the direct form below
        d0, d1 = min(m, n), max(m, n)
        direct = q * (4 * d1 * d0**2 + 2 * d0**3)
        gram = 4 * d1 * d0**2 + (8 * q - 6) * d0**3
        want = gram if q and d1 >= 2 * d0 else direct
        assert _polar_stages("polynomial", m, n, q, 0, 0)["polynomial"] == want
        assert flop_counts(FlopModel(m=m, n=n, ell=1, q=q))[0] == direct

    def test_wide_sketch_polynomial_price(self):
        # 1024^2, ell = 64, q = 5: the ell x n compression takes the Gram form,
        # while the paper's model keeps q (4 n ell^2 + 2 ell^3)
        stages = _polar_stages("randomized", 1024, 1024, 5, 64, 1)
        assert stages["polynomial"] == 4 * 1024 * 64**2 + 34 * 64**3
        _, rand, _ = flop_counts(FlopModel(m=1024, n=1024, ell=64, q=5, h=1))
        model_poly = 5 * (4 * 1024 * 64**2 + 2 * 64**3)
        assert model_poly - stages["polynomial"] == 60_817_408
        assert rand == 10 * 1024 * 1024 * 64 + model_poly

    def test_randomized_scales_with_h(self):
        base = dict(m=64, n=64, momentum="polyak", polar="randomized", q=3, ell=8)
        f0 = measured_step_flops(StepFlopsConfig("muon", h=0, **base))
        f1 = measured_step_flops(StepFlopsConfig("muon", h=1, **base))
        assert f1 - f0 == 4 * 64 * 64 * 8

    @pytest.mark.parametrize("polar, ell", [("polynomial", 0), ("randomized", 8)])
    def test_delta_priced_on_full_matrix_by_rule(self, polar, ell):
        # the rule runs on the m x n momentum; only the rescale sees ell
        m, n = 64, 32
        base = dict(m=m, n=n, momentum="polyak", polar=polar, q=3, ell=ell, h=1)
        cost = {
            rule: measured_step_flops(StepFlopsConfig("muon", delta=rule, **base))
            for rule in ("frobenius-norm", "operator-norm", "explicit")
        }
        assert cost["frobenius-norm"] - cost["explicit"] == 2 * m * n
        assert cost["operator-norm"] - cost["explicit"] == 14 * m * n**2 + 8 * n**3
        with pytest.raises(ConfigError):
            measured_step_flops(StepFlopsConfig("muon", delta="max-entry", **base))

    def test_basis_priced_as_it_runs(self):
        def basis(m, ell):
            return _polar_stages("randomized", m, m, 1, ell, 0)["basis"]

        # CholeskyQR2: 2 x (Gram, Cholesky, inverse, apply) + the check's Gram
        m, ell = 256, 32
        assert m * ell**2 >= matcore.CHOLESKY_QR_MIN_WORK
        assert basis(m, ell) == 2 * (4 * m * ell**2 + ell**3 // 3 + 2 * ell**3) + 2 * m * ell**2
        m, ell = 16, 5  # small Y takes the SVD
        assert m * ell**2 < matcore.CHOLESKY_QR_MIN_WORK
        assert basis(m, ell) == 14 * m * ell**2 + 8 * ell**3

    def test_config_errors(self):
        for optimizer in ("lbfgs", "sgd_nesterov", "adamw"):  # muon is the one optimizer
            with pytest.raises(ConfigError):
                measured_step_flops(StepFlopsConfig(optimizer, 4, 4))
        with pytest.raises(ConfigError):
            measured_step_flops(StepFlopsConfig("muon", 4, 4, polar="cholesky"))
        with pytest.raises(ConfigError):
            measured_step_flops(StepFlopsConfig("muon", 4, 4, polar="randomized", ell=0))


class TestSuites:
    @pytest.mark.parametrize("kind", ["gaussian", "kaczmarz"])
    def test_gram_moments_match_per_trial_loop(self, kind):
        rng = RngStream(61)
        base = rng.normal((5, 6))
        trials = 300
        if kind == "gaussian":
            omega = gaussian_sketch(6, 3, rng, trials)
        else:
            omega = kaczmarz_sketch(base, 3, rng, trials)
        acc = np.zeros((6, 6))
        sq = np.zeros((6, 6))
        for om in omega:
            g = om @ om.T
            acc += g
            sq += g * g
        mean = acc / trials
        se = np.sqrt(np.maximum(sq / trials - mean**2, 0.0) / trials)
        got_mean, got_se = suites._gram_moments(omega)
        assert np.array_equal(got_mean, mean)
        assert np.array_equal(got_se, se)

    def test_lemma1_checks_muon_step(self, monkeypatch):
        # the scope compares the rescaled recursion with the M_k that
        # optimizer.muon_step forms, so a step that forms Polyak momentum
        # M_k = C_k under kind = "nesterov" fails it
        def polyak_step(state, g, polar):
            state.c = state.c * state.beta + g
            polar(state.c)

        monkeypatch.setattr(opt, "muon_step", polyak_step)
        (result,) = suites.run_scope("lemma1")
        assert not result.passed

    def test_scope_outputs_pinned(self, tmp_path, capsys):
        # a change of the bound calculators, the range checks, the sketch draws
        # or the FLOP model shows here; prop1 and lemma1 are not pinned, as
        # they print deviations of order 1e-16 that vary with the BLAS build
        scopes = ["polynomials", "prop2", "sketch-moments", "flops"]
        assert cli.main(["verify", *scopes, "--output-dir", str(tmp_path)]) == cli.EXIT_OK
        capsys.readouterr()
        lines = (tmp_path / "verify.txt").read_text(encoding="utf-8").splitlines()
        assert lines == [
            "[PASS] polynomials: cubic range properties -- "
            "min_value=0.000e+00 max_value=1.000000000000",
            "[PASS] polynomials: quintic-theoretical range properties -- "
            "min_value=0.000e+00 max_value=1.000000000000",
            "[PASS] polynomials: quintic-empirical overshoot reported -- "
            "max_value=1.202369 (expected > 1)",
            "[PASS] prop2: expected alignment above bound (3 SE) -- "
            "mean=22.0000 bound=19.6000 se=0.0000",
            "[PASS] prop2: operator norm <= 1 in every realization -- "
            "max_op_norm=1.000000000000",
            "[PASS] sketch-moments: Gaussian E[Omega Omega^T] = ell I -- n=6 ell=3 trials=5000",
            "[PASS] sketch-moments: Kaczmarz E[Omega Omega^T] = I -- n=6 ell=3 trials=5000",
            "[PASS] flops: 4096/256/q5/h1 reduction ratio in [40, 45] -- "
            "full=2061584302080 randomized=48486154240 ratio=42.52 "
            "(paper-scale reduction ~40x)",
        ]

    def test_noise_moments_output_pinned(self, tmp_path, capsys):
        # the exact fit's moment/budget, and the lines of the scope's draws;
        # a change of the quadrature, of draw order or of summation order
        # shows here
        assert cli.main(["verify", "noise-moments", "--output-dir", str(tmp_path)]) == cli.EXIT_OK
        capsys.readouterr()
        lines = (tmp_path / "verify.txt").read_text(encoding="utf-8").splitlines()
        trend = " (coupled draws; an SE at alpha is no error bar)"
        assert lines == [
            "[PASS] noise-moments: alpha=1.25 exact moment within budget, sampled order 0.375 "
            "(3 SE) -- exact/budget=0.9000 order 0.375: estimate=0.7816 exact=0.7825 se=0.0017",
            "[PASS] noise-moments: alpha=1.25 batch moment decreases over B in (1,4,16,64) -- "
            "0.7048 -> 0.4137 -> 0.2174 -> 0.1373" + trend,
            "[PASS] noise-moments: alpha=1.5 exact moment within budget, sampled order 0.4375 "
            "(3 SE) -- exact/budget=0.9000 order 0.4375: estimate=0.7891 exact=0.7899 se=0.0016",
            "[PASS] noise-moments: alpha=1.5 batch moment decreases over B in (1,4,16,64) -- "
            "0.6810 -> 0.3019 -> 0.1200 -> 0.0561" + trend,
            "[PASS] noise-moments: alpha=2.0 exact moment within budget, sampled order 0.5625 "
            "(3 SE) -- exact/budget=0.9000 order 0.5625: estimate=0.8209 exact=0.8215 se=0.0013",
            "[PASS] noise-moments: alpha=2.0 batch moment decreases over B in (1,4,16,64) -- "
            "0.6717 -> 0.1795 -> 0.0445 -> 0.0121" + trend,
        ]

    def test_noise_moments_uniform_calls(self, monkeypatch):
        # 22 chunks for the moments and 286 for the batch moments: each
        # stream is drawn once for the three models, and the fit draws nothing
        calls = []
        uniform = RngStream.uniform
        monkeypatch.setattr(
            RngStream, "uniform", lambda self, shape: (calls.append(1), uniform(self, shape))[1]
        )
        suites._scope_noise_moments()
        assert len(calls) == 308

    def test_noise_moments_estimates_pinned(self, monkeypatch):
        # full-precision estimates of the scope, as three alpha-by-alpha
        # calls of each estimator returned them
        calls = []

        def record(fn):
            def wrapped(models, *args, **kwargs):
                out = fn(models, *args, **kwargs)
                calls.append((fn.__name__, len(models), out))
                return out
            return wrapped

        for name in ("empirical_alpha_moment", "empirical_batch_moments"):
            monkeypatch.setattr(suites.noise_mod, name, record(getattr(suites.noise_mod, name)))
        suites._scope_noise_moments()
        # one call per estimator, each for the three models
        assert [call[:2] for call in calls] == [
            ("empirical_alpha_moment", 3),
            ("empirical_batch_moments", 3),
        ]
        moments, coupled = (out for *_, out in calls)
        assert repr(moments) == (
            "[(0.7816260402001886, 0.0017481901700791293), "
            "(0.7891129608968149, 0.0015907144316293115), "
            "(0.8208870514804237, 0.0013125106461734477)]"
        )
        assert repr(coupled) == (
            "[{1: (0.704754760191765, 0.0666325534216535), "
            "4: (0.4137306777554673, 0.03124367775540241), "
            "16: (0.21740202848081686, 0.01133308150894665), "
            "64: (0.1372953666138166, 0.00993978778117556)}, "
            "{1: (0.6809546969535817, 0.06451151062686611), "
            "4: (0.30194725064503863, 0.021652043909052753), "
            "16: (0.11996294398758761, 0.005614695043143672), "
            "64: (0.05613445734784763, 0.0036661345926611794)}, "
            "{1: (0.6717019213014834, 0.0528382944430076), "
            "4: (0.1795090374176462, 0.009093866793784591), "
            "16: (0.04450853214805113, 0.001219816161026391), "
            "64: (0.012120786066073747, 0.0004202681981021521)}]"
        )
