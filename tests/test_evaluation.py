"""Metrics arithmetic, density curves, power-law fitting, benchmark harness."""

import warnings

import numpy as np
import pytest

from preid.data import Observation, ReidDataset
from preid.evaluation import (
    BOTH_ATLEAST,
    ONE_ATLEAST,
    PairPredictions,
    bench,
    density_curve,
    evaluate,
    fit_power_law,
    predict_pairs,
    report_from_predictions,
)
from preid.model import EncoderConfig, ReidModel, RtmmConfig
from preid.sampling import MATCH, NON_MATCH, EvalSet, PairSample


def preds(correct, is_match, classes=None, is_fp=None, densities=None):
    n = len(correct)
    return PairPredictions(
        correct=np.asarray(correct, dtype=bool),
        is_match=np.asarray(is_match, dtype=bool),
        classes=classes or ["car"] * n,
        is_fp_pair=np.asarray(is_fp if is_fp is not None else [False] * n),
        densities=np.asarray(densities if densities is not None else [(8, 8)] * n),
    )


class TestReportArithmetic:
    def test_balanced_confusion(self):
        # TP, FP, FN, TN all equal 1 -> accuracy and both F1s are 0.5
        r = report_from_predictions(preds(
            correct=[True, False, False, True],
            is_match=[True, False, True, False],
        ))
        assert r.accuracy == pytest.approx(0.5)
        assert r.f1_pos == pytest.approx(0.5)
        assert r.f1_neg == pytest.approx(0.5)
        assert r.n_pairs == 4

    def test_all_correct(self):
        r = report_from_predictions(preds([True] * 6, [True, False] * 3))
        assert r.accuracy == r.f1_pos == r.f1_neg == 1.0

    def test_handcrafted_eight_pairs(self):
        # confusion: TP=3, FN=1, TN=2, FP=2
        r = report_from_predictions(preds(
            correct=[True, True, True, False, True, True, False, False],
            is_match=[True, True, True, True, False, False, False, False],
            classes=["car"] * 4 + ["bus"] * 4,
            is_fp=[False] * 6 + [True, True],
        ))
        assert r.accuracy == pytest.approx(5 / 8)
        assert r.f1_pos == pytest.approx(2 * 3 / (2 * 3 + 2 + 1))
        assert r.f1_neg == pytest.approx(2 * 2 / (2 * 2 + 1 + 2))
        assert r.per_class == {"car": pytest.approx(3 / 4), "bus": pytest.approx(2 / 4)}
        assert r.fp_accuracy == pytest.approx(0.0)

    def test_fp_accuracy_nan_without_fp_pairs(self):
        r = report_from_predictions(preds([True, True], [True, False]))
        assert np.isnan(r.fp_accuracy)


class TestDensityCurve:
    def _pred(self):
        return preds(
            correct=[True, False, True, True, False, True],
            is_match=[True] * 6,
            densities=[(4, 16), (8, 8), (32, 2), (64, 64), (2, 2), (16, 128)],
        )

    def test_both_mode_manual_filter(self):
        rows = density_curve(self._pred(), BOTH_ATLEAST, [2, 8, 64])
        # min densities: 4, 8, 2, 64, 2, 16
        assert rows[0] == (2, pytest.approx(4 / 6), 6)
        assert rows[1] == (8, pytest.approx(2 / 3), 3)   # pairs 1, 3, 5
        assert rows[2] == (64, pytest.approx(1.0), 1)

    def test_one_mode_manual_filter(self):
        rows = density_curve(self._pred(), ONE_ATLEAST, [32, 128])
        # max densities: 16, 8, 32, 64, 2, 128
        assert rows[0] == (32, pytest.approx(3 / 3), 3)
        assert rows[1] == (128, pytest.approx(1.0), 1)

    def test_threshold_one_reproduces_overall(self):
        p = self._pred()
        rows = density_curve(p, BOTH_ATLEAST, [1])
        assert rows[0][1] == pytest.approx(float(p.correct.mean()))
        assert rows[0][2] == len(p.correct)

    def test_empty_subset_omitted(self):
        rows = density_curve(self._pred(), BOTH_ATLEAST, [512])
        assert rows == []

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            density_curve(self._pred(), "either", [2])

    @pytest.mark.parametrize("thresholds", [[0], [-5], [2, 0]])
    def test_threshold_below_one_is_an_error(self, thresholds):
        with pytest.raises(ValueError, match="^density_curve thresholds "):
            density_curve(self._pred(), BOTH_ATLEAST, thresholds)


class TestPowerLaw:
    def test_exact_recovery(self):
        pts = [(x, 2.0 * x ** -0.5) for x in (10.0, 100.0, 1000.0, 10000.0)]
        fit = fit_power_law(pts, [0.0])
        assert fit.eps_inf == 0.0
        assert fit.beta == pytest.approx(2.0, abs=1e-9)
        assert fit.c == pytest.approx(-0.5, abs=1e-9)
        assert fit.residual <= 1e-9

    def test_exact_recovery_with_floor(self):
        pts = [(x, 3.0 + 5.0 * x ** -0.3) for x in (10.0, 100.0, 1000.0, 10000.0)]
        fit = fit_power_law(pts)  # default grid contains 3
        assert fit.eps_inf == pytest.approx(3.0)
        assert fit.beta == pytest.approx(5.0, abs=1e-6)
        assert fit.c == pytest.approx(-0.3, abs=1e-8)
        assert fit.residual <= 1e-9

    def test_scaling_table_fit(self):
        pts = [(14400, 13.01), (28800, 11.95), (57600, 11.42), (115200, 10.70)]
        fit = fit_power_law(pts, [0.0])
        assert 31.0 <= fit.beta <= 38.0
        assert -0.12 <= fit.c <= -0.08

    def test_predict_decreasing(self):
        fit = fit_power_law([(10, 5.0), (100, 3.0), (1000, 2.0)], [0.0])
        xs = np.array([10.0, 50.0, 500.0, 5000.0])
        ys = fit.predict(xs)
        assert np.all(np.diff(ys) < 0) and np.all(ys > 0)

    def test_two_points_underdetermined(self):
        with pytest.raises(ValueError):
            fit_power_law([(10, 5.0), (100, 3.0)])

    def test_all_grid_values_too_high(self):
        with pytest.raises(ValueError):
            fit_power_law([(10, 0.5), (100, 0.4), (1000, 0.3)], [1.0, 2.0])

    def test_nonpositive_compute_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([(0, 5.0), (100, 3.0), (1000, 2.0)])


def tiny_model():
    return ReidModel(
        EncoderConfig(out_dim=8, n_points=16, hidden=[8]),
        RtmmConfig(layers=1, dim=8, pos_hidden=[8], mlp_hidden=[8], res_hidden=8),
        seed=0,
    )


def tiny_eval_setup():
    rng = np.random.default_rng(0)
    ds = ReidDataset()
    for i in range(4):
        for j in range(2):
            ds.add(Observation(f"o{i}{j}", f"obj{i}", "car", j,
                               rng.normal(size=(20, 3)).astype(np.float32), 0.9))
    ev = EvalSet()
    for i in range(4):
        ev.pairs.append(PairSample(f"o{i}0", f"o{i}1", MATCH, "car"))
        ev.densities.append((20, 20))
        other = (i + 1) % 4
        ev.pairs.append(PairSample(f"o{i}0", f"o{other}1", NON_MATCH, "car"))
        ev.densities.append((20, 20))
    return ds, ev


class TestEvaluate:
    def test_deterministic_given_seed(self):
        ds, ev = tiny_eval_setup()
        model = tiny_model()
        a = evaluate(model, ev, ds, seed=3)
        b = evaluate(model, ev, ds, seed=3)
        assert (a.accuracy, a.f1_pos, a.f1_neg, a.per_class, a.n_pairs) == \
            (b.accuracy, b.f1_pos, b.f1_neg, b.per_class, b.n_pairs)
        assert np.isnan(a.fp_accuracy) == np.isnan(b.fp_accuracy)

    def test_empty_eval_set(self):
        ds, _ = tiny_eval_setup()
        with pytest.raises(ValueError):
            evaluate(tiny_model(), EvalSet(), ds)

    def test_counts_consistent(self):
        ds, ev = tiny_eval_setup()
        r = evaluate(tiny_model(), ev, ds, seed=0)
        assert r.n_pairs == len(ev.pairs)
        assert 0.0 <= r.accuracy <= 1.0

    def test_predictions_carry_metadata(self):
        ds, ev = tiny_eval_setup()
        p = predict_pairs(tiny_model(), ev, ds, seed=0)
        assert len(p.correct) == len(ev.pairs)
        assert list(p.is_match) == [q.label == MATCH for q in ev.pairs]
        np.testing.assert_array_equal(p.densities, np.asarray(ev.densities))

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf, -1.0, -1e-9, 1.0 + 1e-9, 2.0])
    def test_threshold_outside_unit_interval_is_an_error(self, threshold):
        ds, ev = tiny_eval_setup()
        with pytest.raises(ValueError, match="^predict_pairs threshold "):
            predict_pairs(tiny_model(), ev, ds, threshold=threshold)

    def test_threshold_bounds(self):
        ds, ev = tiny_eval_setup()
        everything = predict_pairs(tiny_model(), ev, ds, threshold=0.0)
        np.testing.assert_array_equal(everything.correct, everything.is_match)
        nothing = predict_pairs(tiny_model(), ev, ds, threshold=1.0)  # no probability reaches 1
        np.testing.assert_array_equal(nothing.correct, ~nothing.is_match)

    def test_non_finite_logits_are_an_error(self):
        ds, ev = tiny_eval_setup()
        model = tiny_model()
        for _, t in model.params.items():  # finite weights whose logits overflow
            t.data = t.data * np.float32(1e5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # reported once, by the error, not by warnings
            with pytest.raises(ValueError, match=r"^8 of 8 pairs scored a non-finite logit; "
                                                 r"the first is \(o00, o01\)$"):
                predict_pairs(model, ev, ds)

    def test_large_finite_logits_raise_no_warning(self):
        # exp(1000) overflows, but the probability it gives, 0, is right
        ds, ev = tiny_eval_setup()
        model = tiny_model()
        model.params["rtmm.head.out.bias"].data[:] = -1000.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = predict_pairs(model, ev, ds)
        np.testing.assert_array_equal(p.correct, ~p.is_match)  # every pair NON_MATCH


class TestBench:
    def test_report_structure(self):
        model = tiny_model()
        r = bench(model, batch_size=8, n_trials=6, warmup=2, seed=0)
        assert r.batch_size == 8 and r.n_trials == 6
        assert len(r.samples_ms) == 6
        assert r.mean_ms == pytest.approx(float(np.mean(r.samples_ms)))
        expect_stderr = float(np.std(r.samples_ms, ddof=1) / np.sqrt(6))
        assert r.stderr_ms == pytest.approx(expect_stderr)
        assert r.pairs_per_sec == pytest.approx(8 / (r.mean_ms / 1e3))

    @pytest.mark.parametrize("bad", [{"batch_size": 0}, {"n_trials": 0}, {"warmup": -1}])
    def test_degenerate_arguments_rejected(self, bad):
        args = {"batch_size": 2, "n_trials": 1, "warmup": 0, **bad}
        with pytest.raises(ValueError, match=next(iter(bad))):
            bench(tiny_model(), **args)

    def test_no_warmup_keeps_every_trial(self):
        r = bench(tiny_model(), batch_size=2, n_trials=2, warmup=0, seed=0)
        assert r.n_trials == 2 and len(r.samples_ms) == 2
        assert np.isfinite(r.mean_ms) and r.pairs_per_sec > 0
