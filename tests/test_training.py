"""Loss, optimizer, schedule, clipping, and the training loop itself."""

import json
import math

import numpy as np
import pytest

from preid import nn, training
from preid.data import SynthConfig, extract_observations, generate_synthetic
from preid.model import EncoderConfig, ReidModel, RtmmConfig, load_checkpoint, save_checkpoint
from preid.nn import Tensor
from preid.training import (
    AdamW,
    TrainConfig,
    TrainingError,
    clip_gradients,
    lr_at,
    train,
)


def small_dataset(n_objects=8, seed=0):
    cfg = SynthConfig(n_objects={"car": n_objects}, frames=4, lam=24.0, fp_rate=0.5)
    return extract_observations(*generate_synthetic(cfg, seed))


def small_model(seed=0):
    return ReidModel(
        EncoderConfig(out_dim=16, n_points=16, hidden=[16]),
        RtmmConfig(layers=1, dim=16, pos_hidden=[16], mlp_hidden=[16], res_hidden=16),
        seed=seed,
    )


class TestAdamW:
    def _single_param(self, value, grad):
        store = nn.ParameterStore()
        t = store.add("w", np.array([value], dtype=np.float64))
        t.grad = np.array([grad], dtype=np.float64)
        return store, t

    def test_first_step_direction_and_size(self):
        # bias-corrected first step moves by ~lr against the gradient sign
        store, t = self._single_param(0.0, 2.5)
        AdamW(store, weight_decay=0.0).step(lr=0.1)
        assert t.data[0] == pytest.approx(-0.1, rel=1e-6)

    def test_zero_gradient_decay_only(self):
        store, t = self._single_param(1.0, 0.0)
        AdamW(store, weight_decay=0.01).step(lr=0.1)
        assert t.data[0] == pytest.approx(1.0 * (1 - 0.1 * 0.01))

    def test_decay_is_decoupled(self):
        # identical gradients, different weights: the Adam part is identical
        # and the difference comes only from lr*wd*theta
        s1, t1 = self._single_param(5.0, 1.0)
        s2, t2 = self._single_param(-3.0, 1.0)
        AdamW(s1, weight_decay=0.1).step(lr=0.01)
        AdamW(s2, weight_decay=0.1).step(lr=0.01)
        adam_move1 = t1.data[0] - 5.0 * (1 - 0.01 * 0.1)
        adam_move2 = t2.data[0] - (-3.0) * (1 - 0.01 * 0.1)
        assert adam_move1 == pytest.approx(adam_move2, rel=1e-9)

    def test_nonfinite_gradient_raises(self):
        store, t = self._single_param(0.0, float("nan"))
        with pytest.raises(TrainingError, match="w"):
            AdamW(store, weight_decay=0.0).step(lr=0.1)

    def test_skips_params_without_grad(self):
        store = nn.ParameterStore()
        t = store.add("w", np.ones(3))
        AdamW(store, weight_decay=0.5).step(lr=1.0)
        np.testing.assert_array_equal(t.data, np.ones(3))


class TestSchedule:
    def _cfg(self):
        return TrainConfig(lr_base=3e-4)

    def test_endpoints(self):
        cfg = self._cfg()
        assert lr_at(0, 1000, cfg) == pytest.approx(3e-4)
        assert lr_at(400, 1000, cfg) == pytest.approx(3e-3)     # peak at 40%
        assert lr_at(1000, 1000, cfg) == pytest.approx(3e-8)    # 1e-4x floor

    def test_monotone_up_then_down(self):
        cfg = self._cfg()
        values = [lr_at(s, 1000, cfg) for s in range(0, 1001, 10)]
        peak = int(np.argmax(values))
        assert values[:peak] == sorted(values[:peak])
        assert values[peak:] == sorted(values[peak:], reverse=True)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lr_at(-1, 100, self._cfg())
        with pytest.raises(ValueError):
            lr_at(101, 100, self._cfg())

    def test_bad_step_ratio(self):
        with pytest.raises(ValueError):
            TrainConfig(step_ratio_up=1.5)


class TestClipping:
    def test_3_4_5_norm(self):
        store = nn.ParameterStore()
        a = store.add("a", np.zeros(1))
        b = store.add("b", np.zeros(1))
        a.grad = np.array([3.0])
        b.grad = np.array([4.0])
        norm = clip_gradients(store, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert a.grad[0] == pytest.approx(0.6)
        assert b.grad[0] == pytest.approx(0.8)

    def test_below_threshold_untouched(self):
        store = nn.ParameterStore()
        a = store.add("a", np.zeros(2))
        a.grad = np.array([0.3, 0.4])
        norm = clip_gradients(store, max_norm=1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_allclose(a.grad, [0.3, 0.4])


class TestTrainLoop:
    def test_first_batch_loss_near_ln2(self, tmp_path):
        ds = small_dataset()
        model = small_model()
        cfg = TrainConfig(batch_size=8, epochs=1, seed=0)
        report = train(model, ds, cfg, tmp_path / "run")
        first = json.loads((tmp_path / "run" / "metrics.jsonl").read_text().splitlines()[0])
        # fresh model with small random weights is near-uninformative
        assert abs(first["loss"] - math.log(2)) < 0.05
        assert report.steps == 1

    def test_loss_decreases(self, tmp_path):
        ds = small_dataset(n_objects=12)
        model = small_model()
        cfg = TrainConfig(batch_size=12, epochs=40, lr_base=1e-3, seed=0)
        train(model, ds, cfg, tmp_path / "run")
        losses = [json.loads(l)["loss"]
                  for l in (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
        # linear trend over training must point down
        slope = np.polyfit(np.arange(len(losses)), losses, 1)[0]
        assert slope < 0
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_steps_per_epoch_counting(self, tmp_path):
        ds = small_dataset(n_objects=10)
        model = small_model()
        cfg = TrainConfig(batch_size=4, epochs=3, seed=0)  # ceil(10/4)=3 steps
        report = train(model, ds, cfg, tmp_path / "run")
        assert report.steps == 9 and report.epochs == 3

    def test_metrics_bit_identical_across_runs(self, tmp_path):
        ds = small_dataset()
        cfg = TrainConfig(batch_size=8, epochs=3, seed=5)
        train(small_model(seed=1), ds, cfg, tmp_path / "a")
        train(small_model(seed=1), ds, cfg, tmp_path / "b")
        assert (tmp_path / "a" / "metrics.jsonl").read_bytes() == \
            (tmp_path / "b" / "metrics.jsonl").read_bytes()
        assert (tmp_path / "a" / "model.ckpt").read_bytes() == \
            (tmp_path / "b" / "model.ckpt").read_bytes()

    def test_step_timings(self, tmp_path):
        ds = small_dataset(n_objects=10)
        report = train(small_model(), ds, TrainConfig(batch_size=4, epochs=2, seed=0),
                       tmp_path / "run")
        rows = [json.loads(l) for l in (tmp_path / "run" / "timings.jsonl").read_text().splitlines()]
        assert [r["step"] for r in rows] == list(range(report.steps))
        for r in rows:
            for key in ("pack_ms", "forward_ms", "backward_ms", "optimizer_ms", "pairs_per_s"):
                assert math.isfinite(r[key]) and r[key] >= 0, (key, r)
            assert r["pairs_per_s"] > 0

    def test_checkpoint_loadable(self, tmp_path):
        ds = small_dataset()
        model = small_model()
        cfg = TrainConfig(batch_size=8, epochs=2, seed=0)
        report = train(model, ds, cfg, tmp_path / "run")
        back = load_checkpoint(report.checkpoint_path, model.encoder_cfg, model.rtmm_cfg)
        for name, t in model.params.items():
            np.testing.assert_array_equal(back.params[name].data, t.data)

    def test_early_stop(self, tmp_path):
        ds = small_dataset()
        model = small_model()
        # threshold 0: the 5-batch window trips immediately once filled
        cfg = TrainConfig(batch_size=2, epochs=50, early_stop_accuracy=0.0, seed=0)
        report = train(model, ds, cfg, tmp_path / "run")
        assert report.stopped_early and report.steps == 5

    @pytest.mark.parametrize("epochs, early_stop, saves", [(5, None, 5), (50, 0.0, 1)])
    def test_each_checkpoint_written_once(self, tmp_path, monkeypatch, epochs, early_stop, saves):
        # 5 epochs checkpoint after each; the early stop falls in epoch 1 of
        # 50, before the first tenth-of-the-run checkpoint
        calls = []

        def counting(model, path):
            calls.append(path)
            return save_checkpoint(model, path)

        monkeypatch.setattr(training, "save_checkpoint", counting)
        cfg = TrainConfig(batch_size=2, epochs=epochs, early_stop_accuracy=early_stop, seed=0)
        report = train(small_model(), small_dataset(), cfg, tmp_path / "run")
        assert len(calls) == saves and report.stopped_early == (early_stop is not None)

    def test_model_frozen_after_training(self, tmp_path):
        ds = small_dataset()
        model = small_model()
        train(model, ds, TrainConfig(batch_size=8, epochs=1, seed=0), tmp_path / "ok")
        assert not any(t.requires_grad for _, t in model.params.items())
        # a NaN bias makes the first loss non-finite, which aborts training
        model.params["rtmm.head.out.bias"].data[:] = np.nan
        with pytest.raises(TrainingError):
            train(model, ds, TrainConfig(batch_size=8, epochs=1, seed=0), tmp_path / "bad")
        assert not any(t.requires_grad for _, t in model.params.items())

    @pytest.mark.parametrize("batch_size, checkpointed", [(8, True), (2, False)])
    def test_failed_run_writes_its_records(self, tmp_path, batch_size, checkpointed):
        # lr_base 1e6 diverges at step 2: in epoch 2 at one step per epoch,
        # after two epoch checkpoints; in epoch 0 at four steps per epoch
        out = tmp_path / "run"
        out.mkdir()
        for name in ("metrics.jsonl", "timings.jsonl"):
            (out / name).write_text('{"step": 99}\n')  # an earlier run's records
        cfg = TrainConfig(batch_size=batch_size, epochs=3, lr_base=1e6, seed=0)
        kept = "last checkpoint kept at" if checkpointed else "this run wrote no checkpoint"
        with np.errstate(all="ignore"), pytest.raises(TrainingError, match=f"step 2; {kept}"):
            train(small_model(), small_dataset(), cfg, out)
        for name in ("metrics.jsonl", "timings.jsonl"):
            rows = [json.loads(line) for line in (out / name).read_text().splitlines()]
            assert [r["step"] for r in rows] == [0, 1]
        assert (out / "model.ckpt").exists() == checkpointed

    def test_empty_dataset_rejected(self, tmp_path):
        from preid.data import ReidDataset
        with pytest.raises(ValueError):
            train(small_model(), ReidDataset(), TrainConfig(), tmp_path / "run")

    def test_bad_sampler_name(self):
        with pytest.raises(ValueError):
            TrainConfig(sampler="fancy")
