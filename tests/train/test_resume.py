"""Crash-safe training: checkpoint/resume trajectories and NaN rollback."""

import numpy as np
import pytest

from repro.core.atomic_io import TMP_MARKER
from repro.datasets import load_dataset
from repro.errors import ConfigError, DivergenceError
from repro.resilience import FaultPlan
from repro.train import Trainer, build_model
from repro.train.checkpoint import load_checkpoint
from repro.train.trainer import CHECKPOINT_NAME

pytestmark = pytest.mark.faultinject


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("ZINC", scale=0.004)


def make_trainer(dataset, fault_plan=None):
    model = build_model("GCN", dataset, hidden_dim=16, num_layers=2, seed=5)
    return Trainer(model, dataset, method="baseline", batch_size=32,
                   seed=11, fault_plan=fault_plan)


def records_of(history):
    return [(r.epoch, r.train_loss, r.val_metric, r.learning_rate)
            for r in history.records]


class TestResume:
    def test_resumed_run_matches_uninterrupted(self, dataset, tmp_path):
        plain = make_trainer(dataset).fit(4)

        # "Crash" after epoch 2: a second, fresh process resumes.
        make_trainer(dataset).fit(2, checkpoint_dir=tmp_path)
        resumed = make_trainer(dataset).fit(4, checkpoint_dir=tmp_path,
                                            resume=True)
        assert records_of(resumed) == records_of(plain)

    def test_resume_replays_completed_history(self, dataset, tmp_path):
        make_trainer(dataset).fit(3, checkpoint_dir=tmp_path)
        resumed = make_trainer(dataset).fit(3, checkpoint_dir=tmp_path,
                                            resume=True)
        # Nothing left to train; the saved records come back verbatim.
        assert [r.epoch for r in resumed.records] == [1, 2, 3]

    def test_resume_without_checkpoint_dir_rejected(self, dataset):
        with pytest.raises(ConfigError, match="checkpoint_dir"):
            make_trainer(dataset).fit(2, resume=True)

    def test_resume_with_empty_dir_trains_from_scratch(self, dataset,
                                                       tmp_path):
        plain = make_trainer(dataset).fit(2)
        fresh = make_trainer(dataset).fit(2, checkpoint_dir=tmp_path,
                                          resume=True)
        assert records_of(fresh) == records_of(plain)

    def test_checkpoint_every_validated(self, dataset, tmp_path):
        with pytest.raises(ConfigError):
            make_trainer(dataset).fit(2, checkpoint_dir=tmp_path,
                                      checkpoint_every=0)

    def test_batchnorm_running_stats_survive_resume(self, dataset, tmp_path):
        # GCN layers carry BatchNorm buffers: train-mode losses match even
        # when they are dropped, but eval metrics silently diverge — so
        # pin them explicitly, not just through the trajectory assertion.
        trained = make_trainer(dataset)
        trained.fit(2, checkpoint_dir=tmp_path)

        resumed = make_trainer(dataset)
        load_checkpoint(tmp_path / CHECKPOINT_NAME, resumed.model)
        stats = [(m.running_mean, m.running_var)
                 for m in trained.model.modules()
                 if hasattr(m, "running_mean")]
        assert stats  # the model really does contain BatchNorm
        for fresh, (mean, var) in zip(
                (m for m in resumed.model.modules()
                 if hasattr(m, "running_mean")), stats):
            assert np.array_equal(fresh.running_mean, mean)
            assert np.array_equal(fresh.running_var, var)
            assert not np.allclose(mean, 0.0)  # stats actually moved


class TestTornSave:
    def test_kill_mid_save_leaves_previous_checkpoint_intact(
            self, dataset, tmp_path):
        trainer = make_trainer(dataset)
        trainer.fit(2, checkpoint_dir=tmp_path)
        ckpt = tmp_path / CHECKPOINT_NAME
        good_bytes = ckpt.read_bytes()

        # SIGKILL between creating the temporary and os.replace: the
        # destination still holds the previous checkpoint; only tmp
        # litter is left behind.
        litter = tmp_path / f"{CHECKPOINT_NAME}{TMP_MARKER}dead1234"
        litter.write_bytes(good_bytes[: len(good_bytes) // 2])
        assert ckpt.read_bytes() == good_bytes

        model = build_model("GCN", dataset, hidden_dim=16, num_layers=2,
                            seed=99)
        meta = load_checkpoint(ckpt, model)
        assert meta["epoch"] == 2

        plain = make_trainer(dataset).fit(4)
        resumed = make_trainer(dataset).fit(4, checkpoint_dir=tmp_path,
                                            resume=True)
        assert records_of(resumed) == records_of(plain)
        assert not list(tmp_path.glob(f"*{TMP_MARKER}*")), \
            "fit must sweep torn-save litter"


class TestNaNRollback:
    def test_injected_nan_rolls_back_and_completes(self, dataset, tmp_path):
        plan = FaultPlan(seed=1, nan_epochs=(3,))
        trainer = make_trainer(dataset, fault_plan=plan)
        history = trainer.fit(4, checkpoint_dir=tmp_path)
        assert trainer.rollbacks == 1
        assert [r.epoch for r in history.records] == [1, 2, 3, 4]
        assert all(np.isfinite(r.train_loss) and np.isfinite(r.val_metric)
                   for r in history.records)

    def test_rollback_backs_off_learning_rate(self, dataset, tmp_path):
        plan = FaultPlan(nan_epochs=(2,))
        trainer = make_trainer(dataset, fault_plan=plan)
        history = trainer.fit(3, checkpoint_dir=tmp_path, lr_backoff=0.5)
        lr_before = history.records[0].learning_rate
        lr_after = history.records[-1].learning_rate
        assert lr_after == pytest.approx(lr_before * 0.5)

    def test_nan_without_checkpoint_raises_divergence(self, dataset):
        plan = FaultPlan(nan_epochs=(1,))
        with pytest.raises(DivergenceError, match="no checkpoint"):
            make_trainer(dataset, fault_plan=plan).fit(2)

    def test_persistent_nan_exhausts_rollbacks(self, dataset, tmp_path):
        trainer = make_trainer(dataset)
        trainer.fit(1, checkpoint_dir=tmp_path)

        relapsing = make_trainer(dataset)
        original = relapsing.train_epoch
        calls = []

        def always_nan_after_first():
            calls.append(1)
            return original() if len(calls) == 1 else float("nan")

        relapsing.train_epoch = always_nan_after_first
        with pytest.raises(DivergenceError, match="persisted"):
            relapsing.fit(3, checkpoint_dir=tmp_path, max_rollbacks=2)
        assert relapsing.rollbacks == 2
