"""Checkpointing."""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.errors import ConfigError
from repro.graph.batch import GraphBatch
from repro.models import BaselineRuntime
from repro.tensor.optim import Adam
from repro.train import build_model
from repro.train.checkpoint import load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def setting():
    ds = load_dataset("ZINC", scale=0.004)
    model = build_model("GCN", ds, hidden_dim=16, num_layers=2)
    batch = GraphBatch(ds.train[:6])
    return ds, model, batch


class TestCheckpoint:
    def test_model_roundtrip(self, setting, tmp_path):
        ds, model, batch = setting
        rt = BaselineRuntime(batch)
        model.eval()
        before = model(batch, rt).data.copy()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, epoch=3, metric=0.5)

        fresh = build_model("GCN", ds, hidden_dim=16, num_layers=2, seed=99)
        meta = load_checkpoint(path, fresh)
        fresh.eval()
        after = fresh(batch, rt).data
        assert np.allclose(before, after)
        assert meta["epoch"] == 3
        assert meta["metric"] == 0.5
        assert meta["extra"] == {}

    def test_optimizer_roundtrip(self, setting, tmp_path):
        ds, model, batch = setting
        rt = BaselineRuntime(batch)
        opt = Adam(model.parameters(), lr=2e-3)
        model.train()
        for _ in range(3):
            loss = model.loss(model(batch, rt), batch.labels)
            opt.zero_grad()
            loss.backward()
            opt.step()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, optimizer=opt, epoch=3)

        fresh = build_model("GCN", ds, hidden_dim=16, num_layers=2, seed=7)
        fresh_opt = Adam(fresh.parameters(), lr=1e-9)
        load_checkpoint(path, fresh, optimizer=fresh_opt)
        assert fresh_opt._step == opt._step
        assert fresh_opt.lr == pytest.approx(2e-3)
        assert np.allclose(fresh_opt._m[0], opt._m[0])

    def test_missing_optimizer_state(self, setting, tmp_path):
        ds, model, batch = setting
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model)
        opt = Adam(model.parameters())
        with pytest.raises(ConfigError):
            load_checkpoint(path, model, optimizer=opt)

    def test_resume_training_continues(self, setting, tmp_path):
        """Save/load mid-training must not disturb the trajectory."""
        ds, _, batch = setting
        rt = BaselineRuntime(batch)

        def run(steps, resume_at=None, tmp=None):
            model = build_model("GCN", ds, hidden_dim=16, num_layers=2,
                                seed=5)
            opt = Adam(model.parameters(), lr=2e-3)
            losses = []
            for step in range(steps):
                if resume_at is not None and step == resume_at:
                    save_checkpoint(tmp, model, optimizer=opt)
                    model = build_model("GCN", ds, hidden_dim=16,
                                        num_layers=2, seed=123)
                    opt = Adam(model.parameters(), lr=1.0)
                    load_checkpoint(tmp, model, optimizer=opt)
                loss = model.loss(model(batch, rt), batch.labels)
                opt.zero_grad()
                loss.backward()
                opt.step()
                losses.append(loss.item())
            return losses

        plain = run(6)
        resumed = run(6, resume_at=3, tmp=tmp_path / "mid.npz")
        assert np.allclose(plain, resumed, atol=1e-10)

