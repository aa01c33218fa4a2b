"""Model registry: spec validation, checkpoint-backed loads."""

import numpy as np
import pytest

from repro.errors import CheckpointError, ConfigError, ServeError
from repro.serve import ModelRegistry, ModelSpec
from repro.train.checkpoint import save_checkpoint
from tests.serve.conftest import SCALE


SPEC = ModelSpec(model="GCN", dataset="ZINC", scale=SCALE,
                 hidden_dim=16, num_layers=2)


class TestModelSpec:
    def test_unknown_model(self):
        with pytest.raises(ConfigError):
            ModelSpec(model="Transformer9000")

    def test_bad_scale(self):
        # NaN is a regression: it passed the old ``scale <= 0`` check.
        for scale in (0.0, float("nan")):
            with pytest.raises(ConfigError, match="scale"):
                ModelSpec(scale=scale)


class TestModelRegistry:
    def test_register_and_names(self):
        reg = ModelRegistry()
        reg.register("b", SPEC)
        reg.register("a", SPEC)
        assert reg.names() == ["a", "b"]

    def test_duplicate_name_rejected(self):
        reg = ModelRegistry()
        reg.register("m", SPEC)
        with pytest.raises(ServeError):
            reg.register("m", SPEC)

    def test_unknown_name(self):
        with pytest.raises(ServeError):
            ModelRegistry().spec("ghost")

    def test_load_fresh_weights(self):
        reg = ModelRegistry()
        reg.register("fresh", SPEC)
        loaded = reg.load("fresh")
        assert loaded.model.model_name == "GCN"
        assert loaded.epoch == 0 and loaded.metric == 0.0
        assert len(loaded.dataset.test) > 0

    def test_load_restores_checkpoint(self, model, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model, epoch=5, metric=0.25)
        reg = ModelRegistry()
        reg.register("ckpt", SPEC)
        loaded_spec = reg.with_checkpoint("ckpt", str(path))
        reg.register("ckpt2", loaded_spec)
        loaded = reg.load("ckpt2")
        assert loaded.epoch == 5
        assert loaded.metric == pytest.approx(0.25)
        want = model.state_dict()
        got = loaded.model.state_dict()
        assert sorted(want) == sorted(got)
        for key in want:
            np.testing.assert_array_equal(want[key], got[key])

    def test_shape_mismatch_is_checkpoint_error(self, model, tmp_path):
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, model)
        wide = ModelSpec(model="GCN", dataset="ZINC", scale=SCALE,
                         hidden_dim=32, num_layers=2,
                         checkpoint=str(path))
        reg = ModelRegistry()
        reg.register("wide", wide)
        with pytest.raises(CheckpointError):
            reg.load("wide")
