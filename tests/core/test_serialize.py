"""Schedule serialisation round trips."""

import json

import numpy as np
import pytest

from repro.core import (
    MegaConfig,
    PathRepresentation,
    save_schedules_npz,
    traversal_to_dict,
)
from repro.core.serialize import load_schedules_npz
from repro.graph.generators import molecular_like


@pytest.fixture
def rep(molecule):
    return PathRepresentation.from_graph(molecule, MegaConfig(window=2))


class TestDictRoundTrip:
    def test_fields_preserved(self, rep):
        data = traversal_to_dict(rep.schedule)
        assert data["path"] == rep.schedule.path.tolist()
        assert np.array_equal(np.asarray(data["virtual_mask"], bool),
                              rep.schedule.virtual_mask)
        assert ({(u, v): (i, j) for u, v, i, j in data["cover_positions"]}
                == rep.schedule.cover_positions)
        assert data["window"] == rep.schedule.window
        assert data["covered_edges"] == rep.schedule.covered_edges

    def test_dict_is_json_compatible(self, rep):
        data = traversal_to_dict(rep.schedule)
        assert json.loads(json.dumps(data)) == data


class TestFileRoundTrip:
    def test_npz_many(self, rng, tmp_path):
        graphs = [molecular_like(rng, 15) for _ in range(5)]
        schedules = {
            f"g{i}": PathRepresentation.from_graph(g).schedule
            for i, g in enumerate(graphs)}
        path = tmp_path / "schedules.npz"
        save_schedules_npz(schedules, path)
        back = load_schedules_npz(path)
        assert set(back) == set(schedules)
        for key in schedules:
            assert np.array_equal(back[key].path, schedules[key].path)
            assert (back[key].cover_positions
                    == schedules[key].cover_positions)
