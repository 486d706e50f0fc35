"""Unit tests for the model-storage component (paper §4.3)."""
import numpy as np
import pytest

from repro.model_storage import (
    FullModelStrategy,
    ModelStorage,
    WeightsDifferenceStrategy,
)


def _state(seed, scale=1.0):
    g = np.random.default_rng(seed)
    return {"W": g.standard_normal((20, 10)) * scale, "b": g.standard_normal(10)}


class TestStrategies:
    def test_full_roundtrip(self):
        s = FullModelStrategy()
        st = _state(0)
        back = s.deserialize(s.serialize(st))
        assert set(back) == {"W", "b"}
        assert np.allclose(back["W"], st["W"]) and np.allclose(back["b"], st["b"])

    def test_delta_roundtrip(self):
        s = WeightsDifferenceStrategy()
        base, new = _state(0), _state(1)
        back = s.deserialize(s.serialize(new, base), base)
        assert np.allclose(back["W"], new["W"]) and np.allclose(back["b"], new["b"])

    def test_delta_key_mismatch_rejected(self):
        s = WeightsDifferenceStrategy()
        with pytest.raises(ValueError, match="keys"):
            s.serialize({"W": np.zeros(2)}, {"V": np.zeros(2)})

    def test_delta_of_similar_models_compresses_smaller(self):
        # P-frame property: near-identical successor stores ~nothing.
        s = WeightsDifferenceStrategy()
        f = FullModelStrategy()
        base = _state(0)
        similar = {k: v + 0.0 for k, v in base.items()}  # identical
        assert len(s.serialize(similar, base)) < len(f.serialize(similar))


class TestModelStorage:
    def test_store_load_full(self, tmp_path):
        ms = ModelStorage(str(tmp_path), full_every=1)
        st = _state(0)
        info = ms.store(0, st)
        assert info.kind == "full"
        back = ms.load(0)
        assert np.allclose(back["W"], st["W"])

    def test_incremental_chain_reconstructs(self, tmp_path):
        ms = ModelStorage(str(tmp_path), full_every=4)
        states = [_state(i) for i in range(6)]
        for i, st in enumerate(states):
            ms.store(i, st)
        kinds = [ms.info(i).kind for i in range(6)]
        assert kinds == ["full", "delta", "delta", "delta", "full", "delta"]
        for i, st in enumerate(states):
            back = ms.load(i)
            assert np.allclose(back["W"], st["W"])
            assert np.allclose(back["b"], st["b"])

    def test_long_delta_chain_loads(self, tmp_path):
        # 1,500 deltas on one full snapshot: deeper than Python's recursion limit.
        ms = ModelStorage(str(tmp_path), full_every=10_000)
        g = np.random.default_rng(0)
        state = {"W": g.standard_normal((3, 2)), "b": g.standard_normal(2)}
        for i in range(1500):
            state = {k: v + g.standard_normal(v.shape) * 1e-3 for k, v in state.items()}
            ms.store(i, state)
        assert ms.info(0).kind == "full" and ms.info(1499).kind == "delta"
        back = ms.load(1499)
        for k in state:
            np.testing.assert_allclose(back[k], state[k], rtol=1e-12, atol=1e-12)

    def test_full_every_one_means_all_full(self, tmp_path):
        ms = ModelStorage(str(tmp_path), full_every=1)
        for i in range(3):
            ms.store(i, _state(i))
        assert all(ms.info(i).kind == "full" for i in range(3))

    def test_duplicate_trigger_rejected(self, tmp_path):
        ms = ModelStorage(str(tmp_path))
        ms.store(0, _state(0))
        with pytest.raises(ValueError, match="already stored"):
            ms.store(0, _state(1))

    def test_missing_trigger_raises(self, tmp_path):
        ms = ModelStorage(str(tmp_path))
        with pytest.raises(KeyError):
            ms.load(3)

    def test_architecture_change_falls_back_to_full(self, tmp_path):
        ms = ModelStorage(str(tmp_path), full_every=10)
        ms.store(0, _state(0))
        new_arch = {"W": np.zeros((3, 3)), "b": np.zeros(3), "extra": np.ones(2)}
        info = ms.store(1, new_arch)
        assert info.kind == "full"
        assert np.allclose(ms.load(1)["extra"], 1.0)

    def test_catalog_and_bytes(self, tmp_path):
        ms = ModelStorage(str(tmp_path), full_every=2)
        for i in range(4):
            ms.store(i, _state(i))
        assert ms.stored_triggers == [0, 1, 2, 3]
        assert ms.total_bytes() == sum(ms.info(i).nbytes for i in range(4))

    def test_nonconsecutive_trigger_ids(self, tmp_path):
        # trigger ids are strictly increasing but arbitrary (paper §3.1)
        ms = ModelStorage(str(tmp_path), full_every=2)
        ms.store(3, _state(0))
        ms.store(7, _state(1))
        ms.store(20, _state(2))
        assert [ms.info(t).kind for t in (3, 7, 20)] == ["full", "delta", "full"]
        assert np.allclose(ms.load(7)["W"], _state(1)["W"])

    def test_invalid_full_every(self, tmp_path):
        with pytest.raises(ValueError):
            ModelStorage(str(tmp_path), full_every=0)
