"""Unit tests for downsampling policies (paper §4.1.2)."""
import numpy as np
import pytest

from repro.core.registry import DOWNSAMPLERS
from repro.models import DlrmLite, SoftmaxRegression
from repro.selector.downsampling import (
    GradNormDownsampler,
    LossDownsampler,
    UniformDownsampler,
    score_keys,
)
from repro.synth_data import (
    cloc_bytes_parser,
    cloc_lite_array,
    criteo_bytes_parser,
    criteo_lite_array,
)
from repro.trainer import Trainer
from tests.conftest import CLOC_CLASSES, CLOC_DIM, CLOC_PER_YEAR, CLOC_YEARS_SMALL


@pytest.fixture()
def cloc_batch():
    X, y = cloc_lite_array(200, year=2004, n_classes=4, dim=6)
    return X.astype(np.float64), y


class TestScores:
    def test_gradnorm_uses_model_grad_norm(self, cloc_batch):
        X, y = cloc_batch
        m = SoftmaxRegression(dim=6, n_classes=4, seed=0)
        ds = GradNormDownsampler(ratio=0.5)
        assert np.allclose(ds.scores(m, X, y), m.per_sample_grad_norm(X, y))

    def test_loss_scores(self, cloc_batch):
        X, y = cloc_batch
        m = SoftmaxRegression(dim=6, n_classes=4, seed=0)
        ds = LossDownsampler(ratio=0.5)
        assert np.allclose(ds.scores(m, X, y), m.per_sample_loss(X, y))

    def test_uniform_scores_constant(self, cloc_batch):
        X, y = cloc_batch
        ds = UniformDownsampler(ratio=0.5)
        assert np.allclose(ds.scores(SoftmaxRegression(dim=6, n_classes=4), X, y), 1.0)

    def test_gradnorm_on_dlrm(self):
        arr = criteo_lite_array(50, seed=0)
        y = arr["label"].astype(np.int64)
        m = DlrmLite(seed=0)
        s = GradNormDownsampler().scores(m, arr, y)
        assert s.shape == (50,) and (s >= 0).all()


class TestSampling:
    def test_sample_size_matches_ratio(self, rng):
        ds = UniformDownsampler(ratio=0.25)
        idx, w = ds.sample(np.ones(100), rng=rng)
        assert len(idx) == 25 and len(w) == 25

    def test_sample_with_replacement_size(self, rng):
        # DLIS samples with replacement (PyTorch WeightedRandomSampler)
        ds = UniformDownsampler(ratio=0.9)
        idx, _ = ds.sample(np.ones(50), rng=rng)
        assert len(idx) == 45
        assert (idx >= 0).all() and (idx < 50).all()

    def test_explicit_n_keep(self, rng):
        ds = UniformDownsampler(ratio=0.5)
        idx, _ = ds.sample(np.ones(100), rng=rng, n_keep=7)
        assert len(idx) == 7

    def test_n_keep_capped_at_population(self, rng):
        ds = UniformDownsampler(ratio=1.0)
        idx, _ = ds.sample(np.ones(5), rng=rng, n_keep=50)
        assert len(idx) == 5

    def test_importance_weights_are_inverse_probability(self, rng):
        scores = np.array([1.0, 3.0, 6.0, 10.0])
        ds = GradNormDownsampler(ratio=0.5)
        idx, w = ds.sample(scores, rng=rng)
        p = scores / scores.sum()
        assert np.allclose(w, 1.0 / (len(scores) * p[idx]), rtol=1e-6)

    def test_uniform_scores_give_unit_weights(self, rng):
        ds = UniformDownsampler(ratio=0.5)
        _, w = ds.sample(np.ones(10), rng=rng)
        assert np.allclose(w, 1.0)  # 1 / (10 * 0.1)

    def test_high_score_samples_picked_more_often(self):
        scores = np.ones(100)
        scores[:10] = 50.0
        hits = np.zeros(100)
        for seed in range(200):
            ds = GradNormDownsampler(ratio=0.1)
            idx, _ = ds.sample(scores, rng=np.random.default_rng(seed))
            hits[idx] += 1
        assert hits[:10].mean() > 5 * hits[10:].mean()

    def test_weighted_subset_estimator_unbiased(self):
        # E[sum_i w_i * v_i over subset] ~= mean(v): the DLIS guarantee.
        g = np.random.default_rng(0)
        v = g.random(40)
        scores = g.random(40) + 0.1
        ds = GradNormDownsampler(ratio=0.25)
        est = []
        for seed in range(600):
            idx, w = ds.sample(scores, rng=np.random.default_rng(seed))
            est.append((w * v[idx]).mean())
        assert np.mean(est) == pytest.approx(v.mean(), rel=0.05)

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            UniformDownsampler(ratio=0.0)
        with pytest.raises(ValueError):
            UniformDownsampler(ratio=1.5)

    def test_registered(self):
        for name in ("GradNormDownsampler", "LossDownsampler", "UniformDownsampler"):
            assert name in DOWNSAMPLERS


def per_file_scores(storage, model, downsampler, bytes_parser, keys):
    """Reference StB scores, computed as the former Spark stage did: one
    forward pass per source file over that file's requested samples."""
    meta = storage.get_metadata(keys)
    meta = meta.assign(path=meta["file_id"].map(storage._files))
    out = {}
    for path, grp in meta.groupby("path", sort=True):
        payloads = storage.file_wrapper.get_samples(path, grp["idx"].to_numpy(np.int64))
        X = model.stack_batch([bytes_parser(p) for p in payloads])
        y = grp["label"].to_numpy(np.int64)
        scores = downsampler.scores(model, X, y).astype(np.float64)
        out.update(zip(grp["sample_key"].tolist(), scores))
    return np.array([out[k] for k in np.asarray(keys).tolist()])


def stb_case(name, request):
    """(storage, model, downsampler, parser, keys in non-sorted order)."""
    shuffle = np.random.default_rng(3).permutation
    if name == "cloc-gradnorm":
        n = CLOC_PER_YEAR * len(CLOC_YEARS_SMALL)
        return (
            request.getfixturevalue("cloc_storage"),
            SoftmaxRegression(dim=CLOC_DIM, n_classes=CLOC_CLASSES, seed=1),
            GradNormDownsampler(ratio=0.5),
            cloc_bytes_parser,
            shuffle(n)[: n // 2 + 7],
        )
    ds = LossDownsampler(ratio=0.5) if name == "criteo-loss" else GradNormDownsampler(ratio=0.5)
    return (
        request.getfixturevalue("criteo_storage"),
        DlrmLite(seed=1),
        ds,
        criteo_bytes_parser,
        shuffle(np.arange(0, 2400, 3)),
    )


STB_CASES = ["criteo-loss", "criteo-gradnorm", "cloc-gradnorm"]


class TestStBScoring:
    @pytest.mark.parametrize("case", STB_CASES)
    def test_scores_equal_per_file_scoring(self, case, request):
        """One batched pass gives exactly the per-file stage's scores."""
        storage, model, ds, parser, keys = stb_case(case, request)
        scored = score_keys(storage, model, ds, parser, keys, storage_threads=2)
        assert sorted(scored["sample_key"]) == sorted(keys.tolist())
        got = scored.set_index("sample_key").loc[keys, "score"].to_numpy()
        assert np.array_equal(got, per_file_scores(storage, model, ds, parser, keys))

    @pytest.mark.parametrize("case", STB_CASES)
    def test_train_stb_samples_on_scores_in_key_order(self, case, request, monkeypatch):
        storage, model, ds, parser, keys = stb_case(case, request)
        want = per_file_scores(storage, model, ds, parser, keys)
        seen = []
        sample = ds.sample
        monkeypatch.setattr(
            ds, "sample", lambda scores, **kw: (seen.append(scores), sample(scores, **kw))[1]
        )
        Trainer(model, lr=0.1, downsampler=ds, downsampling_mode="StB").train_stb(
            storage, keys, np.ones(len(keys)), batch_size=64, bytes_parser=parser
        )
        assert len(seen) == 1 and np.array_equal(seen[0], want)

    def test_empty_keys(self, criteo_storage):
        model = DlrmLite()
        out = score_keys(
            criteo_storage, model, LossDownsampler(), criteo_bytes_parser, np.array([])
        )
        assert len(out) == 0
