"""Downsampling policies (paper §4.1.2 "Presampling and downsampling").

Downsamplers need the model forward pass: they score every candidate
sample with an importance proxy (loss, or last-layer gradient norm as in
DLIS [Katharopoulos & Fleuret '18]) and then sample a subset with
probability proportional to the score, attaching importance weights
``1/(m * p_i)`` so the weighted gradient stays unbiased.

Two execution modes, as in the paper (§4.1.2):

- *sample-then-batch* (StB): score the whole trigger training set first
  (one forward pass in the trainer's process over the set fetched through
  the storage hot path), then train on the downsampled set;
- *batch-then-sample* (BtS): score each incoming batch and keep a
  fraction of it.

The policy implements only ``scores``; both modes reuse it — the paper's
"engineers just have to implement one version".
"""
from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np
import pandas as pd

from repro.core.registry import DOWNSAMPLERS
from repro.models.base import Model
from repro.storage.storage import Storage


class Downsampler(ABC):
    """Scores samples for importance sampling; ``ratio`` is kept fraction."""

    def __init__(self, *, ratio: float = 0.5, seed: int = 0) -> None:
        if not 0 < ratio <= 1:
            raise ValueError("ratio must be in (0, 1]")
        self.ratio = float(ratio)
        self.seed = int(seed)

    @abstractmethod
    def scores(self, model: Model, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Non-negative importance score per sample."""

    def sample(
        self,
        scores: np.ndarray,
        *,
        rng: np.random.Generator,
        n_keep: int | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(indices, importance weights) of the kept subset.

        Samples *with* replacement with probability proportional to the
        scores (as DLIS / PyTorch's WeightedRandomSampler do); the weight
        ``1/(N * p_i)`` makes the subset mean an unbiased estimator of
        the full-set mean, so the weighted gradient is unbiased too.
        """
        n = len(scores)
        m = n_keep if n_keep is not None else max(1, int(round(n * self.ratio)))
        m = min(m, n)
        s = np.clip(np.asarray(scores, np.float64), 0, None) + 1e-12
        p = s / s.sum()
        idx = rng.choice(n, size=m, replace=True, p=p)
        weights = 1.0 / (n * p[idx])
        return idx, weights


@DOWNSAMPLERS.register("GradNormDownsampler")
class GradNormDownsampler(Downsampler):
    """DLIS: importance = last-layer gradient norm."""

    def scores(self, model, X, y):
        return model.per_sample_grad_norm(X, y)


@DOWNSAMPLERS.register("LossDownsampler")
class LossDownsampler(Downsampler):
    """Importance = per-sample loss."""

    def scores(self, model, X, y):
        return model.per_sample_loss(X, y)


@DOWNSAMPLERS.register("UniformDownsampler")
class UniformDownsampler(Downsampler):
    """Uniform scores — random downsampling through the same machinery."""

    def scores(self, model, X, y):
        return np.ones(len(y))


def score_keys(
    storage: Storage,
    model: Model,
    downsampler: Downsampler,
    bytes_parser,
    keys: np.ndarray,
    *,
    storage_threads: int = 1,
) -> pd.DataFrame:
    """StB scoring pass: (sample_key, score) for every key, in fetch order.

    The trigger set is fetched once through the storage hot path (so it
    pays the simulated metadata-DB latency like any training fetch), parsed
    with the pipeline's ``bytes_parser`` and scored in one forward pass —
    "the training loop starts with a sampling phase" (§4.1.2).
    """
    buf = storage.get_samples(np.asarray(keys, np.int64), storage_threads=storage_threads)
    scores = np.empty(0, np.float64)
    if len(buf):
        X = model.stack_batch([bytes_parser(p) for p in buf.payloads])
        scores = downsampler.scores(model, X, buf.labels).astype(np.float64)
    return pd.DataFrame({"sample_key": buf.keys, "score": scores})
