"""The benchmark's workloads: inputs, timed set-up, one timed round, checks.

Each workload drives the system the way the T2 (``repro.experiments.
throughput``) and T4 (``repro.experiments.selection``) harnesses do:

- ``criteo-train``: criteo_lite records in multi-record binary files. A
  round triggers a fresh NewData trigger set over all samples, trains a
  DLRM-lite for ``passes`` passes through the OnlineDataset (the T2 best
  configuration), stores the model, then makes the same passes over the
  same files through the LocalDataset baseline. Its one trigger per round
  is ``trigger_s``; ``pipeline_s`` is the wall of the whole round, local
  passes included.
- ``cloc-uniform`` / ``cloc-gradnorm``: one-sample-per-file cloc_lite over
  11 yearly time triggers. A round runs the T4 pipeline end to end
  (replay, 11 trainings, model store, the full accuracy matrix). After
  each trigger's model is stored, the round makes ``local_passes_per_trigger``
  LocalDataset passes over the same files with the pipeline's per-sample
  parser, so that the local rate compares with the uniform pipeline's
  OnlineDataset rate. A pass takes about a tenth of a second; spread over
  the whole pipeline, the passes' pooled rate averages over the host's slow
  phases as the pipeline's own figures do. Their wall is left out of
  ``pipeline_s`` and falls outside every ``trigger_s``.

Every round is a closed loop: one trainer consumer pulls the next batch
only after its step finishes. ``round`` does the system's work inside the
``measured`` context it is given and its output checks after it; it returns
the raw measurements and the list of failed checks, empty when correct.
"""
from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field

import numpy as np

from repro.experiments.selection import run_one_pipeline
from repro.model_storage.model_storage import ModelStorage
from repro.models import DlrmLite, SoftmaxRegression
from repro.selector.metadata_backend import LocalMetadataBackend
from repro.selector.presampling import NewDataStrategy
from repro.selector.selector import Selector
from repro.selector.trigger_sample_storage import TriggerSampleStorage
from repro.storage.file_wrappers import BinaryFileWrapper, SingleSampleFileWrapper
from repro.storage.local_dataset import LocalDataset
from repro.storage.storage import Storage
from repro.synth_data import (
    CLOC_YEARS,
    CRITEO_DTYPE,
    cloc_bytes_parser,
    cloc_lite_array,
    criteo_batch_parser,
    criteo_lite_array,
    generate_cloc_files,
    generate_criteo_files,
)
from repro.trainer.online_dataset import Batch, OnlineDataset, OnlineDatasetConfig
from repro.trainer.trainer import Trainer


@dataclass
class RoundResult:
    """Raw measurements of one round, plus the output checks it failed."""

    train_samples: int
    train_wall_s: float
    local_samples: int
    local_wall_s: float
    pipeline_s: float
    trigger_s: list[float]
    final_accuracy: float
    failures: list[str] = field(default_factory=list)


class _LocalAdapter:
    """LocalDataset batches in the trainer's Batch shape (as the T2 harness)."""

    def __init__(self, dataset: LocalDataset) -> None:
        self.dataset = dataset

    def batches(self):
        for payloads, labels in self.dataset.batches():
            n = len(labels)
            yield Batch(payloads, labels, np.ones(n), np.arange(n))


class _PassRecorder:
    """Re-yields a dataset's batches and records what each pass delivered.

    ``on_batch`` returns the value kept per batch; the kept values of one
    pass are concatenated into ``passes``.
    """

    def __init__(self, dataset, on_batch) -> None:
        self.dataset = dataset
        self.on_batch = on_batch
        self.passes: list[np.ndarray] = []

    def batches(self):
        kept = []
        for batch in self.dataset.batches():
            kept.append(self.on_batch(batch))
            yield batch
        self.passes.append(np.concatenate(kept) if kept else np.empty(0))


def _finite_losses(results) -> bool:
    return all(np.all(np.isfinite(r.epoch_losses)) for r in results)


@contextlib.contextmanager
def _one_core():
    """Pin the calling thread, and so the threads it starts, to one CPU.

    The per-sample local path is pure Python under the GIL and can use one
    core only. Spread over several virtual CPUs, each GIL hand-off wakes
    another CPU, which on a shared host costs from nothing to several times
    the sample's own work, and its rate then varies threefold from one
    process to the next. On one CPU the hand-offs are cheap.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


class CriteoTrain:
    """T1/T2: the per-key data path against local sequential reads."""

    name = "criteo-train"
    #: the T2 harness's GIL switch interval (repro.experiments.throughput)
    switch_interval_s = 0.0005
    #: measured rounds per untraced run; a fixed count keeps the median
    #: over rounds the same estimator on every run
    rounds = 2
    params = {
        "n_samples": 120_000,
        "samples_per_file": 20_000,
        "partition_size": 30_000,
        "batch_size": 4096,
        "gpu_step_seconds": 0.020,
        "num_workers": 4,
        "prefetched_partitions": 2,
        "parallel_prefetch_requests": 1,
        "storage_threads": 2,
        "local_workers": 4,
        "passes": 3,
        "lr": 0.05,
        "heldout_samples": 20_000,
    }

    #: the warm-up round's smaller input
    warm_up_params = {"n_samples": 12_000, "samples_per_file": 6_000, "partition_size": 3_000}

    def __init__(self, spark, root: str, seed: int, *, warm_up: bool = False) -> None:
        self.params = p = {**self.params, **(self.warm_up_params if warm_up else {})}
        self.spark = spark
        self.root = root
        self.paths, self.days = generate_criteo_files(
            os.path.join(root, "data"),
            n_samples=p["n_samples"],
            samples_per_file=p["samples_per_file"],
            seed=seed,
        )
        records = np.concatenate([np.fromfile(f, dtype=CRITEO_DTYPE) for f in self.paths])
        # Keys are assigned in ingest order, so key k is record k.
        self.dense0 = records["dense"][:, 0].copy()
        self.sorted_dense0 = np.sort(self.dense0)
        self.heldout = criteo_lite_array(p["heldout_samples"], seed=seed + 1_000_003)

    def setup(self, k: int):
        """Storage, ingest and one materialized trigger set (the T2 set-up)."""
        p = self.params
        base = os.path.join(self.root, f"setup{k}")
        storage = Storage(self.spark, os.path.join(base, "storage"),
                          BinaryFileWrapper(CRITEO_DTYPE))
        keys = storage.ingest_files(self.paths, timestamps=self.days)
        strategy = NewDataStrategy(
            LocalMetadataBackend(os.path.join(base, "meta")),
            reset_after_trigger=False,
            partition_size=p["partition_size"],
        )
        selector = Selector("criteo", strategy,
                            TriggerSampleStorage(os.path.join(base, "tss")))
        selector.inform_data(keys, np.zeros(len(keys)), np.zeros(len(keys)))
        selector.trigger()
        return storage, selector, ModelStorage(os.path.join(base, "models"))

    def setup_failures(self, state) -> list[str]:
        storage, selector, _ = state
        keys, _ = selector.get_all_samples(0)
        if not np.array_equal(np.sort(keys), np.arange(self.params["n_samples"])):
            return ["set-up trigger set is not every ingested key"]
        return []

    def _trainer(self) -> tuple[DlrmLite, Trainer]:
        p = self.params
        model = DlrmLite(seed=0)
        return model, Trainer(model, lr=p["lr"], epochs=p["passes"],
                              gpu_step_seconds=p["gpu_step_seconds"])

    def round(self, state, k: int, measured) -> RoundResult:
        p = self.params
        storage, selector, model_storage = state
        mismatched = 0

        def keep_keys(batch: Batch) -> np.ndarray:
            nonlocal mismatched
            mismatched += int(np.count_nonzero(
                batch.payloads["dense"][:, 0] != self.dense0[batch.keys]))
            return batch.keys

        with measured():
            t0 = time.perf_counter()
            info = selector.trigger()
            dataset = OnlineDataset(
                storage,
                selector,
                info.trigger_id,
                OnlineDatasetConfig(
                    batch_size=p["batch_size"],
                    num_workers=p["num_workers"],
                    prefetched_partitions=p["prefetched_partitions"],
                    parallel_prefetch_requests=p["parallel_prefetch_requests"],
                    storage_threads=p["storage_threads"],
                ),
                batch_bytes_parser=criteo_batch_parser,
            )
            modyn = _PassRecorder(dataset, keep_keys)
            model, trainer = self._trainer()
            result = trainer.train(modyn)
            model_storage.store(info.trigger_id, model.get_state())
            trigger_s = time.perf_counter() - t0

            local = _PassRecorder(
                _LocalAdapter(LocalDataset(
                    self.paths,
                    storage.file_wrapper,
                    batch_size=p["batch_size"],
                    num_workers=p["local_workers"],
                    batch_bytes_parser=criteo_batch_parser,
                )),
                lambda batch: batch.payloads["dense"][:, 0],
            )
            local_result = self._trainer()[1].train(local)
            pipeline_s = time.perf_counter() - t0

        failures = []
        trigger_keys = np.sort(selector.get_all_samples(info.trigger_id)[0])
        if not np.array_equal(trigger_keys, np.arange(p["n_samples"])):
            failures.append("trigger set is not every ingested key")
        if len(modyn.passes) != p["passes"] or any(
            not np.array_equal(np.sort(keys), trigger_keys) for keys in modyn.passes
        ):
            failures.append("a Modyn pass did not consume exactly the trigger set")
        if mismatched:
            failures.append(f"{mismatched} Modyn samples carry another key's record")
        if len(local.passes) != p["passes"] or any(
            not np.array_equal(np.sort(vals), self.sorted_dense0) for vals in local.passes
        ):
            failures.append("a local pass did not read exactly the stored records")
        if not _finite_losses([result, local_result]):
            failures.append("non-finite training loss")
        accuracy = float(np.mean(model.predict(self.heldout) == self.heldout["label"]))
        return RoundResult(
            result.num_samples, result.wall_time_s,
            local_result.num_samples, local_result.wall_time_s,
            pipeline_s, [trigger_s], accuracy, failures,
        )


class _TriggerClock:
    """Times each trigger from the ``Selector.trigger`` call to its model
    being stored, by wrapping those two calls for the length of a round.

    After each store it calls ``between`` and adds that call's wall to
    ``paused_s``; the pipeline runs nothing in the background meanwhile.
    """

    def __init__(self, between) -> None:
        self.between = between
        self.started: dict[int, float] = {}
        self.stored: dict[int, float] = {}
        self.paused_s = 0.0

    def __enter__(self) -> "_TriggerClock":
        trigger, store = Selector.__dict__["trigger"], ModelStorage.__dict__["store"]
        self._saved = (trigger, store)
        clock = self

        def timed_trigger(selector, *args, **kwargs):
            t = time.perf_counter()
            info = trigger(selector, *args, **kwargs)
            clock.started[info.trigger_id] = t
            return info

        def timed_store(storage, trigger_id, *args, **kwargs):
            info = store(storage, trigger_id, *args, **kwargs)
            clock.stored[trigger_id] = t = time.perf_counter()
            clock.between()
            clock.paused_s += time.perf_counter() - t
            return info

        Selector.trigger, ModelStorage.store = timed_trigger, timed_store
        return self

    def __exit__(self, *exc) -> None:
        Selector.trigger, ModelStorage.store = self._saved

    def durations(self) -> list[float]:
        return [self.stored[t] - self.started[t] for t in sorted(self.stored)]


class ClocPipeline:
    """T4: one selection pipeline over the drifting cloc_lite stream."""

    name: str
    pipeline: str
    rounds: int
    #: the T4 harness runs with CPython's default GIL switch interval
    switch_interval_s = 0.005

    params = {
        "per_year": 300,
        "years": len(CLOC_YEARS),
        "n_classes": 32,
        "dim": 16,
        "epochs": 3,
        "batch_size": 256,
        "lr": 0.025,
        # fixed by the T4 harness's pipeline config; recorded here
        "dataloader_workers": 2,
        "selection_ratio": 0.5,
        "local_workers": 2,
        "local_passes_per_trigger": 2,
    }

    #: the warm-up round's smaller input
    warm_up_params = {"per_year": 20, "years": 2}

    def __init__(self, spark, root: str, seed: int, *, warm_up: bool = False) -> None:
        self.params = p = {**self.params, **(self.warm_up_params if warm_up else {})}
        self.spark = spark
        self.root = root
        self.years = CLOC_YEARS[: p["years"]]
        self.paths, self.stamps = generate_cloc_files(
            os.path.join(root, "data"),
            per_year=p["per_year"],
            years=self.years,
            n_classes=p["n_classes"],
            dim=p["dim"],
            seed=seed,
        )
        self.sorted_labels = np.sort(np.concatenate([
            cloc_lite_array(p["per_year"], year=y, n_classes=p["n_classes"],
                            dim=p["dim"], seed=seed)[1]
            for y in self.years
        ]))

    def setup(self, k: int) -> Storage:
        """Storage and ingest of every year's files (the T4 set-up)."""
        storage = Storage(self.spark, os.path.join(self.root, f"setup{k}", "storage"),
                          SingleSampleFileWrapper())
        storage.ingest_files(self.paths, timestamps=self.stamps)
        return storage

    def setup_failures(self, storage: Storage) -> list[str]:
        if storage.num_samples != len(self.paths):
            return [f"ingested {storage.num_samples} of {len(self.paths)} samples"]
        return []

    def round(self, storage: Storage, k: int, measured) -> RoundResult:
        p = self.params
        workdir = os.path.join(self.root, f"round{k}")
        local = _PassRecorder(
            _LocalAdapter(LocalDataset(
                self.paths,
                storage.file_wrapper,
                batch_size=p["batch_size"],
                num_workers=p["local_workers"],
                bytes_parser=cloc_bytes_parser,
            )),
            lambda batch: batch.labels,
        )
        local_trainer = Trainer(
            SoftmaxRegression(dim=p["dim"], n_classes=p["n_classes"], seed=0),
            lr=p["lr"], epochs=1,
        )
        local_results = []

        def local_passes() -> None:
            with _one_core():
                for _ in range(p["local_passes_per_trigger"]):
                    local_results.append(local_trainer.train(local))

        with measured(), _TriggerClock(local_passes) as clock:
            t0 = time.perf_counter()
            result = run_one_pipeline(
                self.spark, storage, workdir, self.pipeline,
                per_year=p["per_year"], n_classes=p["n_classes"], dim=p["dim"],
                epochs=p["epochs"], batch_size=p["batch_size"], lr=p["lr"],
            )
            pipeline_s = time.perf_counter() - t0 - clock.paused_s

        failures = self._check(result, workdir)
        if len(local.passes) != p["years"] * p["local_passes_per_trigger"] or any(
            not np.array_equal(np.sort(labels), self.sorted_labels) for labels in local.passes
        ):
            failures.append("a local pass did not read exactly the stored samples")
        if not _finite_losses(result.train_results + local_results):
            failures.append("non-finite training loss")
        triggers = [i.trigger_id for i in result.trigger_infos]
        accuracy = (float(result.accuracy_matrix.loc[triggers[-1]].mean())
                    if triggers and result.accuracy_matrix is not None else 0.0)
        return RoundResult(
            sum(r.num_samples for r in result.train_results),
            sum(r.wall_time_s for r in result.train_results),
            sum(r.num_samples for r in local_results),
            sum(r.wall_time_s for r in local_results),
            pipeline_s,
            clock.durations(),
            accuracy,
            failures,
        )

    def _check(self, result, workdir: str) -> list[str]:
        p = self.params
        infos = result.trigger_infos
        if len(infos) != p["years"]:
            return [f"{len(infos)} triggers, expected {p['years']}"]
        triggers = [i.trigger_id for i in infos]
        matrix = result.accuracy_matrix
        if matrix is None or matrix.shape != (p["years"], p["years"]) or matrix.isna().any().any():
            return ["accuracy matrix is not one row and column per year"]
        failures = []
        if not matrix.loc[triggers[-1], triggers[-1]] > 1.0 / p["n_classes"]:
            failures.append("the last model does not beat chance on its own year")
        tss = TriggerSampleStorage(os.path.join(workdir, f"wd_{self.pipeline}", "tss"))
        for i, (info, train) in enumerate(zip(infos, result.train_results)):
            # keys are assigned in ingest order, one year after the other
            own = np.arange(i * p["per_year"], (i + 1) * p["per_year"])
            seen = np.sort(result.seen_keys[info.trigger_id])
            if not np.array_equal(seen, own):
                failures.append(f"trigger {info.trigger_id} saw other samples than its year")
            want = int(round(p["selection_ratio"] * len(seen)))
            if self.pipeline == "uniform":
                keys, _ = tss.get_all_samples(result.config.pipeline_id, info.trigger_id)
                if (len(keys) != want or len(np.unique(keys)) != len(keys)
                        or not np.isin(keys, own).all()):
                    failures.append(f"uniform trigger {info.trigger_id} is not "
                                    f"{want} distinct keys of its year")
            elif train.num_trained_samples != p["epochs"] * want:
                failures.append(f"gradnorm trigger {info.trigger_id} trained on "
                                f"{train.num_trained_samples} samples, expected "
                                f"{p['epochs'] * want}")
        return failures


class ClocUniform(ClocPipeline):
    name = "cloc-uniform"
    pipeline = "uniform"
    rounds = 2


class ClocGradnorm(ClocPipeline):
    name = "cloc-gradnorm"
    pipeline = "gradnorm"
    rounds = 1


WORKLOADS = {w.name: w for w in (CriteoTrain, ClocUniform, ClocGradnorm)}
