"""Layer instrumentation for the traced run, applied from outside the program.

``instrument`` replaces the public calls of each layer (``storage``,
``selector``, ``supervisor``, ``trainer``, ``models``, ``model_storage``,
``evaluator``, ``core``) with wrappers that record a span around the
original call, and returns a function that puts the originals back. Nothing
under ``src/`` changes; an untraced run never installs a wrapper.

``layer_metrics`` turns the recorded spans into the per-layer metrics named
in ``LAYER_METRICS``. Round-scoped metrics are per-round totals averaged
over the traced rounds; set-up-scoped ones are averaged over the traced
set-ups. Busy times of layers that run on worker threads are summed over
threads.
"""
from __future__ import annotations

import functools
from collections import defaultdict

import numpy as np

from spans import Span, Tracer, self_times

import repro.storage.storage as storage_mod
import repro.trainer.trainer as trainer_mod
from repro.core.pipeline import Pipeline
from repro.evaluator.evaluator import Evaluator
from repro.model_storage.model_storage import ModelStorage
from repro.models.dlrm_lite import DlrmLite
from repro.models.softmax import SoftmaxRegression
from repro.selector.selector import Selector
from repro.selector.trigger_sample_storage import TSS_DTYPE, TriggerSampleStorage
from repro.storage.file_wrappers import BinaryFileWrapper, SingleSampleFileWrapper
from repro.storage.local_dataset import LocalDataset
from repro.storage.storage import Storage
from repro.supervisor.supervisor import Supervisor
from repro.trainer.online_dataset import InMemoryDataset, OnlineDataset
from repro.trainer.trainer import Trainer

ROOT_SPAN = "core.round"
PIPELINE_SPAN = "core.pipeline"

# metric -> (phase, span name, field). Fields: calls (number of spans),
# busy_s (summed duration), self_s (summed self time), or a count key the
# wrapper recorded on the span (keys, samples, bytes, spark_jobs, ...).
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "storage.lookup.calls": ("round", "storage.lookup", "calls"),
    "storage.lookup.keys": ("round", "storage.lookup", "keys"),
    "storage.lookup.busy_s": ("round", "storage.lookup", "busy_s"),
    "storage.lookup.sim_s": ("round", "storage.lookup", "sim_s"),
    "storage.read.calls": ("round", "storage.read", "calls"),
    "storage.read.samples": ("round", "storage.read", "samples"),
    "storage.read.bytes": ("round", "storage.read", "bytes"),
    "storage.read.busy_s": ("round", "storage.read", "busy_s"),
    "storage.retrieve.buffers": ("round", "storage.retrieve", "items"),
    "selector.tss_read.calls": ("round", "selector.tss_read", "calls"),
    "selector.tss_read.busy_s": ("round", "selector.tss_read", "busy_s"),
    "trainer.parse.calls": ("round", "trainer.parse", "calls"),
    "trainer.parse.busy_s": ("round", "trainer.parse", "busy_s"),
    "trainer.batch_wait_s": ("round", "trainer.batch_wait", "busy_s"),
    "trainer.local_read.busy_s": ("round", "trainer.local_read", "busy_s"),
    "trainer.local_parse.busy_s": ("round", "trainer.local_parse", "busy_s"),
    "trainer.step.batches": ("round", "models.sgd_step", "calls"),
    "trainer.step.busy_s": ("round", "models.sgd_step", "busy_s"),
    "trainer.step.sim_s": ("round", "trainer.train", "sim_s"),
    "storage.ingest.files": ("setup", "storage.ingest", "files"),
    "storage.ingest.busy_s": ("setup", "storage.ingest", "busy_s"),
    "storage.ingest.spark_jobs": ("setup", "storage.ingest", "spark_jobs"),
    "selector.inform.calls": ("round", "selector.inform", "calls"),
    "selector.inform.busy_s": ("round", "selector.inform", "busy_s"),
    "selector.inform.spark_jobs": ("round", "selector.inform", "spark_jobs"),
    "selector.trigger.busy_s": ("round", "selector.trigger", "busy_s"),
    "selector.trigger.spark_jobs": ("round", "selector.trigger", "spark_jobs"),
    "selector.tss_write.bytes": ("round", "selector.tss_write", "bytes"),
    "selector.tss_write.busy_s": ("round", "selector.tss_write", "self_s"),
    "trainer.score.keys": ("round", "trainer.score", "keys"),
    "trainer.score.busy_s": ("round", "trainer.score", "busy_s"),
    "trainer.score.spark_jobs": ("round", "trainer.score", "spark_jobs"),
    "storage.get_metadata.busy_s": ("round", "storage.get_metadata", "busy_s"),
    "storage.get_metadata.spark_jobs": ("round", "storage.get_metadata", "spark_jobs"),
    "evaluator.evaluate.calls": ("round", "evaluator.evaluate", "calls"),
    "evaluator.evaluate.busy_s": ("round", "evaluator.evaluate", "busy_s"),
    "storage.get_samples.keys": ("round", "storage.get_samples", "keys"),
    "storage.get_samples.busy_s": ("round", "storage.get_samples", "busy_s"),
    "models.forward.busy_s": ("round", "models.forward", "busy_s"),
    "model_storage.store.calls": ("round", "model_storage.store", "calls"),
    "model_storage.store.bytes": ("round", "model_storage.store", "bytes"),
    "model_storage.store.busy_s": ("round", "model_storage.store", "busy_s"),
    "model_storage.load.calls": ("round", "model_storage.load", "calls"),
    "model_storage.load.bytes": ("round", "model_storage.load", "bytes"),
    "model_storage.load.busy_s": ("round", "model_storage.load", "busy_s"),
    "storage.replay.busy_s": ("round", "storage.replay", "busy_s"),
    "storage.replay.spark_jobs": ("round", "storage.replay", "spark_jobs"),
    "supervisor.process_batch.self_s": ("round", "supervisor.process_batch", "self_s"),
    "core.wall_s": ("round", ROOT_SPAN, "busy_s"),
}

# Computed by ``layer_metrics`` from several spans, or by the runner.
DERIVED_METRICS = {
    "trainer.batch_wait_ms.p50": "ms",
    "trainer.batch_wait_ms.p95": "ms",
    "evaluator.fetch_ratio": "ratio",
    "core.unattributed_s": "s",
    "core.unattributed_frac": "fraction",
    "spark.jobs": "count",
    "trace.round_s.untraced": "s",
    "trace.round_s.traced": "s",
    "trace.overhead_frac": "fraction",
}


def metric_unit(name: str) -> str:
    if name in DERIVED_METRICS:
        return DERIVED_METRICS[name]
    field = LAYER_METRICS[name][2]
    if field.endswith("_s"):
        return "s"
    return "bytes" if field == "bytes" else "count"


# ------------------------------------------------------------ instrumenting
def instrument(tracer: Tracer):
    """Wrap every layer's public calls in spans; returns the undo function."""
    saved: list[tuple[type | object, str, object]] = []

    def patch(owner, attr: str, make) -> None:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def call(owner, attr, name, *, spark=False, count=None) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                span = tracer.open(name, spark=spark)
                try:
                    out = original(*args, **kwargs)
                    if count is not None:
                        span.counts.update(count(args, kwargs, out))
                    return out
                finally:
                    tracer.close(span)

            return wrapper

        patch(owner, attr, make)

    def iterate(owner, attr, name, *, spark=False) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                return tracer.iterate(name, iter(original(*args, **kwargs)), spark=spark)

            return wrapper

        patch(owner, attr, make)

    def traced_fn(fn, name):
        if fn is None:
            return None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return wrapper

    def wrap_parsers(owner, name) -> None:
        """Parsers are plain functions handed to the consumer of the data;
        wrap the instance's copies, named after that consumer."""

        def make(original):
            def wrapper(self, *args, **kwargs):
                original(self, *args, **kwargs)
                for attr in ("bytes_parser", "batch_bytes_parser"):
                    if hasattr(self, attr):
                        setattr(self, attr, traced_fn(getattr(self, attr), name))

            return wrapper

        patch(owner, "__init__", make)

    # storage
    db_base, db_per_key = storage_mod._DB_BASE_S, storage_mod._DB_PER_KEY_S
    call(Storage, "lookup", "storage.lookup",
         count=lambda a, k, out: {"keys": len(a[1]),
                                  "sim_s": db_base + db_per_key * len(a[1])})
    call(Storage, "ingest_files", "storage.ingest", spark=True,
         count=lambda a, k, out: {"files": len(a[1])})
    call(Storage, "get_metadata", "storage.get_metadata", spark=True)
    call(Storage, "get_samples", "storage.get_samples",
         count=lambda a, k, out: {"keys": len(a[1])})
    iterate(Storage, "new_data_batches", "storage.replay", spark=True)
    iterate(Storage, "retrieve_stream", "storage.retrieve")
    for wrapper_cls in (BinaryFileWrapper, SingleSampleFileWrapper):
        call(wrapper_cls, "get_samples", "storage.read",
             count=lambda a, k, out: {"samples": len(out),
                                      "bytes": sum(map(len, out))})
        call(wrapper_cls, "get_all_samples", "trainer.local_read",
             count=lambda a, k, out: {"samples": len(out)})

    # selector
    call(Selector, "inform_data", "selector.inform", spark=True)
    call(Selector, "trigger", "selector.trigger", spark=True)
    call(TriggerSampleStorage, "get_worker_samples", "selector.tss_read")

    def make_persist(original):
        def persist(self, pipeline_id, trigger_id, partitions):
            span = tracer.open("selector.tss_write")
            nbytes = 0

            def counted():
                # Drawing a partition runs the selection policy; record it
                # as a child span so the write's self time is the write.
                nonlocal nbytes
                for keys, weights in tracer.iterate("selector.select", iter(partitions)):
                    nbytes += len(keys) * TSS_DTYPE.itemsize
                    yield keys, weights

            try:
                return original(self, pipeline_id, trigger_id, counted())
            finally:
                span.counts["bytes"] = nbytes
                tracer.close(span)

        return persist

    patch(TriggerSampleStorage, "persist", make_persist)

    # supervisor
    call(Supervisor, "process_batch", "supervisor.process_batch")
    call(Supervisor, "flush", "supervisor.flush")

    # trainer
    call(Trainer, "train", "trainer.train",
         count=lambda a, k, out: {"samples": out.num_samples,
                                  "sim_s": out.num_batches * a[0].gpu_step_seconds})
    call(Trainer, "train_stb", "trainer.train_stb")
    call(trainer_mod, "score_keys_spark", "trainer.score", spark=True,
         count=lambda a, k, out: {"keys": len(a[4] if len(a) > 4 else k["keys"])})
    iterate(OnlineDataset, "batches", "trainer.batch_wait")
    iterate(InMemoryDataset, "batches", "trainer.batch_wait")
    iterate(LocalDataset, "batches", "trainer.local_wait")
    wrap_parsers(OnlineDataset, "trainer.parse")
    wrap_parsers(InMemoryDataset, "trainer.parse")
    wrap_parsers(LocalDataset, "trainer.local_parse")
    wrap_parsers(Evaluator, "evaluator.parse")

    # models
    for model_cls in (DlrmLite, SoftmaxRegression):
        call(model_cls, "sgd_step", "models.sgd_step")
        call(model_cls, "forward", "models.forward")

    # model storage
    call(ModelStorage, "store", "model_storage.store",
         count=lambda a, k, out: {"bytes": out.nbytes})
    call(ModelStorage, "load", "model_storage.load",
         count=lambda a, k, out: {"bytes": sum(v.nbytes for v in out.values())})

    # evaluator
    call(Evaluator, "evaluate", "evaluator.evaluate",
         count=lambda a, k, out: {"keys": len(a[2]), "_keys": np.asarray(a[2])})
    call(Evaluator, "accuracy_matrix", "evaluator.accuracy_matrix")

    # core
    call(Pipeline, "run_experiment", PIPELINE_SPAN, spark=True)

    def undo() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        saved.clear()

    return undo


# --------------------------------------------------------------- metrics
def _field_value(spans: list[Span], selfs: dict[int, float], field: str) -> float:
    if field == "calls":
        return float(len(spans))
    if field == "busy_s":
        return sum(s.duration for s in spans)
    if field == "self_s":
        return sum(selfs[s.sid] for s in spans)
    return float(sum(s.counts.get(field, 0) for s in spans))


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced set-ups and rounds."""
    by_run: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        if s.run is not None:
            by_run[s.run].append(s)
    per_run: dict[str, list[dict[str, float]]] = {"setup": [], "round": []}
    waits: list[float] = []
    for run, run_spans in by_run.items():
        phase = run.split("-")[0]
        selfs = self_times(run_spans)
        by_name: dict[str, list[Span]] = defaultdict(list)
        for s in run_spans:
            by_name[s.name].append(s)
        values = {
            metric: _field_value(by_name[name], selfs, field)
            for metric, (ph, name, field) in LAYER_METRICS.items()
            if ph == phase
        }
        if phase == "round":
            values["spark.jobs"] = float(sum(s.counts.get("spark_jobs", 0) for s in run_spans))
            waits += [
                s.duration * 1e3
                for s in by_name["trainer.batch_wait"]
                if s.counts.get("items")
            ]
            evaluated = [s.counts["_keys"] for s in by_name["evaluator.evaluate"]]
            distinct = len(np.unique(np.concatenate(evaluated))) if evaluated else 0
            ids = {s.sid for s in by_name["evaluator.evaluate"]}
            fetched = sum(
                s.counts["keys"] for s in by_name["storage.get_samples"] if s.parent in ids
            )
            values["evaluator.fetch_ratio"] = fetched / distinct if distinct else 0.0
            core = by_name[ROOT_SPAN] + by_name[PIPELINE_SPAN]
            unattributed = sum(selfs[s.sid] for s in core)
            wall = sum(s.duration for s in by_name[ROOT_SPAN])
            values["core.unattributed_s"] = unattributed
            values["core.unattributed_frac"] = unattributed / wall if wall else 0.0
        per_run[phase].append(values)

    out: dict[str, float] = {}
    for phase, runs in per_run.items():
        for metric in runs[0] if runs else ():
            out[metric] = float(np.mean([r[metric] for r in runs]))
    out["trainer.batch_wait_ms.p50"] = _percentile(waits, 50)
    out["trainer.batch_wait_ms.p95"] = _percentile(waits, 95)
    for metric in list(LAYER_METRICS) + ["evaluator.fetch_ratio", "core.unattributed_s",
                                         "core.unattributed_frac", "spark.jobs"]:
        out.setdefault(metric, 0.0)
    return out
