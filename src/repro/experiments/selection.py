"""Data-selection study (paper §5.2, Figures 9 & 10; T4).

Trains three pipelines over the drifting cloc-lite stream with yearly
triggers — (1) all new data, (2) uniform random 50 %, (3) DLIS GradNorm
50 % downsampling — and collects the accuracy matrix (every trained model
evaluated on every year). Also reports the §5.2 implementation-complexity
numbers (LOC per policy) measured on this codebase.
"""
from __future__ import annotations

import inspect
import os

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.config import PipelineConfig
from repro.core.pipeline import Pipeline, PipelineResult
from repro.selector.downsampling import GradNormDownsampler
from repro.selector.presampling import NewDataStrategy, UniformRandomStrategy
from repro.storage.file_wrappers import SingleSampleFileWrapper
from repro.storage.storage import Storage
from repro.synth_data import CLOC_YEARS, generate_cloc_files


def _pipeline_config(name: str, *, n_classes: int, dim: int, epochs: int,
                     batch_size: int, lr: float, partition_size: int) -> PipelineConfig:
    selection: dict = {
        "name": "NewDataStrategy",
        "storage_backend": "local",
        "reset_after_trigger": True,
        "partition_size": partition_size,
    }
    if name == "uniform":
        # the paper's ~20-LOC SQL strategy needs the Spark (SQL) backend
        selection = {
            "name": "UniformRandomStrategy",
            "storage_backend": "spark",
            "reset_after_trigger": True,
            "partition_size": partition_size,
            "presampling_config": {"fraction": 0.5},
        }
    elif name == "gradnorm":
        selection["downsampling_config"] = {
            "name": "GradNormDownsampler",
            "ratio": 0.5,
            "mode": "StB",
        }
    elif name != "full":
        raise ValueError(f"unknown pipeline {name!r}")
    return PipelineConfig.from_dict(
        {
            "pipeline_id": f"cloc_{name}",
            "model": {
                "id": "SoftmaxRegression",
                "config": {"dim": dim, "n_classes": n_classes, "seed": 0},
            },
            "data": {"bytes_parser_function": "cloc"},
            "trigger": {
                "id": "TimeTrigger",
                "trigger_config": {"every": 1, "start_timestamp": CLOC_YEARS[0]},
            },
            "selection": selection,
            "training": {
                "batch_size": batch_size,
                "epochs": epochs,
                "lr": lr,
                "use_previous_model": True,
                "dataloader_workers": 2,
                "prefetched_partitions": 1,
            },
            "evaluation": {"metrics": ["Accuracy"], "matrix": True},
        }
    )


def build_cloc_stream(
    spark: SparkSession,
    root: str,
    *,
    per_year: int,
    years: tuple[int, ...] = CLOC_YEARS,
    n_classes: int = 32,
    dim: int = 16,
) -> Storage:
    """Generate + ingest the drifting cloc-lite stream (all years)."""
    paths, stamps = generate_cloc_files(
        os.path.join(root, "data"),
        per_year=per_year,
        years=years,
        n_classes=n_classes,
        dim=dim,
    )
    storage = Storage(spark, os.path.join(root, "storage"), SingleSampleFileWrapper())
    storage.ingest_files(paths, timestamps=stamps)
    return storage


def run_selection_study(
    spark: SparkSession,
    root: str,
    *,
    per_year: int = 1000,
    years: tuple[int, ...] = CLOC_YEARS,
    n_classes: int = 32,
    dim: int = 16,
    epochs: int = 3,
    batch_size: int = 256,
    lr: float = 0.025,
    pipelines: tuple[str, ...] = ("full", "uniform", "gradnorm"),
) -> dict[str, PipelineResult]:
    """Run the three §5.2 pipelines over one shared data stream.

    Returns pipeline name -> PipelineResult; each result carries the
    accuracy matrix with rows = trigger ids and columns = trigger ids,
    which map 1:1 to years (trigger_timestamps).
    """
    storage = build_cloc_stream(
        spark, root, per_year=per_year, years=years, n_classes=n_classes, dim=dim
    )
    results: dict[str, PipelineResult] = {}
    for name in pipelines:
        results[name] = run_one_pipeline(
            spark,
            storage,
            root,
            name,
            per_year=per_year,
            n_classes=n_classes,
            dim=dim,
            epochs=epochs,
            batch_size=batch_size,
            lr=lr,
        )
    return results


def run_one_pipeline(
    spark: SparkSession,
    storage: Storage,
    root: str,
    name: str,
    *,
    per_year: int,
    n_classes: int = 32,
    dim: int = 16,
    epochs: int = 3,
    batch_size: int = 256,
    lr: float = 0.025,
) -> PipelineResult:
    """Run one of the three §5.2 pipelines over an ingested stream."""
    cfg = _pipeline_config(
        name,
        n_classes=n_classes,
        dim=dim,
        epochs=epochs,
        batch_size=batch_size,
        lr=lr,
        partition_size=max(200, per_year // 4),
    )
    pipe = Pipeline(spark, cfg, storage, os.path.join(root, f"wd_{name}"))
    return pipe.run_experiment(announce_batch_size=per_year)


def year_matrix(result: PipelineResult) -> pd.DataFrame:
    """Re-label an accuracy matrix's trigger ids with their years."""
    mat = result.accuracy_matrix.copy()
    label = {t: y for t, y in result.trigger_timestamps.items()}
    mat.index = [label[t] for t in mat.index]
    mat.columns = [label[t] for t in mat.columns]
    return mat


def implementation_loc() -> pd.DataFrame:
    """§5.2 'complexity of implementation': LOC of each policy here.

    Paper: pipeline 1 = 1 line (strategy core), pipeline 2 = 20 LOC SQL,
    pipeline 3 = 90 LOC downsampler. We report the analogous counts for
    this codebase's implementations.
    """

    def loc(obj) -> int:
        return len(inspect.getsource(obj).splitlines())

    return pd.DataFrame(
        [
            {
                "pipeline": "full (NewDataStrategy core)",
                "loc": loc(NewDataStrategy._select_keys),
                "paper_loc": 1,
            },
            {
                "pipeline": "uniform random (SQL strategy)",
                "loc": loc(UniformRandomStrategy._select_keys),
                "paper_loc": 20,
            },
            {
                "pipeline": "GradNorm downsampler (class)",
                "loc": loc(GradNormDownsampler),
                "paper_loc": 90,
            },
        ]
    )
