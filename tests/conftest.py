"""Shared fixtures: small ingested datasets reused across test modules.

Session-scoped where the data is read-only (storage, registries) so the
Spark ingest cost is paid once; function-scoped tmp dirs everywhere a
test mutates state.
"""
from __future__ import annotations

import contextlib
import uuid

import numpy as np
import pytest

from repro.storage.file_wrappers import BinaryFileWrapper, SingleSampleFileWrapper
from repro.storage.storage import Storage
from repro.synth_data import (
    CRITEO_DTYPE,
    generate_cloc_files,
    generate_criteo_files,
)

CRITEO_N = 3000
CRITEO_PER_FILE = 500
CLOC_YEARS_SMALL = (2004, 2005, 2006)
CLOC_PER_YEAR = 60
CLOC_CLASSES = 8
CLOC_DIM = 6


@pytest.fixture(scope="session")
def criteo_storage(spark, tmp_path_factory) -> Storage:
    """3000 criteo_lite samples in 6 binary files over 3 days (read-only)."""
    root = tmp_path_factory.mktemp("criteo")
    paths, days = generate_criteo_files(
        str(root / "data"),
        n_samples=CRITEO_N,
        samples_per_file=CRITEO_PER_FILE,
        n_days=3,
    )
    storage = Storage(spark, str(root / "storage"), BinaryFileWrapper(CRITEO_DTYPE))
    storage.ingest_files(paths, timestamps=days)
    return storage


@pytest.fixture(scope="session")
def cloc_storage(spark, tmp_path_factory) -> Storage:
    """cloc_lite one-file-per-sample data for 3 years (read-only)."""
    root = tmp_path_factory.mktemp("cloc")
    paths, years = generate_cloc_files(
        str(root / "data"),
        per_year=CLOC_PER_YEAR,
        years=CLOC_YEARS_SMALL,
        n_classes=CLOC_CLASSES,
        dim=CLOC_DIM,
    )
    storage = Storage(spark, str(root / "storage"), SingleSampleFileWrapper())
    storage.ingest_files(paths, timestamps=years)
    return storage


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(7)


@contextlib.contextmanager
def spark_jobs(spark):
    """Collect the ids of the Spark jobs the calling thread runs in the block."""
    sc = spark.sparkContext
    group = f"test-{uuid.uuid4().hex}"
    sc.setJobGroup(group, group)
    jobs: list[int] = []
    try:
        yield jobs
    finally:
        jobs.extend(sc.statusTracker().getJobIdsForGroup(group))
        sc.setLocalProperty("spark.jobGroup.id", None)
