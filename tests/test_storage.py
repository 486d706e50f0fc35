"""Tests for the storage service (paper §4.1.4, §4.2.3).

Registry correctness is cross-checked against DuckDB via the oracle;
payload retrieval is checked byte-for-byte against the generator.
"""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.storage import BinaryFileWrapper, Storage
from repro.synth_data import CRITEO_DTYPE, criteo_lite_array, generate_criteo_files
from tests.conftest import CRITEO_N, CRITEO_PER_FILE, spark_jobs


class TestIngest:
    def test_keys_are_dense_and_unique(self, criteo_storage):
        assert criteo_storage.num_samples == CRITEO_N
        reg = criteo_storage.registry_df().toPandas()
        assert sorted(reg["sample_key"]) == list(range(CRITEO_N))

    def test_registry_counts_per_file_via_oracle(self, spark, criteo_storage):
        got = (
            criteo_storage.registry_df()
            .groupBy("file_id")
            .agg(F.count("*").alias("n"), F.min("idx").alias("lo"), F.max("idx").alias("hi"))
        )
        assert_equivalent(
            got,
            "SELECT file_id, count(*) AS n, min(idx) AS lo, max(idx) AS hi "
            "FROM registry GROUP BY file_id",
            registry=criteo_storage.registry_df(),
        )

    def test_labels_match_payload_files(self, criteo_storage):
        reg = criteo_storage.registry_df().toPandas().sort_values("sample_key")
        # File f holds samples [f*500, (f+1)*500); labels must match the
        # generator's records for that file.
        for f in range(CRITEO_N // CRITEO_PER_FILE):
            day = f // 2  # 6 files over 3 days
            arr = criteo_lite_array(CRITEO_PER_FILE, seed=f, day=day)
            rows = reg[reg["file_id"] == f].sort_values("idx")
            assert np.array_equal(
                rows["label"].to_numpy(), arr["label"].astype(np.int64)
            )

    def test_timestamp_per_file(self, criteo_storage):
        reg = criteo_storage.registry_df().toPandas()
        per_file = reg.groupby("file_id")["timestamp"].nunique()
        assert (per_file == 1).all()

    def test_mismatched_timestamps_rejected(self, spark, tmp_path):
        paths, _ = generate_criteo_files(
            str(tmp_path / "d"), n_samples=10, samples_per_file=10
        )
        st = Storage(spark, str(tmp_path / "s"), BinaryFileWrapper(CRITEO_DTYPE))
        with pytest.raises(ValueError, match="one timestamp per file"):
            st.ingest_files(paths, timestamps=[1, 2])

    @pytest.fixture()
    def fresh(self, spark, tmp_path):
        paths, _ = generate_criteo_files(
            str(tmp_path / "d"), n_samples=40, samples_per_file=10
        )
        st = Storage(spark, str(tmp_path / "s"), BinaryFileWrapper(CRITEO_DTYPE))
        return st, paths

    def test_ingest_writes_no_files_meta(self, fresh, tmp_path):
        st, paths = fresh
        st.ingest_files(paths)
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) == ["registry"]

    def test_ingest_runs_one_spark_job(self, spark, fresh):
        st, paths = fresh
        with spark_jobs(spark) as jobs:
            st.ingest_files(paths)
        assert len(jobs) == 1  # the registry append

    def test_incremental_ingest_grows_registry(self, spark, tmp_path):
        paths, days = generate_criteo_files(
            str(tmp_path / "d"), n_samples=60, samples_per_file=20
        )
        st = Storage(spark, str(tmp_path / "s"), BinaryFileWrapper(CRITEO_DTYPE))
        k1 = st.ingest_file(paths[0], timestamp=0)
        assert st.num_samples == 20
        k2 = st.ingest_files(paths[1:], timestamps=days[1:])
        assert st.num_samples == 60
        assert len(np.intersect1d(k1, k2)) == 0


class TestRetrieval:
    def test_exact_payloads_for_arbitrary_keys(self, criteo_storage):
        keys = np.array([0, 7, 499, 500, 1234, 2999])
        buf = criteo_storage.get_samples(keys)
        assert sorted(buf.keys.tolist()) == sorted(keys.tolist())
        by_key = dict(zip(buf.keys.tolist(), buf.payloads))
        for k in keys:
            f, i = divmod(int(k), CRITEO_PER_FILE)
            arr = criteo_lite_array(CRITEO_PER_FILE, seed=f, day=f // 2)
            assert by_key[int(k)] == arr[i : i + 1].tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    def test_thread_count_does_not_change_result(self, criteo_storage, threads):
        keys = np.arange(0, CRITEO_N, 17)
        buf = criteo_storage.get_samples(keys, storage_threads=threads)
        assert sorted(buf.keys.tolist()) == keys.tolist()
        assert len(buf.payloads) == len(keys)

    def test_labels_consistent_with_registry(self, criteo_storage):
        keys = np.arange(100, 200)
        buf = criteo_storage.get_samples(keys, storage_threads=2)
        reg = criteo_storage.get_metadata(keys).set_index("sample_key")
        for k, lbl in zip(buf.keys, buf.labels):
            assert reg.loc[int(k), "label"] == lbl

    def test_unknown_key_raises(self, criteo_storage):
        with pytest.raises(KeyError, match="unknown sample keys"):
            criteo_storage.get_samples(np.array([10_000_000]))

    def test_empty_request(self, criteo_storage):
        buf = criteo_storage.get_samples(np.array([], dtype=np.int64))
        assert len(buf) == 0

    def test_stream_emits_send_buffers(self, spark, tmp_path):
        paths, days = generate_criteo_files(
            str(tmp_path / "d"), n_samples=100, samples_per_file=50
        )
        st = Storage(
            spark,
            str(tmp_path / "s"),
            BinaryFileWrapper(CRITEO_DTYPE),
            send_buffer_size=16,
        )
        st.ingest_files(paths, timestamps=days)
        bufs = list(st.retrieve_stream(np.arange(100)))
        assert sum(len(b) for b in bufs) == 100
        assert max(len(b) for b in bufs) <= 16  # gRPC-streaming analog

    def test_invalid_thread_count(self, criteo_storage):
        with pytest.raises(ValueError):
            criteo_storage.get_samples(np.arange(3), storage_threads=0)

    def test_duplicate_keys_rejected_via_metadata(self, criteo_storage):
        # duplicate requested keys yield more hits than keys -> error path
        meta = criteo_storage.get_metadata(np.array([1, 2, 3]))
        assert len(meta) == 3


class TestReplayStream:
    def test_batches_ordered_by_time_then_key(self, criteo_storage):
        batches = list(criteo_storage.new_data_batches(batch_size=700))
        keys = np.concatenate([b[0] for b in batches])
        ts = np.concatenate([b[1] for b in batches])
        assert len(keys) == CRITEO_N
        assert (np.diff(ts) >= 0).all()
        # within a timestamp, keys ascend
        for t in np.unique(ts):
            kt = keys[ts == t]
            assert (np.diff(kt) > 0).all()

    def test_batch_size_respected(self, criteo_storage):
        batches = list(criteo_storage.new_data_batches(batch_size=700))
        assert [len(b[0]) for b in batches[:-1]] == [700] * (len(batches) - 1)

    def test_labels_included(self, criteo_storage):
        k, t, lbl = next(iter(criteo_storage.new_data_batches(batch_size=10)))
        meta = criteo_storage.get_metadata(k).set_index("sample_key")
        assert np.array_equal(meta.loc[k]["label"].to_numpy(), lbl)
