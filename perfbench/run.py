"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload criteo-train --seed 1 --seconds 5 --trace 0

The command runs from the root of a source checkout and builds nothing: it
imports the system from ``src/``. One run is one process with its own
SparkSession, because the storage I/O pool and peak RSS are process-wide.

A run makes one unmeasured set-up and round on a small input to warm the
JVM, generates the workload's inputs from ``--seed`` (not timed), sets the
system up ``SETUPS`` times (each timed; ``setup_s`` is their median), then
makes the workload's fixed number of measured rounds (``rounds``; three when
traced). The count is fixed, not derived from ``--seconds``, so that every
run reports the same estimator (the median over as many rounds) however
fast a round is; the counts are sized so that the rounds of one run take
more than ``--seconds`` (5) on the reference host. Every set-up and round
is one attempted operation; one that raises or fails an output check is a
failed one.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics. With ``--trace 1`` the rounds are untraced, traced,
untraced; every layer's public calls are recorded as spans during the
traced one, the spans are written to
``.perfbench_out/trace-<workload>-seed<seed>.jsonl`` and the last line
carries the per-layer metrics. Beside them it reports the round-level
end-to-end metrics of the untraced and of the traced rounds
(``trace.<metric>.untraced`` / ``.traced``) and the tracing overhead, the
traced round's wall over the untraced rounds' median wall, minus one.

Without ``src/repro`` in the checkout the run exits with status 2 and
prints no result.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".perfbench_work"
OUT = CHECKOUT / ".perfbench_out"

SETUPS = 5
SPARK_THREADS = 4
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = 16
# The system reads these at import; pinning them to the defaults keeps an
# environment override from passing for a speed-up.
PINNED_ENV = {
    "REPRO_DB_BASE_MS": "2.0",
    "REPRO_DB_PER_KEY_US": "20.0",
    "REPRO_STORAGE_POOL": "16",
}

E2E_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "local_samples_per_s": "samples/s",
    "pipeline_s": "s",
    "trigger_s.p50": "s",
    "final_accuracy": "fraction",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["criteo-train", "cloc-uniform", "cloc-gradnorm"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def pin_environment(work: Path) -> None:
    """Environment for the system and Spark, set before either is imported."""
    tmp = work / "tmp"
    local = work / "spark-local"
    tmp.mkdir(parents=True)
    local.mkdir()
    os.environ.update(PINNED_ENV)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    # Spark's Python workers import the system too (mapInPandas scoring).
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{SPARK_THREADS}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:+PerfDisableSharedMem' "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell"
    )


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_system() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit with status 2."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as e:
        fail(f"cannot import the system from {SRC}: {e}")
    origin = Path(repro.__path__[0]).resolve()
    if SRC.resolve() not in origin.parents:
        fail(f"imported repro from {origin}, not from {SRC}")


def start_spark(work: Path):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(work / "spark-local"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def warm_up(spark, workload_factory, work: Path, seed: int) -> None:
    """One set-up and round of the workload on a small input, not measured,
    so that the JVM's code paths and Spark's Python workers are warm."""
    workload = workload_factory(spark, str(work / "warm-up"), seed, warm_up=True)
    workload.round(workload.setup(0), 0, contextlib.nullcontext)
    shutil.rmtree(work / "warm-up")


def stop_spark(spark) -> None:
    """Stop the SparkSession and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway exits on end of input
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def environment_record(spark) -> dict:
    import numpy as np
    import pyspark

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyspark": pyspark.__version__,
        "spark_master": spark.sparkContext.master,
        "driver_memory": DRIVER_MEMORY,
        "shuffle_partitions": SHUFFLE_PARTITIONS,
        "switch_interval_s": sys.getswitchinterval(),
        **PINNED_ENV,
    }


def median(values) -> float:
    return float(statistics.median(values))


def round_metrics(rounds: list) -> dict[str, float]:
    """The end-to-end metrics with one value per round, as medians over
    the given rounds."""
    return {
        "train_samples_per_s": median(r.train_samples / r.train_wall_s for r in rounds),
        "local_samples_per_s": median(r.local_samples / r.local_wall_s for r in rounds),
        "pipeline_s": median(r.pipeline_s for r in rounds),
        "trigger_s.p50": median(t for r in rounds for t in r.trigger_s),
    }


def end_to_end(setup_s: list[float], rounds: list) -> dict[str, float]:
    return {
        "setup_s": median(setup_s),
        **round_metrics(rounds),
        "final_accuracy": median(r.final_accuracy for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace_failures(workload: str, spans) -> list[str]:
    """criteo-train runs no evaluator and no Spark stage after set-up."""
    if workload != "criteo-train":
        return []
    stage_spans = ("evaluator.", "trainer.score", "storage.get_metadata", "storage.replay")
    bad = sorted({
        s.name for s in spans
        if s.run and s.run.startswith("round")
        and (s.name.startswith(stage_spans) or s.counts.get("spark_jobs"))
    })
    return [f"criteo-train rounds ran evaluator or Spark work: {bad}"] if bad else []


class Operations:
    """Counts attempted and failed operations and reports failed checks."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0

    def done(self, op: str, failures: list[str]) -> None:
        self.attempted += 1
        for f in failures:
            print(f"# check failed in {op}: {f}", file=sys.stderr)
        self.failed += bool(failures)


def measure_setups(workload, tracer, trace: bool, ops: Operations):
    """``SETUPS`` timed set-ups; the rounds use the last one."""
    import layers

    setup_s = []
    for k in range(SETUPS):
        undo = layers.instrument(tracer) if trace else None
        tracer.run = f"setup-{k}"
        try:
            t0 = time.perf_counter()
            state = workload.setup(k)
            setup_s.append(time.perf_counter() - t0)
        finally:
            tracer.run = None
            if undo:
                undo()
        print(f"# setup {k}: {setup_s[-1]:.3f} s", flush=True)
        ops.done(f"setup {k}", workload.setup_failures(state))
    return setup_s, state


def measure_rounds(workload, state, tracer, args, ops: Operations):
    """The workload's rounds (three when traced); returns the completed
    rounds and the round walls, each by untraced (False) and traced (True)."""
    import layers

    rounds: dict[bool, list] = {False: [], True: []}
    walls: dict[bool, list[float]] = {False: [], True: []}
    for k in range(3 if args.trace else workload.rounds):
        # untraced, traced, untraced: the traced round sits between the two
        # it is compared with, so a linear drift (the JVM keeps warming)
        # cancels out of the tracing overhead.
        traced = bool(args.trace) and k % 2 == 1

        @contextlib.contextmanager
        def measured(k=k, traced=traced):
            span = None
            if traced:
                tracer.run = f"round-{k}"
                span = tracer.open(layers.ROOT_SPAN, spark=True)
            t0 = time.perf_counter()
            try:
                yield
            finally:
                walls[traced].append(time.perf_counter() - t0)
                if span is not None:
                    tracer.close(span)
                    tracer.run = None

        undo = layers.instrument(tracer) if traced else None
        try:
            result = workload.round(state, k, measured)
        except Exception:
            traceback.print_exc()
            ops.done(f"round {k}", ["raised an exception"])
        else:
            rounds[traced].append(result)
            print(f"# round {k}{' traced' if traced else ''}: wall {walls[traced][-1]:.3f} s, "
                  f"pipeline {result.pipeline_s:.3f} s, train {result.train_wall_s:.3f} s, "
                  f"local {result.local_samples / result.local_wall_s:.0f} samples/s", flush=True)
            ops.done(f"round {k}", result.failures)
        finally:
            if undo:
                undo()
    if not rounds[False] or (args.trace and not rounds[True]):
        fail("no round completed")
    return rounds, walls


def run(args: argparse.Namespace, work: Path) -> dict:
    import layers
    import test_spans
    from spans import Tracer
    from workloads import WORKLOADS

    t0 = time.perf_counter()
    spark = start_spark(work)
    try:
        sys.setswitchinterval(WORKLOADS[args.workload].switch_interval_s)
        warm_up(spark, WORKLOADS[args.workload], work, args.seed)
        print(f"# spark start and warm-up {time.perf_counter() - t0:.3f} s", flush=True)
        print("# env " + json.dumps(environment_record(spark)), flush=True)
        workload = WORKLOADS[args.workload](spark, str(work / "run"), args.seed)
        print("# params " + json.dumps(workload.params), flush=True)
        tracer = Tracer(spark.sparkContext)
        ops = Operations()
        if args.trace:
            try:
                test_spans.run_all()
                ops.done("span self-test", [])
            except AssertionError:
                traceback.print_exc()
                ops.done("span self-test", ["span self-time arithmetic"])
        setup_s, state = measure_setups(workload, tracer, bool(args.trace), ops)
        rounds, walls = measure_rounds(workload, state, tracer, args, ops)

        if not args.trace:
            metrics = {n: (v, E2E_UNITS[n])
                       for n, v in end_to_end(setup_s, rounds[False]).items()}
        else:
            OUT.mkdir(exist_ok=True)
            tracer.write(str(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"))
            ops.done("trace", trace_failures(args.workload, tracer.spans))
            values = layers.layer_metrics(tracer.spans)
            untraced, traced = median(walls[False]), median(walls[True])
            values["trace.round_s.untraced"] = untraced
            values["trace.round_s.traced"] = traced
            values["trace.overhead_frac"] = traced / untraced - 1.0
            metrics = {n: (v, layers.metric_unit(n)) for n, v in values.items()}
            for traced, mode in ((False, "untraced"), (True, "traced")):
                for n, v in round_metrics(rounds[traced]).items():
                    metrics[f"trace.{n}.{mode}"] = (v, E2E_UNITS[n])
        return {
            "correct": ops.failed == 0,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        }
    finally:
        stop_spark(spark)


def main(argv=None) -> None:
    args = parse_args(argv)
    # Terminate through SystemExit so that Spark is stopped and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro").is_dir():
        fail(f"no system sources at {SRC / 'repro'}")
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        pin_environment(work)
        import_system()
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
