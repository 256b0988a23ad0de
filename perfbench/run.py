"""Benchmark of the KG engine: seeded workloads, checked outputs, and a
traced run with per-layer numbers.

    python3 perfbench/run.py --workload kg_build --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout.  It generates the workload's
inputs from ``--seed`` under ``.perfbench/``, starts a local Ray session
with a fixed logical CPU count, runs one warm-up pass, then:

- ``--trace 0``: repeats full passes (inputs on disk -> checked output)
  for ``--seconds`` and reports the end-to-end metrics of BENCHMARK.json;
- ``--trace 1``: runs one untraced and one traced pass of the workload,
  one traced pass of every other family (bioie_eval and kg_closure exist
  only here), the floor probes and the kernel probes, and reports the
  per-layer metrics.  Spans go to ``.perfbench/traces/``.

The load is a closed loop with one client: one pass at a time.  The last
line of standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import threading
import time
import traceback
from contextlib import contextmanager

# with num_cpus=1 the extraction actor pool holds the only CPU while the
# read and dedup tasks stay pending; 4 matches the test suite's session
RAY_CPUS = 4
OBJECT_STORE_BYTES = 512 * 1024 * 1024
PASS_TIMEOUT_S = 60
SCHEMA_WARNINGS = ("Failed to hash the schemas", "different schema")
# AF_UNIX socket paths are limited to 107 bytes; Ray nests about 62 more
# under its temp dir
MAX_RAY_TMP_LEN = 44


class PassTimeout(Exception):
    pass


@contextmanager
def deadline(seconds: float):
    """Raise PassTimeout in the main thread after ``seconds``."""

    def on_alarm(signum, frame):
        raise PassTimeout(f"pass exceeded {seconds} s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


class Outcome:
    """Counts passes attempted and failed; a failure is an exception, a
    failed output check or a timeout."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.timed_out = False

    def run(self, label: str, fn):
        """Run ``fn`` under the pass timeout; returns (ok, seconds, result)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with deadline(PASS_TIMEOUT_S):
                result = fn()
            return True, time.perf_counter() - t0, result
        except Exception as e:  # a failed pass is counted, not fatal
            self.failed += 1
            self.timed_out |= isinstance(e, PassTimeout)
            print(f"pass {label} failed: {e!r}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return False, time.perf_counter() - t0, None


class PeakRss:
    """Samples this process's resident set size every 20 ms."""

    def __init__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        with open("/proc/self/statm") as f:
            rss = int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
        self.peak = max(self.peak, rss)

    def _loop(self) -> None:
        while not self._stop.wait(0.02):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()


def count_schema_warnings(logs_dir: str) -> int:
    """Lines in the session's driver and worker logs that report a schema
    mismatch."""
    n = 0
    for dirpath, _, files in os.walk(logs_dir):
        for name in files:
            with open(os.path.join(dirpath, name), errors="replace") as f:
                n += sum(any(w in line for w in SCHEMA_WARNINGS) for line in f)
    return n


def start_ray(tmp: str) -> str:
    """Start the local session; returns its log directory."""
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=RAY_CPUS,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        _temp_dir=tmp,
    )
    DataContext.get_current().enable_progress_bars = False
    return os.path.join(os.path.realpath(os.path.join(tmp, "session_latest")), "logs")


def end_to_end(args, wl, outcome: Outcome) -> tuple[dict, dict]:
    """Full passes for ``args.seconds``; returns (metrics, context)."""
    times = []
    with PeakRss() as rss:
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < args.seconds and not outcome.timed_out:
            wl.prepare()
            ok, dt, _ = outcome.run("timed", wl.run)
            times.append(dt)
    metrics = {
        "items_per_s": wl.items / statistics.median(times),
        "driver_peak_rss_mb": rss.peak / 2**20,
    }
    return metrics, {"pass_s": times}


def traced(args, families: dict, outcome: Outcome, logs_dir: str, work: str) -> tuple[dict, dict]:
    """One untraced and one traced pass of the workload, a traced pass of
    every other family, then the probes; returns (metrics, context)."""
    from perfbench import probes
    from perfbench.tracing import Tracer

    wl = families[args.workload]
    tracer = Tracer()
    wl.prepare()
    _, untraced_s, _ = outcome.run("untraced", wl.run)

    warnings_before = count_schema_warnings(logs_dir)
    metrics = {}
    for name in [args.workload] + [n for n in families if n != args.workload]:
        fam = families[name]
        with tracer.trace(name):
            _, _, counts = outcome.run(name, lambda: fam.traced(tracer))
        metrics.update(fam.layer_metrics(tracer, counts or {}))
    metrics["ray.schema_warnings"] = count_schema_warnings(logs_dir) - warnings_before

    with tracer.trace("floor"):
        _, _, floor = outcome.run("floor", lambda: probes.floor(work))
    metrics.update(floor or {})
    _, _, kernels = outcome.run("kernels", lambda: probes.kernels(families))
    metrics.update(kernels or {})

    traced_s = tracer.total(f"{args.workload}.pass")
    metrics.update(
        {
            "trace.untraced_pass_s": untraced_s,
            "trace.traced_pass_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
        }
    )
    trace_dir = os.path.join(os.path.dirname(work), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
    tracer.dump(path)
    return metrics, {"trace_file": path}


def measure(args, root: str, work: str) -> int:
    import ray

    from perfbench import passes

    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    t0 = time.perf_counter()
    names = list(passes.FAMILIES) if args.trace else [args.workload]
    families = {n: passes.FAMILIES[n](args.seed, work) for n in names}
    wl = families[args.workload]
    gen_s = time.perf_counter() - t0

    tmp = os.path.join(root, ".perfbench", "ray")
    if len(tmp) > MAX_RAY_TMP_LEN:
        tmp = tempfile.mkdtemp(prefix="perfbench-ray-")
    outcome = Outcome()
    try:
        t_setup = time.perf_counter()
        logs_dir = start_ray(tmp)
        wl.prepare()
        ok, warm_s, _ = outcome.run("warm-up", wl.run)
        setup_s = time.perf_counter() - t_setup
        if not ok:
            return 1
        if args.trace:
            values, extra = traced(args, families, outcome, logs_dir, work)
        else:
            values, extra = end_to_end(args, wl, outcome)
            values["setup_s"] = setup_s
    finally:
        ray.shutdown()
        shutil.rmtree(tmp, ignore_errors=True)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "ray_cpus": RAY_CPUS,
        "cpus_available": len(os.sched_getaffinity(0)),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "input_gen_s": gen_s,
        "warm_up_pass_s": warm_s,
        "setup_s": setup_s,
        **extra,
    }
    print(json.dumps(context))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "bioie_llm_ray", "__init__.py")):
        print("run from the root of a checkout that holds bioie_llm_ray/", file=sys.stderr)
        return 2
    # Ray workers import the engine and the benchmark's own callables
    sys.path.insert(0, root)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [root] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    from perfbench import passes

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(passes.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    # a terminated run still shuts Ray down and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = os.path.join(root, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        return measure(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
