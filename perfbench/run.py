"""Run one benchmark workload on one seed and print its result.

From the repository root:

    python3 perfbench/run.py --workload synth_default --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones from a traced run, whose spans
are written to ``perfbench/results/`` at exit.  The line before it holds
the environment fingerprint.  Each workload and metric is described in
``perfbench/README.md``.

BLAS and OpenMP are pinned to one thread before numpy is imported: the
report rows depend on the BLAS thread count, and one thread was also the
faster setting on a two-core machine.

Every time in the printed metrics is CPU time: of this process, or of the
child interpreter that imports jmml.  The run is single-threaded, so on an
unshared machine CPU time is the wall time; on a shared VM wall time also
holds the time the host withheld the CPU, which moved training operations
by up to 1.5x between runs.  The wall-clock figures go to the result file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc malloc serves every block from the heap and keeps what is freed, so
# that warm operations reuse memory instead of mapping and faulting in fresh
# pages: eeg_wide's 35 MB Adam temporaries otherwise cost about 0.8 s of
# kernel time per operation, and that share moved with the host.
MALLOC_ENV = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}
IMPORT_REPS = 5

# End-to-end metrics: (name, unit).  Every workload reports all of them.
END_TO_END = (
    ("setup_s", "s"),
    ("op_cpu_ms_p50", "ms"),
    ("op_cpu_ms_p90", "ms"),
    ("ops_per_cpu_s", "1/s"),
    ("f1_mean", "%"),
    ("peak_rss_mb", "MB"),
)


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def pin_allocator():
    """glibc reads its malloc settings at start, so set them and restart
    this interpreter in place (same process, nothing is spawned)."""
    if all(os.environ.get(k) == v for k, v in MALLOC_ENV.items()):
        return
    os.environ.update(MALLOC_ENV)
    sys.stdout.flush()
    os.execv(sys.executable, sys.orig_argv)


def import_jmml():
    """Import jmml from this checkout's ``src``; never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import jmml
    except ImportError as err:
        sys.exit(f"cannot import jmml from {SRC}: {err}")
    if Path(jmml.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"jmml was imported from {jmml.__file__}, not from {SRC}")


def children_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def import_seconds():
    """Median (CPU, wall) seconds of a fresh interpreter importing jmml."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cpu, wall = [], []
    for _ in range(IMPORT_REPS):
        c0, w0 = children_cpu(), perf_counter()
        subprocess.run([sys.executable, "-c", "import jmml"], env=env, cwd=ROOT, check=True)
        wall.append(perf_counter() - w0)
        cpu.append(children_cpu() - c0)
    return statistics.median(cpu), statistics.median(wall)


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def fingerprint():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "malloc": {var: os.environ.get(var) for var in MALLOC_ENV},
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


FAILED = object()


class Loop:
    """Closed loop: run operations back to back until the next one would
    end past the deadline (at least ``min_ops`` always run).  Each operation's
    inputs are prepared untimed just before it."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.next_op = 0
        self.attempted = 0
        self.failed = 0

    def run(self, seconds, on_op=None, min_ops=1, cycle=1):
        """Returns per-operation (wall seconds, CPU seconds); a failed
        operation is timed up to its failure, its check is not timed.
        Past ``min_ops``, operations run in whole cycles of ``cycle``, and a
        cycle starts only while it is expected to end by the deadline."""
        deadline = perf_counter() + seconds
        walls, cpus = [], []
        busy = 0.0
        while True:
            i = self.next_op
            self.next_op += 1
            if on_op is not None:
                on_op(i)
            self.attempted += 1
            start = perf_counter()
            self.workload.prepare(i)
            w0, c0 = perf_counter(), process_time()
            try:
                out = self.workload.op(i, self.state)
            except Exception:  # any failure counts against the run
                out = FAILED
                self.failed += 1
                traceback.print_exc()
            walls.append(perf_counter() - w0)
            cpus.append(process_time() - c0)
            if out is not FAILED:
                try:
                    self.workload.check(out)
                except Exception:
                    self.failed += 1
                    traceback.print_exc()
            busy += perf_counter() - start
            n = len(walls)
            if n >= min_ops and (n - min_ops) % cycle == 0 \
                    and perf_counter() + cycle * busy / n > deadline:
                return walls, cpus

    def final_check(self):
        """End-of-run checks count as one more operation."""
        self.attempted += 1
        try:
            self.workload.final_check(self.state)
        except Exception:
            self.failed += 1
            traceback.print_exc()


def percentile_ms(times, q):
    import numpy as np

    return float(np.percentile(times, q)) * 1000.0


def timed_setups(workload):
    """Median (CPU, wall) seconds of the workload's set-ups, and the state of
    the last one."""
    cpu, wall, state = [], [], None
    for _ in range(workload.setup_reps):
        w0, c0 = perf_counter(), process_time()
        state = workload.setup()
        wall.append(perf_counter() - w0)
        cpu.append(process_time() - c0)
        workload.after_setup(state)
    return statistics.median(cpu), statistics.median(wall), state


def run_untraced(workload, seconds):
    """The first ``workload.warmup_ops`` operations warm up: they are run
    and checked within the run's seconds, but left out of the timings,
    since the first operations of a process ran up to a fifth slower."""
    import_cpu, import_wall = import_seconds()
    setup_cpu, setup_wall, state = timed_setups(workload)
    loop = Loop(workload, state)
    warm = workload.warmup_ops
    # Timed operations come in whole cycles over the input variants, so that
    # every run times each variant equally often whatever its speed.
    walls, cpus = loop.run(seconds, min_ops=warm + workload.variants, cycle=workload.variants)
    walls, cpus = walls[warm:], cpus[warm:]
    loop.final_check()
    metrics = {
        "setup_s": import_cpu + setup_cpu,
        "op_cpu_ms_p50": percentile_ms(cpus, 50),
        "op_cpu_ms_p90": percentile_ms(cpus, 90),
        "ops_per_cpu_s": len(cpus) / sum(cpus),
        "f1_mean": workload.f1_mean,
        "peak_rss_mb": peak_rss_mb(),
    }
    # Wall-clock counterparts, not gated.  p99 is left out of the gated
    # metrics in either clock: on a small shared VM it mostly measures
    # millisecond host stalls, not the program.
    extra = {"import_cpu_s": import_cpu, "workload_setup_cpu_s": setup_cpu,
             "op_cpu_ms_p99": percentile_ms(cpus, 99),
             "wall": {"setup_s": import_wall + setup_wall, "import_s": import_wall,
                      "op_ms_p50": percentile_ms(walls, 50), "op_ms_p90": percentile_ms(walls, 90),
                      "op_ms_p99": percentile_ms(walls, 99), "ops_per_s": len(walls) / sum(walls)},
             "output_sha256": workload.digest, "op_wall_s": walls, "op_cpu_s": cpus}
    return loop, {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}, extra


def run_traced(workload, seconds, spans_path):
    """Operations alternate untraced and traced, so that both see the same
    host; the difference of the two median operation CPU times is the
    tracing overhead per operation.  Operations 1 and 2 of every four are
    traced: ``serve_rows`` alternates modality, so each modality gets both
    kinds.  Warm-up operations are left out of the untraced median."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        state = workload.setup()
    finally:
        tracer.uninstall()
    workload.after_setup(state)
    tracer.phase = "op"

    def is_traced(i):
        return i % 4 in (1, 2)

    def enter_op(i):
        tracer.op_id = i
        if is_traced(i):
            tracer.install()
        else:
            tracer.uninstall()

    loop = Loop(workload, state)
    try:
        _, cpus = loop.run(seconds, on_op=enter_op,
                           min_ops=max(4, workload.warmup_ops + 3, workload.variants))
    finally:
        tracer.uninstall()
    plain = [c for i, c in enumerate(cpus) if not is_traced(i) and i >= workload.warmup_ops]
    traced = [c for i, c in enumerate(cpus) if is_traced(i)]
    loop.final_check()
    tracer.write_spans(spans_path)
    overhead = statistics.median(traced) - statistics.median(plain)
    extra = {"output_sha256": workload.digest, "untraced_op_cpu_s": plain, "traced_op_cpu_s": traced,
             "spans": len(tracer.spans), "dropped_spans": tracer.dropped}
    return loop, tracer.metrics(len(traced), overhead), extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    pin_allocator()
    pin_threads()
    import_jmml()
    from workloads import WORKLOADS, CheckFailed

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = fingerprint()
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    workdir = RESULTS / f"work-{tag}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        try:
            if args.trace:
                loop, metrics, extra = run_traced(workload, args.seconds,
                                                  RESULTS / f"{tag}-spans.jsonl")
            else:
                loop, metrics, extra = run_untraced(workload, args.seconds)
        except CheckFailed:
            traceback.print_exc()
            sys.exit(1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {"correct": loop.failed == 0, "attempted": loop.attempted, "failed": loop.failed,
              "metrics": metrics}
    with open(RESULTS / f"{tag}.json", "w") as fh:
        json.dump({"args": vars(args), "env": env, "result": result, "detail": extra}, fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
