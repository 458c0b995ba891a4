"""One workload in a fresh process: set up, warm up, measure, check.

Run by ``run.py`` from the root of a checkout; prints one JSON object as
its last line.  ``--setup-only`` stops after import and input generation,
which is what ``run.py`` times for ``setup_s``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.getcwd(), "src")


def import_program():
    """Import groupoidal from ./src of the checkout, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC_DIR, "groupoidal", "__init__.py")):
        raise SystemExit(f"bench: no program source at {SRC_DIR}/groupoidal")
    sys.path[:0] = [SRC_DIR, BENCH_DIR]
    import groupoidal

    if not os.path.abspath(groupoidal.__file__).startswith(SRC_DIR + os.sep):
        raise SystemExit(f"bench: groupoidal imported from {groupoidal.__file__}")


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it is not found."""
    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
    }


def run_op(op) -> dict:
    """Time one call into the program, then check its result."""
    started = time.perf_counter()
    try:
        result = op.call()
    except Exception:  # an exception is a failed operation, not a crash
        seconds = time.perf_counter() - started
        return {"kind": op.kind, "seconds": seconds, "ok": False,
                "error": f"{op.label}: {traceback.format_exc(limit=3)}"}
    seconds = time.perf_counter() - started
    try:
        op.check(result)
    except Exception as exc:
        return {"kind": op.kind, "seconds": seconds, "ok": False,
                "error": f"{op.label}: {type(exc).__name__}: {exc}"}
    return {"kind": op.kind, "seconds": seconds, "ok": True}


def measure(workload, seconds: float) -> dict:
    """Closed loop over whole cycles until the run has lasted ``seconds``."""
    records = []
    started = time.perf_counter()
    while True:
        records += [run_op(op) for op in workload.ops]
        if time.perf_counter() - started >= seconds:
            break
    return {"records": records}


def measure_traced(workload, seconds: float, spans_path: str) -> dict:
    """Run each operation untraced, traced, then traced for memory, for ``seconds``.

    The traced pass gives self times and counters; its extra wall time over
    the untraced pass is the tracing overhead.  The memory pass, with
    tracemalloc inside the peak stages, gives the stage peaks only.
    """
    import spans

    timing, memory = spans.Recorder(), spans.Recorder(memory=True)
    untraced, traced_ops, memory_ops = [], [], []
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        op = workload.ops[len(traced_ops) % len(workload.ops)]
        untraced.append(run_op(op))
        timing.op = memory.op = len(traced_ops)
        with spans.traced(timing):
            traced_ops.append(run_op(op))
        with spans.traced(memory):
            memory_ops.append(run_op(op))
    spans.write_spans(timing, spans_path)
    traced_s = sum(r["seconds"] for r in traced_ops)
    untraced_s = sum(r["seconds"] for r in untraced)
    return {"records": untraced + traced_ops + memory_ops,
            "metrics": spans.per_layer_metrics(timing, memory, len(traced_ops),
                                               traced_s, untraced_s),
            "traced_ops": len(traced_ops)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}")
    work_root = os.path.join(os.getcwd(), ".bench_work")
    tmp = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
        if args.setup_only:
            return 0
        warm = [run_op(op) for op in workload.warmup]
        if args.trace:
            spans_path = os.path.join(work_root, f"spans-{args.workload}-seed{args.seed}.tsv")
            out = measure_traced(workload, args.seconds, spans_path)
        else:
            out = measure(workload, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    errors = [r["error"] for r in warm + out["records"] if not r["ok"]]
    out["warmup_ok"] = all(r["ok"] for r in warm)
    out["errors"] = errors[:5]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
