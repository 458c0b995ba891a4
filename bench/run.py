"""Certification benchmark for groupoidal.

    python3 bench/run.py --workload cli_small --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

Run from the root of a checkout.  Each workload runs in a fresh worker
process (``worker.py``) that imports the program from ``./src``, so its
peak RSS is the workload's own.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics of
a traced run.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md for
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("cli_small", "pair6", "coaction_m3")
SETUP_REPEATS = 8
DEADLINE_S = 170.0  # every run must end within 180 s


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _worker(args: list, deadline: float) -> str:
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting the worker")
    try:
        done = subprocess.run([sys.executable, WORKER] + args, capture_output=True,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    if done.returncode != 0:
        raise BenchError(f"worker {args} exited {done.returncode}: {done.stderr.strip()}")
    return done.stdout


def setup_seconds(workload: str, seed: int, deadline: float, repeats: int) -> list:
    """Wall times of fresh processes through import and input generation."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        _worker(["--workload", workload, "--seed", str(seed), "--setup-only"], deadline)
        times.append(time.perf_counter() - started)
    return times


def tail(values: list):
    """Highest percentile with at least ten samples beyond it: (pct, value) or None."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(out: dict, setup_s: float) -> tuple:
    records = out["records"]
    certs = [r["seconds"] for r in records if r["kind"] == "cert"]
    busy = sum(r["seconds"] for r in records)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(len(records) / busy, "1/s"),
        "cert_p50_s": _metric(statistics.median(certs), "s"),
        "peak_rss_mb": _metric(out["peak_rss_mb"], "MB"),
    }
    lines = [f"  setup_s      {setup_s:.4f} s    median of {SETUP_REPEATS} fresh set-ups",
             f"  ops_per_s    {len(records) / busy:.4f} 1/s  "
             f"{len(records)} operations in {busy:.2f} s of calls",
             f"  cert_p50_s   {statistics.median(certs):.4f} s    {len(certs)} certificates"]
    t = tail(certs)
    if t is None:
        lines.append(f"  cert_tail_s  undefined: {len(certs)} certificates, "
                     "needs 11 for ten beyond the percentile")
    else:
        lines.append(f"  cert_tail_s  {t[1]:.4f} s    p{t[0]:.0f} of {len(certs)} "
                     "certificates, 10 beyond")
    failed = sum(1 for r in records if not r["ok"])
    lines += [f"  peak_rss_mb  {out['peak_rss_mb']:.1f} MB",
              f"  failed_ratio {failed / len(records):.4f}      "
              f"{failed} of {len(records)} operations"]
    return metrics, lines


def per_layer(out: dict) -> tuple:
    m = out["metrics"]
    verification = m["bundles.self_s"]["value"] + m["groupoids.self_s"]["value"]
    dense = m["algebras.self_s"]["value"] + m["morita.self_s"]["value"]
    lines = [f"  {name:44s} {v['value']:.6g} {v['unit']}" for name, v in m.items()]
    lines.append(f"  per traced operation over {out['traced_ops']} operations; "
                 f"bundles+groupoids {verification:.4f} s, algebras+morita {dense:.4f} s "
                 f"({100 * dense / m['trace.op_s']['value']:.1f}% of traced wall)")
    return m, lines


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """Run one workload; returns (result dict, report lines, environment)."""
    deadline = time.perf_counter() + DEADLINE_S
    # Half of the set-ups run before the measured run and half after it, so
    # that their median spans the run rather than one moment of the host.
    setups = [] if trace else setup_seconds(workload, seed, deadline, SETUP_REPEATS // 2)
    stdout = _worker(["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)], deadline)
    if not trace:
        setups += setup_seconds(workload, seed, deadline, SETUP_REPEATS - len(setups))
    out = json.loads(stdout.strip().splitlines()[-1])
    records = out["records"]
    failed = sum(1 for r in records if not r["ok"])
    if trace:
        metrics, lines = per_layer(out)
    else:
        metrics, lines = end_to_end(out, statistics.median(setups))
    lines = [f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}"] + lines
    lines += [f"  error: {e.strip()}" for e in out["errors"]]
    result = {"correct": failed == 0 and out["warmup_ok"], "attempted": len(records),
              "failed": failed, "metrics": metrics}
    return result, lines, out["env"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "groupoidal", "__init__.py")):
        print("bench: run from the root of a checkout that holds src/groupoidal",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, lines, env = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines))
            print("env: " + json.dumps(env, sort_keys=True))
            if env["blas_threads"] and env["blas_threads"] > env["nproc"]:
                print(f"warning: BLAS uses {env['blas_threads']} threads on "
                      f"{env['nproc']} CPUs", file=sys.stderr)
            results[name] = result
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
