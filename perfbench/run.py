"""ERIC end-to-end benchmark: one command, two workloads.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 50 \
        --trace 0

Run from the root of a checkout (``src/repro`` must be there).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before
it are the same figures for people to read.

A run is a series of passes.  Each pass is a fresh worker process that
imports the program, performs one round of operations drawn from
``--seed`` (the same round in every pass) and checks every output.
Passes follow each other for about ``--seconds`` (the run stops where
its end comes closest to that); a pass is never cut short, so its
program mix never changes.  Timings are taken over all the passes of
the run, so they average the host's speed over the whole run.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench_work"

WORKLOADS = ("paper-sweep", "policy-churn")

#: Passes a run makes whatever the clock says.
MIN_PASSES = 2

#: Extra processes that only set up, so setup_s is a median over these
#: and every pass's process start.
SETUP_PROBES = 2

#: Failed operations and check problems shown per worker.
SHOWN = 20

#: Every worker of one run must have ended this many seconds after the
#: run started (a run is allowed 180 s in all).
RUN_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_ms.p50": "ms",
    "peak_rss_mb": "MB",
    "eric_cycles": "cycles",
    "package_bytes": "bytes",
}

PER_LAYER = {
    "setup.import_ms": "ms",
    "statics.fingerprint_ms": "ms",
    "puf.readouts_per_op": "count",
    "puf.self_ms_per_op": "ms",
    "cc.compiles_per_op": "count",
    "cc.self_ms_per_op": "ms",
    "asm.self_ms_per_op": "ms",
    "policy.opaque_ms_per_op": "ms",
    "core.sign_ms_per_op": "ms",
    "core.encrypt_ms_per_op": "ms",
    "core.package_ms_per_op": "ms",
    "hde.self_ms_per_op": "ms",
    "hde.cycles_per_op": "cycles",
    "soc.self_ms_per_op": "ms",
    "soc.mcycles_per_s": "Mcycles/s",
    "soc.trace_reuse": "ratio",
    "net.static_ms_per_op": "ms",
    "net.dynamic_ms_per_op": "ms",
    "farm.store_ms_per_op": "ms",
    "farm.wave_overhead_ms": "ms",
    "trace.unattributed_ms_per_op": "ms",
    "trace.overhead_pct": "%",
}

#: span layer -> per-layer metric of its self time per operation
SELF_MS = {
    "puf": "puf.self_ms_per_op",
    "cc": "cc.self_ms_per_op",
    "asm": "asm.self_ms_per_op",
    "policy.opaque": "policy.opaque_ms_per_op",
    "core.sign": "core.sign_ms_per_op",
    "core.encrypt": "core.encrypt_ms_per_op",
    "core.package": "core.package_ms_per_op",
    "hde": "hde.self_ms_per_op",
    "soc": "soc.self_ms_per_op",
    "net.static": "net.static_ms_per_op",
    "net.dynamic": "net.dynamic_ms_per_op",
    "farm.store": "farm.store_ms_per_op",
    "op": "trace.unattributed_ms_per_op",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# -- worker: one fresh process, one pass over the operation list ----------

def worker(args) -> dict:
    """Set up, run one round of operations, check it; return the raw
    figures."""
    sys.path.insert(0, str(ROOT / "src"))
    import_start = time.perf_counter()
    import repro  # noqa: F401  (timed: the import is part of set-up)
    import suite
    import tracing
    from repro.statics.fingerprint import model_fingerprint
    fingerprint_start = time.perf_counter()
    model_fingerprint()
    fingerprint_end = time.perf_counter()

    WORK_DIR.mkdir(exist_ok=True)
    store_dir = tempfile.mkdtemp(prefix="store-", dir=WORK_DIR)
    try:
        if args.workload == "paper-sweep":
            bench = suite.PaperSweep(args.seed, args.jobs, store_dir)
        else:
            bench = suite.PolicyChurn(args.seed)
        figures = {
            "setup_s": time.monotonic() - args.spawned_at,
            "import_ms": (fingerprint_start - import_start) * 1e3,
            "fingerprint_ms": (fingerprint_end - fingerprint_start) * 1e3,
        }
        if args.role == "probe":
            return figures

        tracer = tracing.LayerTracer() if args.traced else tracing.NullTracer()
        if args.traced:
            tracer.install()
        try:
            tally = bench.run(tracer)
        finally:
            if args.traced:
                tracer.restore()
        if hasattr(bench, "check_after"):
            bench.check_after(tally)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    figures.update(
        attempted=tally.attempted, failed=tally.failed,
        errors=tally.errors[:SHOWN], problems=tally.problems[:SHOWN],
        problem_count=len(tally.problems),
        wall_s=tally.wall_s, latencies_ms=tally.latencies_ms,
        eric_cycles=tally.eric_cycles, package_bytes=tally.package_bytes,
        wave_overhead_ms=tally.wave_overhead_ms,
        peak_rss_mb=suite.peak_rss_mb())
    if args.traced:
        tracer.dump(WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        figures["layers"] = layer_metrics(tracer, tally.attempted)
    return figures


def layer_metrics(tracer, ops: int) -> dict:
    own_s, count = tracer.self_seconds()
    layers = {metric: own_s.get(layer, 0.0) * 1e3 / ops
              for layer, metric in SELF_MS.items()}
    soc_s = own_s.get("soc", 0.0)
    layers.update({
        "puf.readouts_per_op": count["puf"] / ops,
        "cc.compiles_per_op": count["cc"] / ops,
        "hde.cycles_per_op": tracer.hde_cycles / ops,
        "soc.mcycles_per_s": (tracer.soc_cycles / soc_s / 1e6
                              if soc_s else 0.0),
        "soc.trace_reuse": (tracer.soc_reused / tracer.soc_runs
                            if tracer.soc_runs else 0.0),
    })
    return layers


# -- main process: spawn workers, combine their figures --------------------

def spawn(args, role: str, jobs: int = 1, traced: bool = False) -> dict:
    """Run one worker process to its end and return its figures; stop
    it, and every process it started, at the run's deadline."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--role", role,
               "--jobs", str(jobs), "--traced", str(int(traced)),
               "--spawned-at", repr(time.monotonic())]
    # its own session, so a timeout can stop its pool workers too
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, args.deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {role} worker timed out")
    finally:
        # stop anything the worker left behind in its session
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {role} worker exited with "
                         f"{proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_passes(args, jobs: int) -> list[dict]:
    """Untraced passes, one after the other: at least MIN_PASSES, then
    one more whenever ending after it comes closer to ``--seconds`` than
    stopping does."""
    pass_s: list[float] = []
    results: list[dict] = []
    start = time.monotonic()
    while True:
        pass_start = time.monotonic()
        results.append(spawn(args, "worker", jobs=jobs))
        pass_s.append(time.monotonic() - pass_start)
        elapsed = time.monotonic() - start
        if time.monotonic() + 1.5 * max(pass_s) > args.deadline:
            return results
        if (len(pass_s) >= MIN_PASSES
                and elapsed + statistics.mean(pass_s) / 2 > args.seconds):
            return results


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    done = sum(p["attempted"] - p["failed"] for p in passes)
    return {
        "setup_s": statistics.median(setups),
        "ops_per_s": done / sum(p["wall_s"] for p in passes),
        "latency_ms.p50": statistics.median(
            ms for p in passes for ms in p["latencies_ms"]),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "eric_cycles": passes[0]["eric_cycles"],
        "package_bytes": passes[0]["package_bytes"],
    }


def pass_problems(passes: list[dict]) -> list[str]:
    """Every pass performs the same operations on the same inputs, so
    the simulated counts must repeat exactly."""
    counts = {(p["eric_cycles"], p["package_bytes"]) for p in passes}
    if len(counts) > 1:
        return [f"simulated counts differ between passes of one seed: "
                f"(eric_cycles, package_bytes) = {sorted(counts)}"]
    return []


def per_layer(traced: dict, plain_inline: dict, pooled: dict | None,
              probes: list[dict]) -> dict:
    runs = probes + [traced, plain_inline]
    layers = dict(traced["layers"])
    layers["setup.import_ms"] = statistics.median(
        r["import_ms"] for r in runs)
    layers["statics.fingerprint_ms"] = statistics.median(
        r["fingerprint_ms"] for r in runs)
    layers["farm.wave_overhead_ms"] = (
        statistics.median(pooled["wave_overhead_ms"]) if pooled else 0.0)
    layers["trace.overhead_pct"] = (
        traced["wall_s"] / plain_inline["wall_s"] - 1.0) * 100.0
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "worker", "probe"),
                        default="main", help=argparse.SUPPRESS)
    parser.add_argument("--jobs", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, default=0.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    if args.role != "main":
        print(json.dumps(worker(args)))
        return 0

    args.deadline = time.monotonic() + RUN_TIMEOUT_S
    # build: byte-compile once, so no run's set-up pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src",
                    "perfbench"], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    probes = [spawn(args, "probe") for _ in range(SETUP_PROBES)]
    pool_jobs = nproc() if args.workload == "paper-sweep" else 1
    if args.trace:
        traced = spawn(args, "worker", traced=True)
        plain_inline = spawn(args, "worker")
        pooled = (spawn(args, "worker", jobs=pool_jobs)
                  if pool_jobs > 1 else None)
        runs = [traced, plain_inline] + ([pooled] if pooled else [])
        metrics = per_layer(traced, plain_inline, pooled, probes)
        units = PER_LAYER
        problems = []
    else:
        runs = run_passes(args, pool_jobs)
        metrics = end_to_end(runs, [r["setup_s"] for r in probes + runs])
        units = END_TO_END
        problems = pass_problems(runs)

    problem_count = sum(r["problem_count"] for r in runs) + len(problems)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    report(args, runs, problems, metrics, units)
    print(json.dumps({
        "correct": problem_count == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def report(args, runs, problems, metrics, units) -> None:
    """The human-readable lines above the JSON result."""
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}: "
          f"{len(runs)} worker(s)")
    for i, r in enumerate(runs):
        print(f"  worker {i}: {r['attempted']} operations, "
              f"{r['failed']} failed, {r['problem_count']} check "
              f"problem(s), {r['wall_s']:.2f} s timed, "
              f"{(r['attempted'] - r['failed']) / r['wall_s']:.4f} ops/s, "
              f"p50 {statistics.median(r['latencies_ms']):.2f} ms")
        for error in r["errors"]:
            print(f"  FAILED  {error}")
        for problem in r["problems"]:
            print(f"  PROBLEM {problem}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    for name, unit in units.items():
        print(f"  {name:30s} {metrics[name]:14.4f} {unit}")


if __name__ == "__main__":
    sys.exit(main())
