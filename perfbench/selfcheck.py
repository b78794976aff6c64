"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

1. A reduced-size pass of each workload goes end to end, untraced and
   traced, with no failed operation and no check problem; tracing puts
   every wrapped name back.
2. Each correctness check fires when it is fed a wrong oracle, a
   tampered record or a tampered package, so no check passes because it
   cannot fail.
3. ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints, and
   the command refuses to run where the program's source is missing.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import suite  # noqa: E402
import tracing  # noqa: E402
from repro import Device, EricCompiler, JobSpec, SimParams  # noqa: E402
from repro.farm import execute_job  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"  {'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        FAILURES.append(what)


def fires(problems: list[str], what: str) -> None:
    expect(bool(problems), f"check fires: {what}")


def reduced_passes() -> None:
    print("reduced-size passes")
    # traced passes run inline, as in run.py: spans exist in one process
    benches = {
        "paper-sweep": lambda store_dir, traced: suite.PaperSweep(
            7, 1 if traced else 2, store_dir, programs=("crc32",)),
        "policy-churn": lambda store_dir, traced: suite.PolicyChurn(
            7, programs=("crc32", "bitcount")),
    }
    for name, make in benches.items():
        for traced in (False, True):
            tracer = (tracing.LayerTracer() if traced
                      else tracing.NullTracer())
            store_dir = tempfile.mkdtemp(prefix="selfcheck-",
                                         dir=run.WORK_DIR)
            try:
                bench = make(store_dir, traced)
                if traced:
                    tracer.install()
                try:
                    tally = bench.run(tracer)
                finally:
                    if traced:
                        tracer.restore()
            finally:
                shutil.rmtree(store_dir, ignore_errors=True)
            if hasattr(bench, "check_after"):
                bench.check_after(tally)
            label = f"{name} ({'traced' if traced else 'untraced'})"
            expect(tally.attempted > 0 and tally.failed == 0
                   and not tally.problems,
                   f"{label}: {tally.attempted} ops, {tally.failed} "
                   f"failed, problems {tally.problems[:3]}")
            if traced:
                layers = run.layer_metrics(tracer, tally.attempted)
                expect(layers["soc.self_ms_per_op"] > 0
                       and layers["puf.readouts_per_op"] > 0,
                       f"{label}: spans recorded for soc and puf")
    import repro.core.compiler_driver as compiler_driver
    import repro.core.hde as hde
    expect(not hasattr(compiler_driver.compile_source, "__wrapped__")
           and not hasattr(hde.HardwareDecryptionEngine.process,
                           "__wrapped__"),
           "tracing restored every wrapped name")


def checks_fire() -> None:
    print("each check fires on bad input")
    oracle = suite.ORACLES["crc32"]
    record = execute_job(JobSpec(workload="crc32", analyze=True,
                                 params=SimParams(device_seed=0x51C0)))
    expect(not suite.check_job(record, oracle),
           "check_job passes a good record")
    fires(suite.check_job(record, oracle + "x"), "job, wrong oracle")
    fires(suite.check_job(dataclasses.replace(
        record, eric_cycles=record.eric_cycles + 1), oracle),
        "job, cycles not restored")
    fires(suite.check_job(dataclasses.replace(
        record, hde={**record.hde, "signature_ok": False}), oracle),
        "job, signature check failed")
    leaked = [{**a, "outcome": "completed"}
              for a in record.analysis["dynamic"]]
    fires(suite.check_job(dataclasses.replace(
        record, analysis={**record.analysis, "dynamic": leaked}), oracle),
        "job, attacker not rejected")

    device, other = Device(device_seed=0x51C1), Device(device_seed=0x51C2)
    built = EricCompiler().compile_and_package(
        suite.SOURCES["crc32"], device.enrollment_key())
    ran = device.load_and_run(built.package_bytes)
    expect(not suite.check_deploy(ran, oracle),
           "check_deploy passes a good run")
    fires(suite.check_deploy(ran, oracle + "x"), "deploy, wrong oracle")
    ran.hde.signature_ok = False
    fires(suite.check_deploy(ran, oracle), "deploy, signature check failed")

    package = built.package_bytes
    tampered = bytearray(package)
    tampered[-1] ^= 0x01
    expect(not suite.check_refused(other, package),
           "check_refused passes a wrong-device load")
    fires(suite.check_refused(device, package),
          "refused, package loaded on its own device")
    expect(not suite.check_refused(device, bytes(tampered)),
           "a tampered package is refused by its own device")
    fires(suite.check_obfuscated(100, 100), "obfuscated, not longer")


def contract() -> None:
    print("contract")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]}
           == run.END_TO_END, "end_to_end metrics match run.py")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]}
           == run.PER_LAYER, "per_layer metrics match run.py")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "workloads match run.py")
    with tempfile.TemporaryDirectory(dir=run.WORK_DIR) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "policy-churn", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=bare, capture_output=True, text=True, timeout=60)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the program's source the command fails, no result")


def main() -> int:
    run.WORK_DIR.mkdir(exist_ok=True)
    reduced_passes()
    checks_fire()
    contract()
    print(f"selfcheck: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
