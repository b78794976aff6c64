"""The benchmark's two workloads: seeded inputs, timed operations, checks.

Each workload class draws its whole operation list from one seed when it
is built (that is part of set-up), performs the list with :meth:`run`
(the timed part) and checks every output against the workload oracle
(``Workload.expected_stdout``) and against properties ERIC must have.
The program receives only the generated inputs.

The check functions at the bottom take plain values, so the self-check
(``selfcheck.py``) can feed them a wrong oracle or a tampered package and
see each one fire.
"""

from __future__ import annotations

import random
import resource
import time
from dataclasses import dataclass, field

from repro import (Device, EncryptionMode, EricCompiler, EricConfig, JobSpec,
                   ResultStore, SimParams, SimulationFarm)
from repro.cc.driver import compile_source
from repro.errors import EricError, ValidationError
from repro.policy.policy import EncryptRule, ObfuscateRule, ProtectionPolicy
from repro.workloads import all_workloads

PROGRAMS = tuple(all_workloads())
SOURCES = {name: w.source for name, w in all_workloads().items()}
ORACLES = {name: w.expected_stdout for name, w in all_workloads().items()}

#: Device seeds are drawn from here; it excludes the farm's attacker
#: seeds (1, 2, 3), so no job's target is one of its own attackers.
DEVICE_SEEDS = range(0x10000, 1 << 31)

#: The packaging configs of the paper's figures.
PAPER_CONFIGS = tuple(EricConfig(mode=mode) for mode in EncryptionMode)

#: policy-churn: devices the builds are drawn over, and the fixed
#: protection shape whose seed changes on every build.
POLICY_DEVICES = 4
POLICY_FRACTION = 0.5
POLICY_DENSITY = 0.15


@dataclass
class Tally:
    """What one pass over an operation list measured and found."""

    attempted: int = 0
    failed: int = 0
    #: errors of the failed operations
    errors: list[str] = field(default_factory=list)
    #: checks that did not hold on operations that did not fail
    problems: list[str] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    eric_cycles: int = 0
    package_bytes: int = 0
    #: paper-sweep only: per wave, wall time not covered by its jobs
    wave_overhead_ms: list[float] = field(default_factory=list)

    def fail(self, where: str, error: str) -> None:
        self.failed += 1
        self.errors.append(f"{where}: {error}")

    def note(self, where: str, problems: list[str]) -> None:
        self.problems.extend(f"{where}: {p}" for p in problems)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class PaperSweep:
    """Fig. 5-7 records: every program x {full, partial, field}, analyzed.

    One wave is one ``SimulationFarm.run`` over one program's three
    jobs, each on its own seeded device.  The waves visit all programs
    in a seeded order.
    """

    def __init__(self, seed: int, jobs: int, store_dir,
                 programs=PROGRAMS) -> None:
        rng = random.Random(seed)
        self.jobs = jobs
        self.store_dir = store_dir
        self.waves: list[list[JobSpec]] = []
        order = list(programs)
        rng.shuffle(order)
        for name in order:
            configs = list(PAPER_CONFIGS)
            rng.shuffle(configs)
            seeds = rng.sample(DEVICE_SEEDS, len(configs))
            self.waves.append([
                JobSpec(workload=name, config=config,
                        params=SimParams(device_seed=device_seed),
                        analyze=True)
                for config, device_seed in zip(configs, seeds)])

    def run(self, tracer) -> Tally:
        tally = Tally()
        farm = SimulationFarm(store=ResultStore(self.store_dir),
                              jobs=self.jobs, metrics=False)
        start = time.perf_counter()
        for wave in self.waves:
            wave_start = time.perf_counter()
            with tracer.op():
                report = farm.run(wave)
            wave_s = time.perf_counter() - wave_start
            tally.latencies_ms.append(wave_s * 1e3)
            tally.attempted += len(wave)
            busy_s = 0.0
            for result in report.results:
                where = (f"{result.spec.display_name}/"
                         f"{result.spec.config.mode.value}")
                if not result.ok:
                    tally.fail(where, result.error)
                    continue
                record = result.record
                busy_s += record.wall_s
                tally.eric_cycles += record.eric_cycles
                tally.package_bytes += record.package_size
                tally.note(where, check_job(
                    record, ORACLES[result.spec.workload]))
                if result.from_store:
                    tally.note(where, ["served from the store"])
            workers = min(self.jobs, len(wave))
            tally.wave_overhead_ms.append(
                (wave_s - busy_s / workers) * 1e3)
        tally.wall_s = time.perf_counter() - start
        return tally


class PolicyChurn:
    """Security vs overhead: compile under a fresh policy, then run.

    Every build has a new policy seed, so its bytes are new and the
    simulator runs them cold.  An operation is one policy build plus
    its run on one of the seeded devices.
    """

    def __init__(self, seed: int, programs=PROGRAMS) -> None:
        rng = random.Random(seed)
        device_seeds = rng.sample(DEVICE_SEEDS, POLICY_DEVICES)
        self.devices = [Device(device_seed=s) for s in device_seeds]
        self.keys = [device.enrollment_key() for device in self.devices]
        self.builds: list[tuple[str, ProtectionPolicy, int]] = []
        order = list(programs)
        rng.shuffle(order)
        for name in order:
            policy = ProtectionPolicy(
                name=f"churn-{name}",
                encrypt=(EncryptRule(fraction=POLICY_FRACTION),),
                obfuscate=(ObfuscateRule(density=POLICY_DENSITY),),
                seed=rng.randrange(1 << 31))
            self.builds.append(
                (name, policy, rng.randrange(POLICY_DEVICES)))
        #: (program, obfuscated text length, package, its device index)
        self._built: list[tuple[str, int, bytes, int]] = []

    def run(self, tracer) -> Tally:
        tally = Tally()
        self._built = []
        start = time.perf_counter()
        for name, policy, which in self.builds:
            tally.attempted += 1
            op_start = time.perf_counter()
            try:
                with tracer.op():
                    built = EricCompiler(policy=policy).compile_and_package(
                        SOURCES[name], self.keys[which], name=name)
                    ran = self.devices[which].load_and_run(
                        built.package_bytes)
            except EricError as exc:
                tally.fail(name, f"{type(exc).__name__}: {exc}")
                continue
            finally:
                tally.latencies_ms.append(
                    (time.perf_counter() - op_start) * 1e3)
            tally.eric_cycles += ran.total_cycles
            tally.package_bytes += built.package_size
            tally.note(name, check_deploy(ran, ORACLES[name]))
            self._built.append((name, len(built.program.text),
                                built.package_bytes, which))
        tally.wall_s = time.perf_counter() - start
        return tally

    def check_after(self, tally: Tally) -> None:
        """Untimed: each obfuscated text against the plain compile, and
        each package on a device of the run it was not built for."""
        plain: dict[str, int] = {}
        for name, text_len, package, which in self._built:
            if name not in plain:
                plain[name] = len(compile_source(
                    SOURCES[name], name=name).program.text)
            tally.note(name, check_obfuscated(text_len, plain[name]))
            other = self.devices[(which + 1) % len(self.devices)]
            tally.note(name, check_refused(other, package))


# -- checks: each returns a list of problems, empty when the output holds --

def check_job(record, oracle: str) -> list[str]:
    """One analyzed farm record of a registry program."""
    problems = []
    run = record.eric_run or {}
    if run.get("console") != oracle:
        problems.append("stdout differs from the oracle")
    if run.get("exit_code") != 0:
        problems.append(f"exit code {run.get('exit_code')}")
    if not (record.hde or {}).get("signature_ok"):
        problems.append("HDE signature check did not pass")
    if record.eric_cycles - record.hde_cycles != record.plain_cycles:
        problems.append(
            f"eric_cycles - hde_cycles = "
            f"{record.eric_cycles - record.hde_cycles} != plain_cycles "
            f"{record.plain_cycles}: decryption did not restore the program")
    attackers = (record.analysis or {}).get("dynamic") or []
    if not attackers:
        problems.append("no attacker device was tried")
    for attempt in attackers:
        if attempt.get("outcome") != "rejected":
            problems.append(f"attacker device {attempt.get('device_seed')}"
                            f" was not rejected: {attempt.get('outcome')}")
    return problems


def check_deploy(run, oracle: str) -> list[str]:
    """One ``DeviceRunResult`` of a registry program."""
    problems = []
    if run.run.stdout != oracle:
        problems.append("stdout differs from the oracle")
    if run.run.exit_code != 0:
        problems.append(f"exit code {run.run.exit_code}")
    if not run.hde.signature_ok:
        problems.append("HDE signature check did not pass")
    return problems


def check_refused(device, package: bytes) -> list[str]:
    """A package built for another device must not run on ``device``."""
    try:
        device.load_and_run(package)
    except ValidationError:
        return []
    return [f"package ran on {device.device_id}, a device it was not "
            f"built for"]




def check_obfuscated(text_len: int, plain_text_len: int) -> list[str]:
    """Opaque predicates make the text longer than the plain compile."""
    if text_len <= plain_text_len:
        return [f"obfuscated text ({text_len} B) is not longer than the "
                f"plain compile ({plain_text_len} B)"]
    return []
