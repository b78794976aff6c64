"""Per-layer spans, recorded from outside the program.

:class:`LayerTracer` replaces each layer's public entry point with a
wrapper that opens a span around the call.  A module-level function is
replaced at every place a caller looks it up (each ``repro`` module that
bound it with ``from ... import``); a method is replaced on its class.
:meth:`LayerTracer.restore` puts every original back, and the program's
source is never touched.

Spans stay in memory, each with its parent, until :meth:`dump` writes
them out.  A layer's self time is its spans' durations minus the part
their child spans cover.  The benchmark runs inline (one thread) while
tracing, so one stack tracks the nesting.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

#: (module, function, layer): replaced wherever a ``repro`` module binds it
FUNCTIONS = (
    ("repro.cc.driver", "compile_source", "cc"),
    ("repro.asm.assembler", "assemble", "asm"),
    ("repro.policy.opaque", "insert_opaque_predicates", "policy.opaque"),
    ("repro.core.signature", "compute_signature", "core.sign"),
    ("repro.core.encryptor", "encrypt_program", "core.encrypt"),
    ("repro.net.static_attacker", "analyze_blob", "net.static"),
    ("repro.net.dynamic_attacker", "attempt_execution", "net.dynamic"),
)

#: (module, class, method, layer)
METHODS = (
    ("repro.core.package", "ProgramPackage", "serialize", "core.package"),
    ("repro.core.hde", "HardwareDecryptionEngine", "process", "hde"),
    ("repro.soc.soc", "RocketLikeSoC", "run", "soc"),
    ("repro.puf.key_generator", "PufKeyGenerator", "generate", "puf"),
    ("repro.farm.store", "ResultStore", "put", "farm.store"),
)

#: The root span of one benchmark operation; time in no layer lands here.
OP = "op"


class NullTracer:
    """The untraced run's stand-in: no spans, no wrappers."""

    def op(self):
        return nullcontext()


class LayerTracer:
    def __init__(self) -> None:
        #: [layer, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.hde_cycles = 0
        self.soc_cycles = 0
        self.soc_runs = 0
        self.soc_reused = 0
        self._programs: set[bytes] = set()

    # -- spans ------------------------------------------------------------

    def _open(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self):
        index = self._open(OP)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, original, layer: str):
        def traced(*args, **kwargs):
            index = self._open(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            self._observe(layer, args, kwargs, result)
            return result
        traced.__wrapped__ = original
        return traced

    def _observe(self, layer: str, args, kwargs, result) -> None:
        if layer == "hde":
            self.hde_cycles += result[1].total_cycles
        elif layer == "soc":
            program = args[1] if len(args) > 1 else kwargs["program"]
            digest = hashlib.blake2b(
                bytes(program.text) + bytes(program.data)).digest()
            self.soc_runs += 1
            self.soc_reused += digest in self._programs
            self._programs.add(digest)
            self.soc_cycles += result.counters.cycles

    # -- installing and restoring -----------------------------------------

    def install(self) -> None:
        for module_name, name, layer in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), name)
            wrapper = self._wrap(original, layer)
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapper)
        for module_name, cls_name, name, layer in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, name, self._wrap(vars(cls)[name], layer))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def self_seconds(self) -> tuple[dict[str, float], Counter]:
        """Per layer: summed self time, and the number of spans."""
        child_s = defaultdict(float)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        count: Counter = Counter()
        for i, (layer, start, end, _) in enumerate(self.spans):
            own[layer] += end - start - child_s[i]
            count[layer] += 1
        return own, count

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (layer, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": i, "parent": parent, "layer": layer,
                     "start": start, "end": end}) + "\n")
