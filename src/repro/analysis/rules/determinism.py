"""REP001/REP002 — randomness and wall-clock discipline.

REP001: every stochastic draw must flow through ``repro.common.rng`` so a
single integer seed reproduces a run bit-exactly. Module-level ``random.*``
or legacy ``numpy.random.*`` calls, ``uuid1/uuid4``, ``os.urandom``,
``secrets`` and bare ``hash()`` (randomized per interpreter via
PYTHONHASHSEED) all break that contract.

REP002: simulated components must read time from the discrete-event clock
(``EventKernel.now`` in ``repro.kernel``), never the host. A single
``time.time()`` on a simulation path couples results to the machine that
produced them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleContext, Rule
from repro.analysis.imports import ImportMap

#: numpy.random entry points that are part of the *seeded* Generator API.
_NUMPY_SEEDED_API = frozenset(
    {
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
    }
)

_UUID_NONDETERMINISTIC = frozenset({"uuid.uuid1", "uuid.uuid4"})

_CLOCK_CALLS = frozenset(
    {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

#: Packages whose only legal time source is the simulation clock. The
#: profiling package is included deliberately: its sole sanctioned host
#: clock is ``repro.profiling.clock.host_clock_s`` (pragma'd at the call
#: site); every other profiling module — and every instrumented simulation
#: module — must route host timing through that helper.
_SIM_PACKAGES = (
    "faas", "training", "tuning", "workflow", "slo", "faults", "profiling",
    "timeseries", "runs", "kernel",
)


class UnseededRandomnessRule(Rule):
    """REP001: randomness outside the seeded ``repro.common.rng`` streams."""

    rule_id = "REP001"
    name = "unseeded-randomness"
    severity = "error"
    rationale = (
        "All stochastic draws must come from repro.common.rng streams; "
        "global RNGs, uuid1/uuid4, os.urandom and hash() vary across "
        "processes and break seed-exact reproduction."
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        # The one module allowed to touch raw generators is rng.py itself.
        return not ctx.endswith("common/rng.py")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = imports.resolve(node.func)
            if target is None:
                continue
            message = self._judge(target)
            if message is not None:
                yield self.finding(ctx, node, message)

    @staticmethod
    def _judge(target: str) -> str | None:
        if target == "hash" or target == "builtins.hash":
            return (
                "hash() is randomized per interpreter (PYTHONHASHSEED); "
                "use zlib.crc32 as in repro.common.rng.stream_for"
            )
        if target.startswith("random."):
            return (
                f"{target}() draws from the global stdlib RNG; derive a "
                "generator via repro.common.rng (make_rng/stream_for)"
            )
        if target.startswith("numpy.random."):
            tail = target.rsplit(".", 1)[1]
            if tail not in _NUMPY_SEEDED_API:
                return (
                    f"{target}() uses numpy's legacy global RNG; use "
                    "numpy.random.default_rng via repro.common.rng"
                )
        if target in _UUID_NONDETERMINISTIC:
            return f"{target}() is non-deterministic; derive ids from the seed"
        if target == "os.urandom" or target.startswith("secrets."):
            return f"{target}() is an entropy source; simulation must be seeded"
        return None


class WallClockRule(Rule):
    """REP002: host-clock reads inside simulated packages."""

    rule_id = "REP002"
    name = "wall-clock-in-sim"
    severity = "error"
    rationale = (
        "faas/, training/, tuning/ and workflow/ run on the discrete-event "
        "clock; host-clock reads make results machine-dependent. Host-side "
        "instrumentation that is deliberate belongs in the lint baseline."
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_package(*_SIM_PACKAGES) and not ctx.in_package("benchmarks")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        imports = ImportMap(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = imports.resolve(node.func)
            if target in _CLOCK_CALLS:
                yield self.finding(
                    ctx,
                    node,
                    f"{target}() reads the host clock inside a simulated "
                    "package; use the event-loop clock (EventKernel.now)",
                )
