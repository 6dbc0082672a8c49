"""The determinism contract, checked on the source of ``src/repro``.

The paper's figures are reproduced from seeded runs on the kernel's
simulated clock, so each ``.py`` file under ``src/repro`` is parsed once
and held to six checks:

* REP001: randomness only through ``repro.common.rng`` (exempt itself):
  no global stdlib or legacy numpy RNG, ``uuid1``/``uuid4``,
  ``os.urandom``, ``secrets`` or ``hash()``.
* REP002: no host clock in ``_SIM_PACKAGES``; ``benchmarks`` is exempt.
* REP005: no bare ``except:``, and no ``except Exception`` or
  ``BaseException`` that does not re-raise.
* REP006: a dict literal with a versioned ``"schema"`` (a literal or a
  module constant) has exactly the keys ``SCHEMA_KEYS`` registers for it.
* REP007: no iteration over a set where the order reaches the output.
* REP014: no ``heapq`` mutator or ``PriorityQueue``: the event kernel's
  heap is the one event queue, and the run journal replays its order.

Calls resolve through each file's import aliases. The sanctioned sites
are ``ALLOWED``, each with its reason; an entry that no longer matches
fails too. The fixtures under ``tests/source_invariants/`` show each
check firing.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import Counter
from pathlib import Path

import pytest

from repro.common.schemas import SCHEMA_KEYS

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "source_invariants"

#: (package-relative path, check, stripped source line) -> why it is allowed.
ALLOWED = {
    ("repro/profiling/clock.py", "REP002", "return _time.perf_counter()"):
        "host_clock_s is the profiler's one host-clock read; it feeds wall-time "
        "reports only, never simulated time or cost",
    ("repro/kernel/core.py", "REP014", "heapq.heappush("):
        "EventKernel.schedule: the kernel's own heap is the one event queue",
    ("repro/kernel/core.py", "REP014", "heapq.heappop(self._heap)"):
        "EventKernel.run dispatches from the kernel's own heap",
}

_SIM_PACKAGES = frozenset({"faas", "training", "tuning", "workflow", "slo", "faults",
                           "profiling", "timeseries", "runs", "kernel"})
_CLOCK_CALLS = frozenset(
    [f"time.{f}{ns}" for f in ("time", "monotonic", "perf_counter", "process_time")
     for ns in ("", "_ns")]
    + ["datetime.datetime.now", "datetime.datetime.utcnow", "datetime.datetime.today",
       "datetime.date.today"])
#: numpy.random's seeded Generator API.
_SEEDED_NUMPY = frozenset({"default_rng", "Generator", "SeedSequence", "BitGenerator",
                           "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937"})
_QUEUE_CALLS = frozenset({"heapq.heappush", "heapq.heappop", "heapq.heapify", "heapq.heappushpop",
                          "heapq.heapreplace", "queue.PriorityQueue", "asyncio.PriorityQueue"})
_VERSIONED = re.compile(r"^[a-z][a-z0-9-]*/v\d+$")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_ORDERED_CONSUMERS = frozenset({"list", "tuple", "enumerate", "iter"})
_SET_METHODS = frozenset({"union", "difference", "intersection", "symmetric_difference", "copy"})


def _aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted target of every absolute import in ``tree``; a
    module import shadows a ``from`` import of the same local name."""
    objects: dict[str, str] = {}
    modules: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                modules[alias.asname or root] = alias.name if alias.asname else root
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                objects[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return {**objects, **modules}


def _resolve(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """The dotted name a Name/Attribute chain refers to: through an import
    alias, or a bare name as is; an attribute of anything else is None."""
    chain: list[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    if node.id in aliases:
        return ".".join([aliases[node.id], *reversed(chain)])
    return None if chain else node.id


def _call_check(target: str, relpath: str, dirs: set[str]) -> str | None:
    """The check a call to ``target`` fails in the file at ``relpath``."""
    if not relpath.endswith("common/rng.py") and (
        target in ("hash", "builtins.hash", "uuid.uuid1", "uuid.uuid4", "os.urandom")
        or target.startswith(("random.", "secrets."))
        or (target.startswith("numpy.random.")
            and target.rsplit(".", 1)[1] not in _SEEDED_NUMPY)
    ):
        return "REP001"
    if target in _CLOCK_CALLS and dirs & _SIM_PACKAGES and "benchmarks" not in dirs:
        return "REP002"
    if target in _QUEUE_CALLS:
        return "REP014"
    return None


def _swallows(handler: ast.ExceptHandler) -> bool:
    """A bare handler, or a broad one that does not re-raise."""
    if handler.type is None:
        return True
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    broad = any(isinstance(t, ast.Name) and t.id in ("Exception", "BaseException")
                for t in types)
    return broad and not any(isinstance(n, ast.Raise) for n in ast.walk(handler))


def _string_constants(tree: ast.Module) -> dict[str, str]:
    """Module-level ``NAME = "literal"`` (optionally annotated) bindings."""
    out: dict[str, str] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        if isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str):
            out.update((t.id, stmt.value.value) for t in targets if isinstance(t, ast.Name))
    return out


def _schema_problems(node: ast.Dict, constants: dict[str, str]) -> int:
    """How many ways a versioned document literal disagrees with the
    registry: unregistered (1), or missing keys and extra keys (1 each)."""
    schema_id, keys, literal_only = None, set(), True
    for key, value in zip(node.keys, node.values):
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            literal_only = False
            continue
        keys.add(key.value)
        if key.value != "schema":
            continue
        candidate = (
            value.value if isinstance(value, ast.Constant)
            else constants.get(value.id) if isinstance(value, ast.Name)
            else constants.get(value.attr) if isinstance(value, ast.Attribute)
            else None
        )
        if isinstance(candidate, str) and _VERSIONED.match(candidate):
            schema_id = candidate
    if schema_id is None:
        return 0
    expected = SCHEMA_KEYS.get(schema_id)
    if expected is None:
        return 1
    if not literal_only:
        return 0  # a ** spread: only registration can be checked
    return bool(expected - keys) + bool(keys - expected)


def _scope_walk(scope: ast.AST):
    """The nodes of ``scope``, yielding nested functions without their bodies."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _is_set_annotation(ann: ast.expr) -> bool:
    if isinstance(ann, ast.Subscript):
        ann = ann.value
    if isinstance(ann, ast.Attribute):
        return ann.attr in ("Set", "FrozenSet")
    return isinstance(ann, ast.Name) and ann.id in ("set", "frozenset", "Set", "FrozenSet")


def _is_set(node: ast.expr, names: frozenset[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Call):
        return _call_name(node) in ("set", "frozenset") or (
            isinstance(node.func, ast.Attribute) and node.func.attr in _SET_METHODS
            and _is_set(node.func.value, names)
        )
    return isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ) and (_is_set(node.left, names) or _is_set(node.right, names))


def _set_names(scope: ast.AST) -> frozenset[str]:
    """Names that every binding directly in ``scope`` binds to a set."""
    is_set: dict[str, bool] = {}

    def mark(name: str, setlike: bool) -> None:
        is_set[name] = setlike and is_set.get(name, True)

    if isinstance(scope, _FUNCTIONS):
        a = scope.args
        for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs):
            if arg.annotation is not None and _is_set_annotation(arg.annotation):
                mark(arg.arg, True)
    for node in _scope_walk(scope):
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    mark(t.id, _is_set(node.value, frozenset()))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if _is_set_annotation(node.annotation):
                mark(node.target.id, True)
            elif node.value is not None:
                mark(node.target.id, _is_set(node.value, frozenset()))
    return frozenset(name for name, ok in is_set.items() if ok)


def _set_iterations(scope: ast.AST, outer: frozenset[str] = frozenset()):
    """Lines where ``scope`` iterates a set into an ordered result."""
    names = outer | _set_names(scope)
    for node in _scope_walk(scope):
        if isinstance(node, _FUNCTIONS):
            yield from _set_iterations(node, names)
        elif isinstance(node, ast.For) and _is_set(node.iter, names):
            yield node.lineno
        elif isinstance(node, _COMPREHENSIONS):
            yield from (node.lineno for g in node.generators if _is_set(g.iter, names))
        elif (isinstance(node, ast.Call) and node.args and _is_set(node.args[0], names)
              and (_call_name(node) in _ORDERED_CONSUMERS
                   or isinstance(node.func, ast.Attribute) and node.func.attr == "join")):
            yield node.lineno


def findings(source: str, relpath: str) -> list[tuple[str, int]]:
    """Every (check, line) that ``source``, located at ``relpath`` in the
    package layout, fails."""
    tree = ast.parse(source)
    dirs = set(relpath.split("/")[:-1])
    aliases, constants = _aliases(tree), _string_constants(tree)
    out = [("REP007", line) for line in _set_iterations(tree)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            target = _resolve(node.func, aliases)
            check = target and _call_check(target, relpath, dirs)
            if check:
                out.append((check, node.lineno))
        elif isinstance(node, ast.ExceptHandler) and _swallows(node):
            out.append(("REP005", node.lineno))
        elif isinstance(node, ast.Dict):
            out.extend([("REP006", node.lineno)] * _schema_problems(node, constants))
    return sorted(out)


@functools.cache
def scan(root: Path) -> tuple[tuple[str, str, str], ...]:
    """(path relative to ``root``'s parent, check, stripped line) of every
    finding in the ``.py`` files under ``root``."""
    out = []
    for path in sorted(root.rglob("*.py")):
        relpath = path.relative_to(root.parent).as_posix()
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        out += [(relpath, check, lines[line - 1].strip())
                for check, line in findings(source, relpath)]
    return tuple(out)


#: check -> the least findings its bad.py fixture must give.
BAD_MINIMUM = {"REP001": 5, "REP002": 3, "REP005": 2, "REP006": 2, "REP007": 3, "REP014": 4}


def _fixture_checks(check: str, bad: bool) -> list[str]:
    """The checks failed by ``check``'s bad.py, or by its other fixtures."""
    return [c for path, c, _ in scan(FIXTURES)
            if path.startswith(f"source_invariants/{check.lower()}/")
            and path.endswith("bad.py") == bad]


class TestFixtures:
    @pytest.mark.parametrize("check", sorted(BAD_MINIMUM))
    def test_bad_fixture_fails_only_its_own_check(self, check):
        bad = _fixture_checks(check, bad=True)
        assert set(bad) == {check}
        assert len(bad) >= BAD_MINIMUM[check]

    @pytest.mark.parametrize("check", sorted(BAD_MINIMUM))
    def test_good_fixtures_are_clean(self, check):
        assert len(list((FIXTURES / check.lower()).rglob("*.py"))) >= 2
        assert _fixture_checks(check, bad=False) == []


_CLOCK = "import time\nstart = time.perf_counter()\n"
_LEGACY_RNG = "import numpy as np\nx = np.random.rand()\n"
_TRY = "try:\n    pass\nexcept {}:\n    {}\n"
#: case -> (source, its path in the package layout, the checks it fails).
CASES = {
    "rng-module-exempt": (_LEGACY_RNG, "repro/common/rng.py", []),
    "legacy-numpy-rng": (_LEGACY_RNG, "repro/faas/worker.py", ["REP001"]),
    "alias-resolved": ("import numpy.random as nr\nx = nr.rand()\n", "repro/m.py", ["REP001"]),
    "from-import-alias": ("from random import shuffle as mix\nmix([])\n", "repro/m.py",
                          ["REP001"]),
    "default-rng-allowed": ("import numpy as np\nrng = np.random.default_rng(0)\nrng.normal()\n",
                            "repro/m.py", []),
    "clock-outside-sim": (_CLOCK, "repro/telemetry/timer.py", []),
    "clock-in-sim": (_CLOCK, "repro/faas/clock.py", ["REP002"]),
    "benchmarks-exempt": (_CLOCK, "repro/faas/benchmarks/timer.py", []),
    "bare-except": (_TRY.format("", "pass"), "repro/m.py", ["REP005"]),
    "broad-in-tuple": (_TRY.format(" (ValueError, Exception)", "pass"), "repro/m.py", ["REP005"]),
    "reraise-allowed": (_TRY.format(" Exception", "raise"), "repro/m.py", []),
    "sorted-set-allowed": ("s = {1, 2}\nout = [x for x in sorted(s)]\n", "repro/m.py", []),
    "membership-allowed": ("s = {1, 2}\nok = 1 in s\nn = len(s)\n", "repro/m.py", []),
    "annotated-set-argument": ("def f(s: set[int]):\n    return list(s)\n", "repro/m.py",
                               ["REP007"]),
    "rebound-name-not-a-set": ("s = {1}\ns = [1]\nout = list(s)\n", "repro/m.py", []),
    "schema-constant-missing-keys": ('V = "repro-telemetry/v1"\nd = {"schema": V, "meta": {}}\n',
                                     "repro/m.py", ["REP006"]),
    "schema-spread-unchecked": ('d = {"schema": "repro-slo/v1", **extra}\n', "repro/m.py", []),
    "heap-selection-allowed": ("import heapq\nheapq.nsmallest(2, [3, 1])\n", "repro/m.py", []),
}


@pytest.mark.parametrize("case", list(CASES))
def test_check_cases(case):
    source, relpath, expected = CASES[case]
    assert [check for check, _ in findings(source, relpath)] == expected


class TestSourceTree:
    def test_only_allowlisted_sites_fail_a_check(self):
        unlisted = [f for f in scan(SRC) if f not in ALLOWED]
        assert unlisted == [], "\n".join(" ".join(f) for f in unlisted)

    def test_every_allowlist_entry_still_matches_once(self):
        counts = Counter(scan(SRC))
        assert {site: counts[site] for site in ALLOWED} == dict.fromkeys(ALLOWED, 1)
