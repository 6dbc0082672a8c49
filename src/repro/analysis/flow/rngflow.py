"""RNG stream hygiene: label collisions and escaping generators.

Every random stream in the project comes from
``repro.common.rng.stream_for(seed, *labels)``, which hashes the label
tuple into a ``SeedSequence`` spawn key. Two call sites with *identical
fully-constant* label tuples therefore draw the **same** stream — two
subsystems consuming one sequence, the classic silent determinism break
(rule REP010, which also flags label-less calls: a stream that cannot be
distinguished from the root seed). Label tuples containing variables are
exempt — they are distinguished dynamically and REP010 cannot judge
them.

Rule REP011 flags ``Generator`` objects escaping into module globals —
a module-level ``RNG = stream_for(...)`` binding or a ``global``
rebind inside a function. Module-global generators are shared mutable
state: every caller in the process draws from one sequence, so a draw's
value depends on who else drew first. Streams must be created where
they are consumed and passed down explicitly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.core import ModuleContext
from repro.analysis.flow.symbols import (
    _FUNCTION_NODES,
    ModuleInfo,
    ProjectIndex,
)

Raw = tuple[ModuleContext, ast.AST, str]

#: Canonical names whose call results are RNG streams / generators.
_STREAM_FACTORY = "repro.common.rng.stream_for"
_GENERATOR_FACTORIES = frozenset(
    {
        _STREAM_FACTORY,
        "repro.common.rng.make_rng",
        "repro.common.rng.spawn",
        "numpy.random.default_rng",
    }
)


@dataclass(frozen=True, slots=True)
class StreamSite:
    """One ``stream_for`` call site and its static label signature."""

    ctx: ModuleContext
    node: ast.Call
    owner: str  # enclosing function qualname or "<module>" pseudo-name
    labels: tuple[str, ...]  # resolved constant labels, in order
    constant: bool  # True when every label resolved to a constant

    def sort_key(self) -> tuple[str, int, int]:
        return (self.ctx.relpath, self.node.lineno, self.node.col_offset)


def _is_factory(index: ProjectIndex, mod: ModuleInfo, call: ast.Call,
                class_name: str | None, wanted: str) -> bool:
    target, _ = index.resolve_call(mod, call, class_name)
    return target == wanted


def _label_signature(
    index: ProjectIndex, mod: ModuleInfo, call: ast.Call
) -> tuple[tuple[str, ...], bool]:
    labels: list[str] = []
    constant = True
    for arg in call.args[1:]:
        if isinstance(arg, ast.Starred):
            constant = False
            continue
        if isinstance(arg, ast.Constant) and isinstance(
            arg.value, (int, float)
        ):
            labels.append(repr(arg.value))
            continue
        resolved = index.constant_string(mod, arg)
        if resolved is None:
            constant = False
        else:
            labels.append(resolved)
    return tuple(labels), constant


def _function_scopes(
    mod: ModuleInfo,
) -> list[tuple[str, str | None, list[ast.stmt]]]:
    """(owner qualname, class name, body) for every scope in a module."""
    scopes: list[tuple[str, str | None, list[ast.stmt]]] = []
    for fn_name in sorted(mod.functions):
        fn = mod.functions[fn_name]
        scopes.append((fn.qualname, None, fn.node.body))
    for cls_name in sorted(mod.methods):
        for meth_name in sorted(mod.methods[cls_name]):
            fn = mod.methods[cls_name][meth_name]
            scopes.append((fn.qualname, cls_name, fn.node.body))
    module_body = [
        stmt
        for stmt in mod.ctx.tree.body
        if not isinstance(stmt, (*_FUNCTION_NODES, ast.ClassDef))
    ]
    scopes.append((f"{mod.name}.<module>", None, module_body))
    return scopes


def collect_stream_sites(index: ProjectIndex) -> list[StreamSite]:
    """Every ``stream_for`` call site in the project, sorted."""
    sites: list[StreamSite] = []
    for mod_name in sorted(index.modules):
        mod = index.modules[mod_name]
        for owner, class_name, body in _function_scopes(mod):
            for stmt in body:
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    if not _is_factory(
                        index, mod, node, class_name, _STREAM_FACTORY
                    ):
                        continue
                    labels, constant = _label_signature(index, mod, node)
                    sites.append(
                        StreamSite(
                            ctx=mod.ctx, node=node, owner=owner,
                            labels=labels, constant=constant,
                        )
                    )
    sites.sort(key=StreamSite.sort_key)
    return sites


def run_stream_hygiene(index: ProjectIndex) -> list[Raw]:
    """REP010: colliding constant label tuples and label-less streams."""
    findings: list[Raw] = []
    sites = collect_stream_sites(index)
    by_signature: dict[tuple[str, ...], list[StreamSite]] = {}
    for site in sites:
        if not site.node.args[1:]:
            findings.append(
                (
                    site.ctx,
                    site.node,
                    "stream_for() call without labels — the stream is "
                    "indistinguishable from the root seed; add a unique "
                    "label tuple naming the consumer",
                )
            )
            continue
        if site.constant:
            by_signature.setdefault(site.labels, []).append(site)
    for signature in sorted(by_signature):
        group = by_signature[signature]
        if len(group) < 2:
            continue
        where = ", ".join(
            f"{s.ctx.relpath}:{s.node.lineno}" for s in group
        )
        for site in group:
            findings.append(
                (
                    site.ctx,
                    site.node,
                    f"stream_for() label tuple {signature!r} is reused "
                    f"at {where} — identical constant labels draw the "
                    "same stream; make each call site's labels unique",
                )
            )
    findings.sort(key=lambda f: (f[0].relpath, f[1].lineno, f[1].col_offset))
    return findings


def run_generator_escape(index: ProjectIndex) -> list[Raw]:
    """REP011: RNG generators bound to module globals."""
    findings: list[Raw] = []
    for mod_name in sorted(index.modules):
        mod = index.modules[mod_name]
        for var_name in sorted(mod.globals):
            var = mod.globals[var_name]
            if isinstance(var.value, ast.Call) and _is_factory(
                index, mod, var.value, None, _STREAM_FACTORY
            ):
                findings.append(
                    (
                        mod.ctx,
                        var.node,
                        f'module global "{var.name}" holds an RNG '
                        "stream — generators are stateful and shared by "
                        "every caller; create the stream where it is consumed "
                        "and pass it down explicitly",
                    )
                )
            elif isinstance(var.value, ast.Call):
                target, _ = index.resolve_call(mod, var.value, None)
                if target in _GENERATOR_FACTORIES:
                    findings.append(
                        (
                            mod.ctx,
                            var.node,
                            f'module global "{var.name}" holds an RNG '
                            "generator — generators are stateful and shared "
                            "by every caller; create the generator where it "
                            "is consumed and pass it down explicitly",
                        )
                    )
        for owner, class_name, body in _function_scopes(mod):
            if owner.endswith(".<module>"):
                continue
            declared_global: set[str] = set()
            for stmt in body:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Global):
                        declared_global.update(node.names)
            if not declared_global:
                continue
            for stmt in body:
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Assign):
                        continue
                    names = {
                        t.id
                        for t in node.targets
                        if isinstance(t, ast.Name)
                    }
                    if not (names & declared_global):
                        continue
                    if isinstance(node.value, ast.Call):
                        target, _ = index.resolve_call(
                            mod, node.value, class_name
                        )
                        if target in _GENERATOR_FACTORIES:
                            findings.append(
                                (
                                    mod.ctx,
                                    node,
                                    "RNG generator rebound onto a module "
                                    f"global from {owner}() — module-"
                                    "global generators are shared state; "
                                    "thread the stream through call "
                                    "arguments instead",
                                )
                            )
    findings.sort(key=lambda f: (f[0].relpath, f[1].lineno, f[1].col_offset))
    return findings
