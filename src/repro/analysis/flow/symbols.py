"""Project-wide symbol table for the interprocedural flow passes.

The per-file rules (REP001–REP008) see one module at a time; the flow
passes need to know *what a dotted name means anywhere in the project*:
which module defines ``run_training``, what ``from repro.profiling import
host_clock_s`` re-exports, which class a ``self.plan(...)`` call lands on.
:class:`ProjectIndex` builds that table once from the parsed
:class:`~repro.analysis.core.ModuleContext` list — functions and methods
by qualified name, module-level globals with their value expressions,
string constants, and each module's import-alias map — and resolves call
expressions against it.

Everything is built in sorted-module order from dict/list structures
only, so two builds over the same tree are identical and every document
derived from the index (call graph, findings) is byte-stable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.core import ModuleContext
from repro.analysis.imports import ImportMap

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Value shapes a module-level global can take, as classified by
#: :func:`value_shape`. "mutable_literal" covers dict/list/set literals
#: and comprehensions; "instance" is a call to a (probable) class;
#: "alias" is a bare name reference to another module-level binding.
VALUE_SHAPES = (
    "constant", "tuple", "frozen", "mutable_literal", "instance",
    "call", "alias", "other",
)

#: Constructor names whose results are mutable containers.
_MUTABLE_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "bytearray", "defaultdict", "deque", "Counter",
     "OrderedDict"}
)

#: Constructor names whose results are immutable.
_FROZEN_CONSTRUCTORS = frozenset({"frozenset", "tuple", "compile"})


def module_name_of(ctx: ModuleContext) -> str:
    """Dotted module name for a context (``repro/faas/platform.py`` ->
    ``repro.faas.platform``; package ``__init__`` files name the package)."""
    parts = ctx.parts
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def value_shape(node: ast.expr | None) -> str:
    """Coarse classification of a module-level assignment's value."""
    if node is None:
        return "other"
    if isinstance(node, ast.Constant):
        return "constant"
    if isinstance(node, ast.Tuple):
        return "tuple"
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return "mutable_literal"
    if isinstance(node, ast.Name):
        return "alias"
    if isinstance(node, ast.Call):
        root = node.func
        while isinstance(root, ast.Attribute):
            root = root.value  # type: ignore[assignment]
        name = node.func.attr if isinstance(node.func, ast.Attribute) else (
            root.id if isinstance(root, ast.Name) else ""
        )
        if name in _FROZEN_CONSTRUCTORS:
            return "frozen"
        if name in _MUTABLE_CONSTRUCTORS:
            return "mutable_literal"
        if name[:1].isupper():
            return "instance"
        return "call"
    return "other"


@dataclass(slots=True)
class FunctionInfo:
    """One function or method, addressable project-wide."""

    qualname: str  # "repro.tuning.sha.SHARunner.run" / "repro.common.rng.make_rng"
    module: str
    name: str
    class_name: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    ctx: ModuleContext


@dataclass(slots=True)
class GlobalVar:
    """One module-level assignment to a plain name."""

    qualname: str
    module: str
    name: str
    value: ast.expr | None
    shape: str  # one of VALUE_SHAPES
    lineno: int
    col: int
    ctx: ModuleContext
    node: ast.stmt


@dataclass(slots=True)
class ModuleInfo:
    """Everything the flow passes need to know about one module."""

    name: str
    ctx: ModuleContext
    imports: ImportMap
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    methods: dict[str, dict[str, FunctionInfo]] = field(default_factory=dict)
    classes: dict[str, ast.ClassDef] = field(default_factory=dict)
    globals: dict[str, GlobalVar] = field(default_factory=dict)
    constants: dict[str, str] = field(default_factory=dict)


class ProjectIndex:
    """The whole analyzed tree, resolvable by dotted name.

    ``modules`` maps dotted module names to :class:`ModuleInfo`;
    ``functions`` maps fully-qualified function/method names to
    :class:`FunctionInfo`; ``classes`` maps qualified class names to
    their defining module. All iteration orders are sorted.
    """

    def __init__(self, contexts: Sequence[ModuleContext]) -> None:
        self.contexts: list[ModuleContext] = sorted(
            contexts, key=lambda c: c.relpath
        )
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, str] = {}  # class qualname -> module name
        self.by_path: dict[str, ModuleContext] = {}
        for ctx in self.contexts:
            self._index_module(ctx)

    # ------------------------------------------------------------ building
    def _index_module(self, ctx: ModuleContext) -> None:
        name = module_name_of(ctx)
        info = ModuleInfo(name=name, ctx=ctx, imports=ImportMap(ctx.tree))
        for stmt in ctx.tree.body:
            if isinstance(stmt, _FUNCTION_NODES):
                fn = FunctionInfo(
                    qualname=f"{name}.{stmt.name}", module=name,
                    name=stmt.name, class_name=None, node=stmt, ctx=ctx,
                )
                info.functions[stmt.name] = fn
                self.functions[fn.qualname] = fn
            elif isinstance(stmt, ast.ClassDef):
                info.classes[stmt.name] = stmt
                self.classes[f"{name}.{stmt.name}"] = name
                methods: dict[str, FunctionInfo] = {}
                for sub in stmt.body:
                    if isinstance(sub, _FUNCTION_NODES):
                        fn = FunctionInfo(
                            qualname=f"{name}.{stmt.name}.{sub.name}",
                            module=name, name=sub.name,
                            class_name=stmt.name, node=sub, ctx=ctx,
                        )
                        methods[sub.name] = fn
                        self.functions[fn.qualname] = fn
                info.methods[stmt.name] = methods
            else:
                self._index_assignment(info, stmt)
        self.modules[name] = info
        self.by_path[ctx.relpath] = ctx

    def _index_assignment(self, info: ModuleInfo, stmt: ast.stmt) -> None:
        targets: list[ast.Name] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            targets = [stmt.target]
            value = stmt.value
        for target in targets:
            if target.id not in info.globals:  # first binding wins
                info.globals[target.id] = GlobalVar(
                    qualname=f"{info.name}.{target.id}",
                    module=info.name, name=target.id, value=value,
                    shape=value_shape(value), lineno=stmt.lineno,
                    col=stmt.col_offset, ctx=info.ctx, node=stmt,
                )
            if (
                isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                info.constants[target.id] = value.value

    # ---------------------------------------------------------- resolution
    def canonicalize(self, dotted: str) -> str:
        """Follow re-export chains to a defining module.

        ``repro.profiling.host_clock_s`` (imported into the package
        ``__init__`` from ``repro.profiling.clock``) canonicalizes to
        ``repro.profiling.clock.host_clock_s``. Names a module defines
        itself are left alone; cycles terminate via a visited set.
        """
        seen: set[str] = set()
        cur = dotted
        while cur not in seen:
            seen.add(cur)
            head, _, tail = cur.rpartition(".")
            mod = self.modules.get(head)
            if mod is None:
                break
            if tail in mod.functions or tail in mod.classes or tail in mod.globals:
                break
            target = mod.imports.objects.get(tail)
            if target is None or target == cur:
                break
            cur = target
        return cur

    def resolve_call(
        self,
        mod: ModuleInfo,
        call: ast.Call,
        class_name: str | None = None,
    ) -> tuple[str | None, bool]:
        """``(dotted target, is_internal)`` for one call expression.

        Internal targets are qualified names present in ``functions`` or
        ``classes``; external targets are fully-dotted library names
        (``time.perf_counter``). Unresolvable callees — attribute calls
        on arbitrary objects — return ``(None, False)``.
        """
        dotted = mod.imports.resolve(call.func)
        if dotted is not None:
            if "." not in dotted:
                local = mod.functions.get(dotted)
                if local is not None:
                    return local.qualname, True
                if dotted in mod.classes:
                    return f"{mod.name}.{dotted}", True
                return dotted, False  # builtin or unknown bare name
            canon = self.canonicalize(dotted)
            if canon in self.functions or canon in self.classes:
                return canon, True
            # Method on an imported class: "mod.Class.method".
            head, _, tail = canon.rpartition(".")
            if head in self.classes:
                owner = self.modules[self.classes[head]]
                cls = head.rsplit(".", 1)[1]
                if tail in owner.methods.get(cls, {}):
                    return f"{head}.{tail}", True
            return canon, False
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and class_name is not None
        ):
            method = mod.methods.get(class_name, {}).get(func.attr)
            if method is not None:
                return method.qualname, True
        return None, False

    def constant_string(self, mod: ModuleInfo, node: ast.expr) -> str | None:
        """A string literal, module constant, or imported constant value."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        name: str | None = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is None:
            return None
        if name in mod.constants:
            return mod.constants[name]
        dotted = mod.imports.resolve(node)
        if dotted is None:
            return None
        canon = self.canonicalize(dotted)
        head, _, tail = canon.rpartition(".")
        owner = self.modules.get(head)
        if owner is not None:
            return owner.constants.get(tail)
        return None
