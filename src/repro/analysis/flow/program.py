"""Whole-program model: modules, symbols, references, call resolution.

:func:`build_program` parses every python file under the *target* paths
(where findings may be reported) plus any *reference* paths (tests,
benchmarks, examples — parsed so the analyses see the whole universe of
callers, but never flagged themselves). Dotted module names are derived
from the on-disk package structure (``src/repro/attack/algorithms.py`` →
``repro.attack.algorithms``), so resolution works the same for the
installed package and for throwaway fixture trees in tests.

The model is deliberately syntactic-plus: it indexes

* every top-level function and class method as a :class:`FunctionInfo`
  with a stable qualname (``repro.nn.module.Module.zero_grad``);
* every *name reference* in the program — ``ast.Name`` loads,
  ``ast.Attribute`` accesses, ``from x import y`` aliases and ``__all__``
  strings — which is what the dead-code rule consumes;
* per-module import aliases, reusing the walker's resolution helpers, so
  a call expression can be resolved to the project function it targets.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.walker import (
    canonical_call_name,
    collect_suppressions,
    import_aliases,
    iter_python_files,
)


@dataclasses.dataclass
class FunctionInfo:
    """One top-level function or class method."""

    qualname: str
    module: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    owner: str | None = None  # owning class name, if a method

    @property
    def lineno(self) -> int:
        return self.node.lineno

    @property
    def end_lineno(self) -> int:
        return self.node.end_lineno or self.node.lineno

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")

    def param_names(self) -> list[str]:
        args = self.node.args
        named = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        named += [a for a in (args.vararg, args.kwarg) if a is not None]
        return [a.arg for a in named]

    def param_annotations(self) -> dict[str, str]:
        """Map parameter name to the source text of its annotation."""
        args = self.node.args
        out: dict[str, str] = {}
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.annotation is not None:
                out[arg.arg] = ast.unparse(arg.annotation)
        return out


@dataclasses.dataclass
class ClassInfo:
    """One top-level class and its directly defined methods."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    methods: dict[str, FunctionInfo] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str
    path: Path
    display_path: str
    tree: ast.Module
    lines: list[str]
    suppressions: dict[int, set[str] | None]
    aliases: dict[str, str]
    is_target: bool
    functions: dict[str, FunctionInfo] = dataclasses.field(default_factory=dict)
    classes: dict[str, ClassInfo] = dataclasses.field(default_factory=dict)

    @property
    def path_parts(self) -> tuple[str, ...]:
        return self.path.parts


@dataclasses.dataclass(frozen=True)
class Reference:
    """One occurrence of a name somewhere in the program."""

    module: str
    line: int


class Program:
    """The whole-program index the flow rules operate on."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.references: dict[str, list[Reference]] = {}

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def target_modules(self) -> Iterator[ModuleInfo]:
        for name in sorted(self.modules):
            module = self.modules[name]
            if module.is_target:
                yield module

    def all_functions(self, module: ModuleInfo) -> Iterator[FunctionInfo]:
        """Top-level functions then methods, in definition order per scope."""
        yield from module.functions.values()
        for cls in module.classes.values():
            yield from cls.methods.values()

    def enclosing_function(self, module: ModuleInfo, line: int) -> FunctionInfo | None:
        """The innermost indexed function whose span contains ``line``."""
        best: FunctionInfo | None = None
        for fn in self.all_functions(module):
            if fn.lineno <= line <= fn.end_lineno:
                if best is None or fn.lineno >= best.lineno:
                    best = fn
        return best

    def resolve_call(
        self, module: ModuleInfo, call: ast.Call, cls: str | None = None
    ) -> FunctionInfo | None:
        """Resolve a call expression to the project function it targets.

        Handles local names, import aliases (``from repro.x import f``),
        dotted module access (``algorithms.train(...)``), and ``self.m()``
        within a method of class ``cls``. Returns ``None`` for anything
        the symbol table cannot prove (builtins, numpy, dynamic dispatch).
        """
        canonical = canonical_call_name(call, module.aliases)
        if canonical is None:
            return None
        if canonical.startswith("self.") and cls is not None:
            method = canonical[len("self."):]
            if "." not in method:
                return self.functions.get(f"{module.name}.{cls}.{method}")
            return None
        candidates = (canonical, f"{module.name}.{canonical}")
        for qualname in candidates:
            found = self.functions.get(qualname)
            if found is not None:
                return found
        return None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_module(self, path: Path, is_target: bool) -> None:
        try:
            source = path.read_bytes().decode("utf-8")
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, UnicodeDecodeError):
            # The per-file linter reports E999 for target files; the flow
            # layer just leaves broken files out of the universe.
            return
        lines = source.splitlines()
        name = _module_name(path)
        module = ModuleInfo(
            name=name,
            path=path,
            display_path=str(path),
            tree=tree,
            lines=lines,
            suppressions=collect_suppressions(lines),
            aliases=import_aliases(tree),
            is_target=is_target,
        )
        self._index_symbols(module)
        self.modules[module.name] = module
        for ref_name, line in _collect_references(module.tree):
            self.references.setdefault(ref_name, []).append(Reference(module.name, line))

    def _index_symbols(self, module: ModuleInfo) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qualname=f"{module.name}.{node.name}",
                    module=module.name,
                    name=node.name,
                    node=node,
                )
                module.functions[node.name] = info
                self.functions[info.qualname] = info
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(
                    qualname=f"{module.name}.{node.name}",
                    module=module.name,
                    name=node.name,
                    node=node,
                )
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        info = FunctionInfo(
                            qualname=f"{cls.qualname}.{item.name}",
                            module=module.name,
                            name=item.name,
                            node=item,
                            owner=node.name,
                        )
                        cls.methods[item.name] = info
                        self.functions[info.qualname] = info
                module.classes[node.name] = cls

def _collect_references(tree: ast.Module) -> list[tuple[str, int]]:
    """Every ``(name, line)`` reference in a module."""
    out: list[tuple[str, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.append((alias.name.split(".")[-1], node.lineno))
        elif isinstance(node, ast.Assign) and _is_dunder_all(node):
            for sub in ast.walk(node.value):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    out.append((sub.value, node.lineno))
    return out


def _is_dunder_all(node: ast.Assign) -> bool:
    return any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets
    )


def _module_name(path: Path) -> str:
    """Dotted module name derived from the enclosing package structure."""
    parts: list[str] = [] if path.name == "__init__.py" else [path.stem]
    current = path.resolve().parent
    while (current / "__init__.py").is_file():
        parts.insert(0, current.name)
        current = current.parent
    return ".".join(parts) if parts else path.stem


def build_parent_map(tree: ast.Module) -> dict[ast.AST, ast.AST]:
    """Map each AST node to its parent (the stdlib ast has no uplinks)."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def build_program(
    target_paths: Iterable[Path | str],
    reference_paths: Iterable[Path | str] = (),
) -> Program:
    """Parse and index targets plus the surrounding reference universe."""
    program = Program()
    seen: set[Path] = set()
    for path in iter_python_files(target_paths):
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            program.add_module(path, is_target=True)
    for path in iter_python_files(reference_paths):
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            program.add_module(path, is_target=False)
    return program
