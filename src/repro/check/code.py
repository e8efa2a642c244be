"""Custom AST lint pass: repo-specific rules over ``src/repro``.

Generic linters cannot know this repo's invariants, so this pass encodes
them directly:

* **C001** — simulation code must be deterministic and replayable, so the
  wall clock is banned inside ``repro.sim``, ``repro.engine``, and
  ``repro.kvcache`` (``time.time``/``perf_counter``/``monotonic``/...,
  ``datetime.now``). Simulated time is the only clock those layers may
  read.
* **C002** — simulated timestamps are floats accumulated over millions of
  additions; ``==``/``!=`` on them is a latent heisenbug. Comparing any
  timestamp-named expression (``ts``, ``ts_end``, ``now``, ``free_at``, or
  any ``*_ns`` name) for equality is banned everywhere in the package —
  use ordering comparisons or ``math.isclose``.
* **C003** — generator processes speak a fixed-verb protocol with
  :class:`repro.sim.SimCore`; in simulation modules, every ``yield``
  inside a ``*_process`` function must be a tuple literal whose first
  element is ``"at"`` or ``"join"``, so a malformed request fails the
  lint rather than a run.
* **C004** — a simulation-module function named ``*_process`` that never
  yields is not a generator and would be driven to nothing by the core.
* **C005** — a module-level import that nothing in the module reads is
  dead weight, and the lint job's ruff F401 fails on it. A name counts as
  read when an expression loads it, ``__all__`` lists it, or a quoted
  annotation names it. ``__init__.py`` files are exempt, as in ruff's
  per-file ignores in ``pyproject.toml``: they re-export their
  submodules' names. :func:`unused_imports` applies the rule alone, for
  trees such as ``tests/`` where the other rules do not hold.

The pass walks real files (``lint_path``) so tests can point it at fixture
trees with deliberately bad modules.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

from repro.check.findings import Finding, Severity, register_rule

C001 = register_rule(
    "C001", "code", "wall-clock call inside a simulation module")
C002 = register_rule(
    "C002", "code", "float equality on a simulated timestamp")
C003 = register_rule(
    "C003", "code", "process yields a malformed scheduler request")
C004 = register_rule(
    "C004", "code", "*_process function contains no yield")
C005 = register_rule(
    "C005", "code", "unused module-level import")

#: Module path prefixes (relative to the package root) where the wall
#: clock is banned: everything the deterministic simulation touches.
SIM_MODULE_PREFIXES = ("sim", "engine", "kvcache")

#: Wall-clock callables, as (module alias target, attribute) pairs.
_WALL_CLOCK_TIME = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
})
_WALL_CLOCK_DATETIME = frozenset({"now", "utcnow", "today"})

#: Expression names treated as simulated timestamps for C002.
_TIMESTAMP_NAMES = frozenset({"ts", "ts_end", "now", "free_at"})

#: Request verbs the simulation core understands (mirrors SimCore._handle).
_REQUEST_VERBS = frozenset({"at", "join"})


def _is_timestamp_name(node: ast.expr) -> str | None:
    """The timestamp-like identifier an expression reads, if any."""
    name = None
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    if name is not None and (name in _TIMESTAMP_NAMES
                             or name.endswith("_ns")):
        return name
    return None


class _ModuleLinter(ast.NodeVisitor):
    """Lints one parsed module."""

    def __init__(self, where: str, in_sim_module: bool) -> None:
        self.where = where
        self.in_sim_module = in_sim_module
        self.findings: list[Finding] = []
        #: Local aliases of the time/datetime modules and of their
        #: wall-clock functions, tracked from import statements.
        self._time_aliases: set[str] = set()
        self._datetime_aliases: set[str] = set()
        self._direct_clock_names: set[str] = set()

    def _at(self, node: ast.AST) -> str:
        return f"{self.where}:{getattr(node, 'lineno', '?')}"

    # -- import tracking -------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            target = alias.asname or alias.name
            if alias.name == "time":
                self._time_aliases.add(target)
            elif alias.name == "datetime":
                self._datetime_aliases.add(target)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            target = alias.asname or alias.name
            if node.module == "time" and alias.name in _WALL_CLOCK_TIME:
                self._direct_clock_names.add(target)
            elif node.module == "datetime" and alias.name == "datetime":
                self._datetime_aliases.add(target)
        self.generic_visit(node)

    # -- C001: wall-clock calls ------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        if self.in_sim_module:
            clock = self._wall_clock_callee(node.func)
            if clock is not None:
                self.findings.append(Finding(
                    C001, Severity.ERROR, self._at(node),
                    f"wall-clock call {clock}() in a simulation module; "
                    f"simulated time is the only clock sim/engine code "
                    f"may read"))
        self.generic_visit(node)

    def _wall_clock_callee(self, func: ast.expr) -> str | None:
        if isinstance(func, ast.Name) and func.id in self._direct_clock_names:
            return func.id
        if not isinstance(func, ast.Attribute):
            return None
        owner = func.value
        if isinstance(owner, ast.Name):
            if (owner.id in self._time_aliases
                    and func.attr in _WALL_CLOCK_TIME):
                return f"{owner.id}.{func.attr}"
            if (owner.id in self._datetime_aliases
                    and func.attr in _WALL_CLOCK_DATETIME):
                return f"{owner.id}.{func.attr}"
        # datetime.datetime.now(...) spelled through the module.
        if (isinstance(owner, ast.Attribute)
                and isinstance(owner.value, ast.Name)
                and owner.value.id in self._datetime_aliases
                and func.attr in _WALL_CLOCK_DATETIME):
            return f"{owner.value.id}.{owner.attr}.{func.attr}"
        return None

    # -- C002: float equality on timestamps ------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            name = _is_timestamp_name(left) or _is_timestamp_name(right)
            if name is not None:
                verb = "==" if isinstance(op, ast.Eq) else "!="
                self.findings.append(Finding(
                    C002, Severity.ERROR, self._at(node),
                    f"float {verb} on simulated timestamp {name!r}; use an "
                    f"ordering comparison or math.isclose"))
        self.generic_visit(node)

    # -- C003/C004: process protocol -------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_process(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.generic_visit(node)

    def _check_process(self, node: ast.FunctionDef) -> None:
        # Generator processes live in the simulation layers; elsewhere a
        # *_process name is just a name (e.g. a text-processing helper).
        if not self.in_sim_module or not node.name.endswith("_process"):
            return
        yields = [n for n in ast.walk(node)
                  if isinstance(n, (ast.Yield, ast.YieldFrom))]
        if not yields:
            self.findings.append(Finding(
                C004, Severity.ERROR, self._at(node),
                f"{node.name} is named like a process but never yields; "
                f"the simulation core would drive it to nothing"))
            return
        for item in yields:
            if isinstance(item, ast.YieldFrom):
                continue  # delegation inherits the delegate's requests
            request = item.value
            if request is None:
                self._bad_request(item, node.name, "bare yield")
            elif isinstance(request, ast.Tuple):
                if not request.elts:
                    self._bad_request(item, node.name, "empty tuple")
                    continue
                verb = request.elts[0]
                if (isinstance(verb, ast.Constant)
                        and isinstance(verb.value, str)
                        and verb.value not in _REQUEST_VERBS):
                    self._bad_request(
                        item, node.name, f"unknown verb {verb.value!r}")
            # Non-tuple yields (a variable holding a request) are allowed;
            # only literal requests are statically checkable.

    def _bad_request(self, node: ast.AST, func: str, what: str) -> None:
        self.findings.append(Finding(
            C003, Severity.ERROR, self._at(node),
            f"{func} yields a malformed scheduler request ({what}); "
            f"processes must yield ('at', t) or ('join', rdv, ready)"))


def _module_level(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements run at import time: the module body and the bodies of
    its top-level ``if``/``try``/``with`` blocks, not functions or classes."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try, ast.With)):
            for field in ("body", "orelse", "finalbody"):
                yield from _module_level(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                yield from _module_level(handler.body)


def _quoted_names(annotation: ast.expr | None, names: set[str]) -> None:
    """Add the names read by the quoted parts of ``annotation``."""
    if annotation is None:
        return
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(quoted)
                         if isinstance(n, ast.Name))
            _quoted_names(quoted.body, names)


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, lists in ``__all__``, or quotes in an
    annotation."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets):
                names.update(n.value for n in ast.walk(node.value)
                             if isinstance(n, ast.Constant)
                             and isinstance(n.value, str))
        elif isinstance(node, ast.arg):
            _quoted_names(node.annotation, names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _quoted_names(node.returns, names)
        elif isinstance(node, ast.AnnAssign):
            _quoted_names(node.annotation, names)
    return names


def unused_imports(tree: ast.Module, where: str) -> list[Finding]:
    """C005 findings for one parsed module at path ``where``."""
    if Path(where).name == "__init__.py":
        return []
    imported: dict[str, ast.alias] = {}
    for node in _module_level(tree.body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = alias
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = alias
    read = _read_names(tree)
    return [Finding(C005, Severity.ERROR, f"{where}:{alias.lineno}",
                    f"{name!r} is imported but never used")
            for name, alias in imported.items() if name not in read]


def _module_parts(path: Path, root: Path) -> tuple[str, ...]:
    """Module path parts relative to the package root directory."""
    return path.relative_to(root).with_suffix("").parts


def lint_source(source: str, where: str,
                in_sim_module: bool = False) -> list[Finding]:
    """Lint one module's source text."""
    try:
        tree = ast.parse(source, filename=where)
    except SyntaxError as exc:
        return [Finding(C003, Severity.ERROR, f"{where}:{exc.lineno}",
                        f"module does not parse: {exc.msg}")]
    linter = _ModuleLinter(where, in_sim_module)
    linter.visit(tree)
    return linter.findings + unused_imports(tree, where)


def lint_path(root: str | Path) -> tuple[list[Finding], list[str]]:
    """Lint every ``*.py`` file under ``root`` (a package directory).

    Returns the findings plus the list of files checked. A file belongs to
    a simulation module when its path relative to ``root`` starts with one
    of :data:`SIM_MODULE_PREFIXES` — point ``root`` at ``src/repro`` (or a
    fixture tree shaped like it).
    """
    root = Path(root)
    findings: list[Finding] = []
    checked: list[str] = []
    for path in sorted(root.rglob("*.py")):
        parts = _module_parts(path, root)
        in_sim = parts[0] in SIM_MODULE_PREFIXES if parts else False
        findings.extend(lint_source(path.read_text(), str(path), in_sim))
        checked.append(str(path))
    return findings, checked
