"""Custom AST lint: repo-specific rules the generic linters can't express.

``lint_path`` tests build throwaway package trees shaped like ``src/repro``
(a ``sim/`` subdirectory marks simulation modules), with one deliberately
bad module each — the wall-clock-in-sim fixture the acceptance criteria
require lives here. The C006 tests build a whole checkout instead
(``src/repro`` beside ``tests/``, ``benchmarks/`` and ``examples/``),
since that rule reads the sibling trees.
"""

import ast
from pathlib import Path

import pytest

from repro.check import check_source, lint_path, lint_source
from repro.check.code import unused_imports

REPO = Path(__file__).resolve().parents[2]


def _rule_ids(findings):
    return {f.rule_id for f in findings}


def _package(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "repro"
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return root


# ----------------------------------------------------------------------
# The real package is clean
# ----------------------------------------------------------------------
def test_repo_source_is_clean():
    root = REPO / "src" / "repro"
    report = check_source(root)
    assert report.findings == []
    assert any(path.endswith("core.py") for path in report.checked)


def test_tests_and_benchmarks_have_no_unused_imports():
    # C005 alone: C002 does not hold here, where parity tests compare
    # timestamps for exact equality on purpose.
    findings = []
    for tree in ("tests", "benchmarks"):
        for path in sorted((REPO / tree).rglob("*.py")):
            findings += unused_imports(ast.parse(path.read_text()),
                                       str(path))
    assert findings == []


# ----------------------------------------------------------------------
# C001: wall clock in simulation modules
# ----------------------------------------------------------------------
def test_wall_clock_in_sim_module_flagged_c001(tmp_path):
    root = _package(tmp_path, {"sim/core.py": (
        "import time\n"
        "def step():\n"
        "    return time.perf_counter()\n"
    )})
    findings, checked = lint_path(root)
    assert _rule_ids(findings) == {"C001"}
    assert "time.perf_counter" in findings[0].message
    assert len(checked) == 1


def test_aliased_and_from_imports_flagged_c001(tmp_path):
    root = _package(tmp_path, {"engine/executor.py": (
        "import time as clock\n"
        "from time import monotonic as mono\n"
        "def run():\n"
        "    return clock.time_ns() + mono()\n"
    )})
    findings, _ = lint_path(root)
    assert [f.rule_id for f in findings] == ["C001", "C001"]


def test_datetime_now_flagged_c001(tmp_path):
    root = _package(tmp_path, {"sim/clock.py": (
        "import datetime\n"
        "def stamp():\n"
        "    return datetime.datetime.now()\n"
    )})
    findings, _ = lint_path(root)
    assert _rule_ids(findings) == {"C001"}


def test_wall_clock_outside_sim_modules_allowed(tmp_path):
    root = _package(tmp_path, {"retrieval/fetch.py": (
        "import time\n"
        "def fetch():\n"
        "    return time.time()\n"
    )})
    findings, _ = lint_path(root)
    assert findings == []


# ----------------------------------------------------------------------
# C002: float equality on simulated timestamps
# ----------------------------------------------------------------------
def test_timestamp_equality_flagged_c002(tmp_path):
    root = _package(tmp_path, {"skip/metrics.py": (
        "def same(kernel, call):\n"
        "    return kernel.ts == call.ts_end\n"
    )})
    findings, _ = lint_path(root)
    assert _rule_ids(findings) == {"C002"}


def test_ns_suffix_names_flagged_c002():
    findings = lint_source(
        "def check(a, latency_ns):\n"
        "    return latency_ns != a\n",
        "inline.py")
    assert _rule_ids(findings) == {"C002"}


def test_ordering_comparisons_allowed():
    findings = lint_source(
        "def before(a, b):\n"
        "    return a.ts < b.ts <= b.ts_end\n",
        "inline.py")
    assert findings == []


def test_non_timestamp_equality_allowed():
    findings = lint_source("def eq(a, b):\n    return a.count == b.count\n",
                           "inline.py")
    assert findings == []


# ----------------------------------------------------------------------
# C003 / C004: process protocol
# ----------------------------------------------------------------------
def test_unknown_yield_verb_flagged_c003(tmp_path):
    # "acquire" and "release" were the verbs of the retired blocking
    # resource protocol; the core now rejects them like any other.
    for verb in ("sleep", "acquire", "release"):
        root = _package(tmp_path / verb, {"sim/procs.py": (
            "def bad_process(core):\n"
            f"    yield ('{verb}', 10.0)\n"
        )})
        findings, _ = lint_path(root)
        assert _rule_ids(findings) == {"C003"}
        assert f"'{verb}'" in findings[0].message


def test_bare_yield_flagged_c003(tmp_path):
    root = _package(tmp_path, {"sim/procs.py": (
        "def idle_process(core):\n"
        "    yield\n"
    )})
    findings, _ = lint_path(root)
    assert _rule_ids(findings) == {"C003"}


def test_yieldless_process_flagged_c004(tmp_path):
    root = _package(tmp_path, {"engine/procs.py": (
        "def dispatch_process(core):\n"
        "    return 42\n"
    )})
    findings, _ = lint_path(root)
    assert _rule_ids(findings) == {"C004"}


def test_well_formed_process_is_clean(tmp_path):
    root = _package(tmp_path, {"sim/procs.py": (
        "def tick_process(core):\n"
        "    yield ('at', 10.0)\n"
        "    yield ('join', 'barrier', 20.0)\n"
        "    request = ('at', 30.0)\n"
        "    yield request\n"
        "    yield from tick_process(core)\n"
    )})
    findings, _ = lint_path(root)
    assert findings == []


def test_process_rules_ignored_outside_sim_modules(tmp_path):
    root = _package(tmp_path, {"retrieval/text.py": (
        "def tokenize_process(text):\n"
        "    return text.split()\n"
    )})
    findings, _ = lint_path(root)
    assert findings == []


def test_syntax_error_reported_not_raised(tmp_path):
    root = _package(tmp_path, {"sim/broken.py": "def oops(:\n"})
    findings, _ = lint_path(root)
    assert len(findings) == 1
    assert "does not parse" in findings[0].message


# ----------------------------------------------------------------------
# C005: unused module-level imports
# ----------------------------------------------------------------------
def test_unused_import_flagged_c005(tmp_path):
    root = _package(tmp_path, {"serving/loop.py": (
        "from dataclasses import dataclass, field\n"
        "import os.path\n"
        "@dataclass\n"
        "class Row:\n"
        "    n: int = 0\n"
    )})
    findings, _ = lint_path(root)
    assert _rule_ids(findings) == {"C005"}
    assert sorted(f.location.rsplit(":", 1)[1] for f in findings) == [
        "1", "2"]
    assert {f.message.split()[0] for f in findings} == {"'field'", "'os'"}


def test_init_reexport_exempt_from_c005(tmp_path):
    root = _package(tmp_path, {"serving/__init__.py": (
        "from repro.serving.loop import Row, serve\n"
    )})
    findings, _ = lint_path(root)
    assert findings == []


def test_quoted_annotation_counts_as_use_c005():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.sim.core import SimCore\n"
        "    from repro.obs import RunRecorder\n"
        "    from repro.serving import Request\n"
        "def run(core: 'SimCore') -> 'list[RunRecorder]':\n"
        "    pending: \"dict[int, 'Request']\" = {}\n"
        "    return [pending]\n"
    )
    assert lint_source(source, "repro/serving/loop.py") == []


def test_all_and_attribute_reads_count_as_use_c005():
    source = (
        "import os.path\n"
        "from repro.obs import RunRecorder\n"
        "__all__ = ['RunRecorder']\n"
        "def where():\n"
        "    import sys\n"
        "    return os.path.sep\n"
    )
    assert lint_source(source, "repro/serving/loop.py") == []


# ----------------------------------------------------------------------
# C006: functions and classes nothing references
# ----------------------------------------------------------------------
def _checkout(tmp_path: Path, files: dict[str, str]) -> Path:
    """A checkout shaped like the repo's; returns its ``src/repro`` root."""
    for tree in ("tests", "benchmarks", "examples"):
        (tmp_path / tree).mkdir()
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path / "src" / "repro"


_USED = "from repro.sim.core import run\nrun()\n"


def test_self_referencing_definition_flagged_c006(tmp_path):
    root = _checkout(tmp_path, {
        "src/repro/sim/core.py": (
            "def run():\n"
            "    return countdown(3)\n"
            "def countdown(n):\n"
            "    return n if n == 0 else countdown(n - 1)\n"
            "class Node:\n"
            "    def clone(self) -> 'Node':\n"
            "        return Node()\n"),
        "tests/test_core.py": _USED,
    })
    findings, _ = lint_path(root)
    assert _rule_ids(findings) == {"C006"}
    assert sorted(f.message.split()[1] for f in findings) == [
        "'Node'", "'clone'"]


def test_reexport_and_all_are_no_reference_c006(tmp_path):
    root = _checkout(tmp_path, {
        "src/repro/sim/__init__.py": (
            "from repro.sim.core import Oracle, run\n"
            "__all__ = ['Oracle', 'run']\n"),
        "src/repro/sim/core.py": (
            "class Oracle:\n"
            "    pass\n"
            "def run():\n"
            "    return 1\n"),
        "tests/test_core.py": _USED,
    })
    findings, _ = lint_path(root)
    assert [(f.rule_id, f.location.rsplit(":", 1)[1]) for f in findings] == [
        ("C006", "1")]
    assert "'Oracle'" in findings[0].message


@pytest.mark.parametrize("tree", ["tests", "benchmarks", "examples"])
def test_reference_from_a_sibling_tree_keeps_a_definition_c006(tmp_path,
                                                               tree):
    root = _checkout(tmp_path, {
        "src/repro/sim/core.py": "def run():\n    return 1\n",
        f"{tree}/use.py": _USED,
    })
    assert lint_path(root)[0] == []


def test_string_constants_count_as_references_c006(tmp_path):
    root = _checkout(tmp_path, {
        "src/repro/sim/core.py": (
            "class Recorder:\n"
            "    def on_token(self):\n"
            "        return 1\n"
            "def run():\n"
            "    return 1\n"),
        "benchmarks/tracing.py": (
            "HOOKS = ('on_token',)\n"
            "TARGET = 'repro.sim.core.Recorder'\n"
            "ENTRY = 'repro.sim.core.run'\n"),
    })
    assert lint_path(root)[0] == []


def test_dunders_and_visitors_exempt_c006(tmp_path):
    root = _checkout(tmp_path, {
        "src/repro/check/walk.py": (
            "import ast\n"
            "class Walker(ast.NodeVisitor):\n"
            "    def __init__(self):\n"
            "        self.names = []\n"
            "    def __repr__(self):\n"
            "        return 'Walker'\n"
            "    def visit_Name(self, node):\n"
            "        self.names.append(node.id)\n"),
        "tests/test_walk.py": (
            "from repro.check.walk import Walker\n"
            "Walker().visit(None)\n"),
    })
    assert lint_path(root)[0] == []


def test_c006_needs_the_sibling_trees(tmp_path):
    # A package linted outside a checkout (an installed copy, or a
    # fixture tree) cannot see its tests, so the rule stays off.
    root = _package(tmp_path, {"sim/core.py": "def run():\n    return 1\n"})
    assert lint_path(root)[0] == []
    (tmp_path / "tests").mkdir()
    assert lint_path(root)[0] == []
