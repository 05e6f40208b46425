"""Engine-level tests: multi-file rules, pragma filtering, scan semantics."""

from __future__ import annotations

import textwrap

import pytest

from repro_lint.config import LintConfig
from repro_lint.engine import lint_paths


def write(root, relpath, text):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


@pytest.fixture
def project(tmp_path):
    """An empty throwaway project rooted at ``tmp_path``."""
    config = LintConfig(root=tmp_path, paths=("src",))
    return tmp_path, config


class TestImportCycles:
    def test_module_level_cycle_is_reported(self, project):
        root, config = project
        write(
            root,
            "src/repro/a.py",
            """
            from repro.b import helper_b


            def helper_a():
                return helper_b() + 1
            """,
        )
        write(
            root,
            "src/repro/b.py",
            """
            from repro.a import helper_a


            def helper_b():
                return 0


            def round_trip():
                return helper_a()
            """,
        )
        result = lint_paths([], config)
        cycles = [f for f in result.findings if f.rule == "RL403"]
        assert len(cycles) == 1
        assert "repro.a" in cycles[0].message
        assert "repro.b" in cycles[0].message
        assert result.exit_code == 1

    def test_function_local_import_breaks_the_cycle(self, project):
        root, config = project
        write(
            root,
            "src/repro/a.py",
            """
            from repro.b import helper_b


            def helper_a():
                return helper_b() + 1
            """,
        )
        write(
            root,
            "src/repro/b.py",
            """
            def helper_b():
                return 0


            def round_trip():
                from repro.a import helper_a

                return helper_a()
            """,
        )
        result = lint_paths([], config)
        assert not [f for f in result.findings if f.rule == "RL403"]

    def test_type_checking_imports_break_the_cycle(self, project):
        # TYPE_CHECKING imports are erased at runtime: mutually
        # annotation-dependent modules are not a load-order cycle.
        root, config = project
        write(
            root,
            "src/repro/a.py",
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.b import B


            def make_a(b: "B"):
                return b
            """,
        )
        write(
            root,
            "src/repro/b.py",
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.a import make_a


            class B:
                def touch(self) -> "make_a":
                    return make_a
            """,
        )
        result = lint_paths([], config)
        assert not [f for f in result.findings if f.rule == "RL403"]


class TestScanScope:
    REGISTRY = """
    class EventKind:
        PROBE_TX = "probe_tx"
        GHOST = "ghost"


    def emit_probe(recorder, time_s):
        recorder.emit(EventKind.PROBE_TX, time_s)
    """

    def test_full_scan_reports_unemitted_kinds(self, project):
        root, config = project
        write(root, "src/repro/events.py", self.REGISTRY)
        result = lint_paths([], config)
        dead = [f for f in result.findings if f.rule == "RL201"]
        assert len(dead) == 1
        assert "GHOST" in dead[0].message

    def test_subset_scan_cannot_call_a_kind_dead(self, project):
        root, config = project
        write(root, "src/repro/events.py", self.REGISTRY)
        result = lint_paths(["src/repro/events.py"], config)
        assert not [f for f in result.findings if f.rule == "RL201"]

    def test_excluded_paths_are_not_scanned(self, project):
        root, config = project
        write(root, "src/repro/ok.py", "VALUE = 1\n")
        write(root, "tests/lint/fixtures/bad.py", "def f(x=[]):\n    return x\n")
        result = lint_paths(["src", "tests"], config)
        assert result.files_scanned == 1
        assert not result.findings

    def test_unparseable_file_is_an_error_not_a_crash(self, project):
        root, config = project
        write(root, "src/repro/broken.py", "def broken(:\n")
        result = lint_paths([], config)
        assert result.errors and result.errors[0][0] == "src/repro/broken.py"
        assert result.exit_code == 2

    def test_missing_target_raises(self, project):
        _, config = project
        with pytest.raises(FileNotFoundError):
            lint_paths(["src/no/such/dir"], config)


class TestFiltering:
    SOURCE = """
    def f(x=[], y_db=0.0):
        return 10.0 ** (y_db / 10.0)
    """

    def rules_for(self, config, root, source):
        write(root, "src/repro/sample.py", source)
        result = lint_paths([], config)
        return sorted(f.rule for f in result.findings)

    def test_unfiltered_reports_both_rules(self, project):
        root, config = project
        assert self.rules_for(config, root, self.SOURCE) == ["RL102", "RL301"]

    def test_pragma_excuses_only_the_rule_it_names(self, project):
        root, config = project
        source = self.SOURCE.replace(
            "y_db=0.0):", "y_db=0.0):  # repro-lint: disable=RL301"
        )
        assert self.rules_for(config, root, source) == ["RL102"]
