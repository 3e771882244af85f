"""Tests for the interprocedural reprolint layer: effect summaries,
the project call graph, R113 lock/blocking discipline, R120
exception-contract flow, summary-cache invalidation, and
``--explain``."""

import ast
import textwrap
from pathlib import Path

from tools.reprolint import lint_paths, main as reprolint_main
from tools.reprolint.callgraph import build_call_graph
from tools.reprolint.config import Config, load_config
from tools.reprolint.cycles import module_name_for
from tools.reprolint.reporters import render_text
from tools.reprolint.summaries import (extract_summaries,
                                       function_hashes,
                                       parse_docstring_raises)

REPO_ROOT = Path(__file__).resolve().parent.parent

ERRORS_MODULE = """\
    class ReproError(Exception):
        pass

    class ValidationError(ReproError):
        pass

    class ShapeError(ValidationError):
        pass

    class ConvergenceError(ReproError):
        pass
    """


def write(tmp_path, source, *, filename="mod.py"):
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def codes(result):
    return [violation.rule for violation in result.violations]


def lint_tree(tmp_path, select, **kwargs):
    return lint_paths([str(tmp_path)], config=Config(root=tmp_path),
                      select=select, **kwargs)


class TestSummaries:
    def test_parse_docstring_raises(self):
        has_section, names = parse_docstring_raises(textwrap.dedent(
            """\
            Do a thing.

            Raises:
                ValidationError: when the input is bad,
                    over two lines.
                ~repro.errors.ShapeError: on shape trouble.
            """))
        assert has_section
        assert names == ["ValidationError", "ShapeError"]

    def test_no_section(self):
        assert parse_docstring_raises("Just a summary.") == (False, [])
        assert parse_docstring_raises(None) == (False, [])

    def test_summary_hash_tracks_only_effects(self):
        base = extract_summaries(ast.parse(textwrap.dedent("""\
            import time

            def f():
                time.sleep(1)
            """)))
        same = extract_summaries(ast.parse(textwrap.dedent("""\
            import time

            def f():
                time.sleep(1)
            """)))
        changed = extract_summaries(ast.parse(textwrap.dedent("""\
            import time

            def f():
                x = 0
                time.sleep(1)
            """)))
        assert function_hashes(base) == function_hashes(same)
        # The extra binding does not change effects, but blocking line
        # numbers move, so the hash legitimately changes.
        assert function_hashes(base) != function_hashes(changed)

    def test_locks_and_blocking_recorded(self):
        summaries = extract_summaries(ast.parse(textwrap.dedent("""\
            import threading
            import time

            LOCK = threading.Lock()

            def f():
                with LOCK:
                    time.sleep(1)
            """)))
        summary = summaries["functions"]["f"]
        assert summary["locks"] == ["g:LOCK"]
        assert summary["blocking"][0]["held"] == ["g:LOCK"]


class TestCallGraphResolution:
    def test_real_tree_serving_resolves_into_linalg(self):
        """The acceptance criterion: serving/ calls resolve through
        ImportMap into linalg/ on the real tree."""
        package_roots = {"repro": "src/repro"}
        records = {}
        for rel in ("src/repro/serving/writer.py",
                    "src/repro/linalg/operator.py",
                    "src/repro/utils/validation.py",
                    "src/repro/errors.py"):
            tree = ast.parse((REPO_ROOT / rel).read_text())
            module = module_name_for(rel, package_roots)

            class _Record:
                pass

            record = _Record()
            record.summaries = extract_summaries(tree, module)
            record.imports = ()
            records[rel] = record
        graph = build_call_graph(records, package_roots)
        fid = "repro.serving.writer.IndexWriter.add_documents"
        assert fid in graph.functions
        resolved = {graph._resolve_call(fid, call)
                    for call in graph.functions[fid]["calls"]}
        assert "repro.linalg.operator.as_operator" in resolved
        # ...and the raise flows back across the module boundary:
        # add_documents raises no ShapeError itself, MatrixOperator does.
        closure = graph.raises_closure(fid)
        assert "repro.errors.ShapeError" in closure

    def test_taxonomy_built_from_errors_module(self, tmp_path):
        write(tmp_path, ERRORS_MODULE, filename="errors.py")
        write(tmp_path, """\
            from errors import ValidationError

            class CustomError(ValidationError):
                pass
            """, filename="extra.py")
        records = {}
        for path in sorted(tmp_path.glob("*.py")):
            tree = ast.parse(path.read_text())

            class _Record:
                pass

            record = _Record()
            record.summaries = extract_summaries(tree, path.stem)
            record.imports = ()
            records[path.name] = record
        graph = build_call_graph(records, {})
        assert "errors.ShapeError" in graph.taxonomy
        assert "extra.CustomError" in graph.taxonomy
        assert "errors.ReproError" in graph.ancestors(
            "errors.ShapeError")


class TestR113Probes:
    """Each mutation probe yields exactly one R113 finding."""

    def test_probe_direct_sleep_under_module_lock(self, tmp_path):
        write(tmp_path, """\
            import threading
            import time

            LOCK = threading.Lock()

            def slow():
                with LOCK:
                    time.sleep(0.5)
            """)
        result = lint_tree(tmp_path, ["R113"])
        assert codes(result) == ["R113"]
        assert "time.sleep" in result.violations[0].message
        assert "LOCK" in result.violations[0].message

    def test_probe_transitive_blocking_call(self, tmp_path):
        write(tmp_path, """\
            import threading
            import time

            LOCK = threading.Lock()

            def _work():
                time.sleep(0.1)

            def tick():
                with LOCK:
                    _work()
            """)
        result = lint_tree(tmp_path, ["R113"])
        assert codes(result) == ["R113"]
        message = result.violations[0].message
        assert "tick -> _work" in message
        assert "can block" in message

    def test_probe_lock_order_inversion(self, tmp_path):
        write(tmp_path, """\
            import threading

            A = threading.Lock()
            B = threading.Lock()

            def ab():
                with A:
                    with B:
                        pass

            def ba():
                with B:
                    with A:
                        pass
            """)
        result = lint_tree(tmp_path, ["R113"])
        assert codes(result) == ["R113"]
        assert "inconsistent lock order" in result.violations[0].message

    def test_probe_submit_worker_needing_held_lock(self, tmp_path):
        write(tmp_path, """\
            import threading
            from concurrent.futures import ThreadPoolExecutor

            LOCK = threading.Lock()
            POOL = ThreadPoolExecutor()

            def worker():
                with LOCK:
                    return 1

            def kick():
                with LOCK:
                    return POOL.submit(worker)
            """)
        result = lint_tree(tmp_path, ["R113"])
        assert codes(result) == ["R113"]
        assert "worker" in result.violations[0].message
        assert "deadlock" in result.violations[0].message

    def test_probe_future_result_under_self_lock(self, tmp_path):
        write(tmp_path, """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()

                def wait(self, fut):
                    with self._lock:
                        return fut.result()
            """)
        result = lint_tree(tmp_path, ["R113"])
        assert codes(result) == ["R113"]
        assert "Box._lock" in result.violations[0].message

    def test_condition_wait_is_not_flagged(self, tmp_path):
        # Condition.wait releases its lock while blocked; only
        # Lock/RLock held across a blocking call is the bug.
        write(tmp_path, """\
            import threading

            class Q:
                def __init__(self):
                    self._cond = threading.Condition()

                def get(self):
                    with self._cond:
                        self._cond.wait()
            """)
        assert codes(lint_tree(tmp_path, ["R113"])) == []

    def test_result_outside_lock_is_clean(self, tmp_path):
        write(tmp_path, """\
            import threading

            LOCK = threading.Lock()

            def gather(futures):
                with LOCK:
                    pending = list(futures)
                return [f.result() for f in pending]
            """)
        assert codes(lint_tree(tmp_path, ["R113"])) == []

    def test_nonblocking_queue_get_is_clean(self, tmp_path):
        write(tmp_path, """\
            import queue
            import threading

            LOCK = threading.Lock()

            def drain(q: "queue.Queue"):
                items = []
                source = queue.Queue()
                with LOCK:
                    items.append(source.get(block=False))
                return items
            """)
        assert codes(lint_tree(tmp_path, ["R113"])) == []


class TestR120Probes:
    """Each mutation probe yields exactly one R120 finding."""

    def test_probe_direct_raise_without_section(self, tmp_path):
        write(tmp_path, ERRORS_MODULE, filename="errors.py")
        write(tmp_path, """\
            from errors import ValidationError

            def check(x):
                \"\"\"Validate x.\"\"\"
                if x < 0:
                    raise ValidationError("negative")
                return x
            """)
        result = lint_tree(tmp_path, ["R120"])
        assert codes(result) == ["R120"]
        assert "no Raises: section" in result.violations[0].message

    def test_probe_transitive_raise_missing_from_section(self,
                                                         tmp_path):
        write(tmp_path, ERRORS_MODULE, filename="errors.py")
        write(tmp_path, """\
            from errors import ValidationError

            def _inner(x):
                raise ValidationError("bad")

            def outer(x):
                \"\"\"Do a thing.

                Raises:
                    KeyError: never actually.
                \"\"\"
                return _inner(x)
            """)
        result = lint_tree(tmp_path, ["R120"])
        assert codes(result) == ["R120"]
        message = result.violations[0].message
        assert "ValidationError" in message
        assert "transitively" in message

    def test_probe_builtin_raise_outside_taxonomy(self, tmp_path):
        write(tmp_path, ERRORS_MODULE, filename="errors.py")
        write(tmp_path, """\
            def parse(x):
                \"\"\"Parse x.\"\"\"
                if not x:
                    raise ValueError("empty")
                return x
            """)
        result = lint_tree(tmp_path, ["R120"])
        assert codes(result) == ["R120"]
        assert "outside the project error taxonomy" \
            in result.violations[0].message

    def test_probe_unreachable_except(self, tmp_path):
        write(tmp_path, ERRORS_MODULE, filename="errors.py")
        write(tmp_path, """\
            from errors import ConvergenceError, ValidationError

            def _might(x):
                raise ValidationError("bad")

            def run(x):
                \"\"\"Run.

                Raises:
                    ValidationError: from validation.
                \"\"\"
                try:
                    return _might(x)
                except ConvergenceError:
                    return None
            """)
        result = lint_tree(tmp_path, ["R120"])
        assert codes(result) == ["R120"]
        assert "unreachable" in result.violations[0].message

    def test_documented_base_class_is_accepted(self, tmp_path):
        write(tmp_path, ERRORS_MODULE, filename="errors.py")
        write(tmp_path, """\
            from errors import ShapeError

            def _inner(x):
                raise ShapeError("bad")

            def outer(x):
                \"\"\"Do a thing.

                Raises:
                    ValidationError: covers ShapeError too.
                \"\"\"
                return _inner(x)
            """)
        assert codes(lint_tree(tmp_path, ["R120"])) == []

    def test_exception_caught_around_the_call_is_not_raised(
            self, tmp_path):
        write(tmp_path, ERRORS_MODULE, filename="errors.py")
        write(tmp_path, """\
            from errors import ConvergenceError, ShapeError, \\
                ValidationError

            def _inner(x):
                if x:
                    raise ShapeError("bad")
                raise ConvergenceError("slow")

            def outer(x):
                \"\"\"Do a thing.

                Raises:
                    ConvergenceError: from the inner step.
                \"\"\"
                try:
                    return _inner(x)
                except ValidationError as error:
                    raise ConvergenceError("wrapped") from error
            """)
        assert codes(lint_tree(tmp_path, ["R120"])) == []
        # The handler covers only the try body: the same call after it
        # still raises ShapeError through to outer's callers.
        write(tmp_path, """\
            from errors import ConvergenceError, ShapeError, \\
                ValidationError

            def _inner(x):
                if x:
                    raise ShapeError("bad")
                raise ConvergenceError("slow")

            def outer(x):
                \"\"\"Do a thing.

                Raises:
                    ConvergenceError: from the inner step.
                \"\"\"
                try:
                    _inner(x)
                except ValidationError as error:
                    raise ConvergenceError("wrapped") from error
                return _inner(x)
            """)
        result = lint_tree(tmp_path, ["R120"])
        assert codes(result) == ["R120"]
        assert "ShapeError" in result.violations[0].message

    def test_unresolvable_try_body_is_left_alone(self, tmp_path):
        write(tmp_path, ERRORS_MODULE, filename="errors.py")
        write(tmp_path, """\
            from errors import ConvergenceError

            def run(callback):
                \"\"\"Run.\"\"\"
                try:
                    return callback()
                except ConvergenceError:
                    return None
            """)
        assert codes(lint_tree(tmp_path, ["R120"])) == []

    def test_r120_scope_restricts_paths(self, tmp_path):
        write(tmp_path, ERRORS_MODULE, filename="pkg/errors.py")
        source = """\
            from pkg.errors import ValidationError

            def check(x):
                \"\"\"Validate.\"\"\"
                raise ValidationError("no")
            """
        write(tmp_path, "", filename="pkg/__init__.py")
        write(tmp_path, source, filename="pkg/covered.py")
        write(tmp_path, source, filename="pkg/skipped.py")
        config = Config(root=tmp_path,
                        r120_scope=("pkg/covered.py", "pkg/errors.py"))
        result = lint_paths([str(tmp_path / "pkg")], config=config,
                            select=["R120"])
        assert codes(result) == ["R120"]
        assert result.violations[0].path == "pkg/covered.py"


class TestSummaryCacheInvalidation:
    CALLER = """\
        import threading

        from callee import work

        LOCK = threading.Lock()

        def run():
            with LOCK:
                return work()
        """
    CALLEE_CLEAN = """\
        def work():
            return 1
        """
    CALLEE_BLOCKING = """\
        import time

        def work():
            time.sleep(0.1)
            return 1
        """

    def test_editing_only_callee_relints_caller(self, tmp_path):
        write(tmp_path, self.CALLER, filename="caller.py")
        callee = write(tmp_path, self.CALLEE_CLEAN,
                       filename="callee.py")
        cache = tmp_path / "cache.json"
        cold = lint_tree(tmp_path, ["R113"], cache=cache)
        assert codes(cold) == []
        callee.write_text(textwrap.dedent(self.CALLEE_BLOCKING))
        warm = lint_tree(tmp_path, ["R113"], cache=cache)
        # The caller replays from cache — only the callee re-analyses —
        # yet the caller's interprocedural conclusion still flips.
        assert warm.cache_hits == 1 and warm.cache_misses == 1
        assert codes(warm) == ["R113"]
        assert warm.violations[0].path == "caller.py"

    def test_byte_identical_findings_under_jobs_fanout(self, tmp_path):
        write(tmp_path, self.CALLER, filename="caller.py")
        write(tmp_path, self.CALLEE_BLOCKING, filename="callee.py")
        serial = lint_tree(tmp_path, ["R113"], jobs=1)
        fanned = lint_tree(tmp_path, ["R113"], jobs=2)
        cached = lint_tree(tmp_path, ["R113"],
                           cache=tmp_path / "cache.json")
        replayed = lint_tree(tmp_path, ["R113"],
                             cache=tmp_path / "cache.json", jobs=2)
        assert replayed.cache_hits == 2
        assert render_text(serial) == render_text(fanned) \
            == render_text(cached) == render_text(replayed)
        assert serial.violations == fanned.violations \
            == cached.violations == replayed.violations

    def test_partial_run_keeps_cache_warm(self, tmp_path):
        write(tmp_path, self.CALLER, filename="caller.py")
        write(tmp_path, self.CALLEE_CLEAN, filename="callee.py")
        write(tmp_path, """\
            def lonely():
                return 2
            """, filename="other.py")
        cache = tmp_path / "cache.json"
        config = Config(root=tmp_path)
        lint_paths([str(tmp_path)], config=config, cache=cache)
        # A run over one file must not evict the other files' records
        # from the cache.
        lint_paths([str(tmp_path / "caller.py")], config=config,
                   cache=cache)
        warm = lint_paths([str(tmp_path)], config=config, cache=cache)
        assert warm.cache_hits == 3 and warm.cache_misses == 0


class TestExplainCli:
    def test_explain_prints_catalogue_entry(self, capsys):
        assert reprolint_main(["--explain", "R113"]) == 0
        out = capsys.readouterr().out
        assert "R113" in out
        assert "Example finding:" in out
        assert "How to fix:" in out

    def test_explain_is_case_insensitive(self, capsys):
        assert reprolint_main(["--explain", "r120"]) == 0
        assert "taxonomy" in capsys.readouterr().out

    def test_explain_unknown_code_fails(self, capsys):
        assert reprolint_main(["--explain", "R999"]) == 2
        assert "R999" in capsys.readouterr().err

    def test_every_rule_has_a_catalogue_entry(self):
        from tools.reprolint.registry import CATALOGUE, RULES

        assert set(CATALOGUE) == set(RULES)
        for entry in CATALOGUE.values():
            assert entry["description"] and entry["example"] \
                and entry["fix"]


class TestRealTreeAcceptance:
    def test_real_tree_is_clean_under_new_families(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        result = lint_paths([str(REPO_ROOT / "src" / "repro")],
                            config=config,
                            select=["R113", "R120"])
        assert codes(result) == []
