"""Tests for reprolint v2: dataflow core, R111/R112, autofix, cache,
SARIF/GitHub reporters, multiprocess fan-out, and the seeded mutation
checks from the acceptance criteria."""

import ast
import json
import textwrap
from pathlib import Path

import pytest

from tools.reprolint import lint_paths, main as reprolint_main
from tools.reprolint.cache import (FileRecord, engine_fingerprint,
                                   load_cache, store_cache)
from tools.reprolint.config import Config
from tools.reprolint.dataflow import (ImportMap, bound_names,
                                      flat_statements, iter_scopes)
from tools.reprolint.fixes import apply_fixes, compute_fixes, fix_paths
from tools.reprolint.reporters import render_github, render_sarif
from tools.reprolint.rules import ModuleContext

REPO_ROOT = Path(__file__).resolve().parent.parent


def write(tmp_path, source, *, filename="mod.py"):
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def lint_source(tmp_path, source, *, filename="mod.py", select=None,
                config=None, **kwargs):
    path = write(tmp_path, source, filename=filename)
    cfg = config if config is not None else Config(root=tmp_path)
    return lint_paths([str(path)], config=cfg, select=select, **kwargs)


def codes(result):
    return [violation.rule for violation in result.violations]


def make_ctx(tmp_path, source, *, filename="mod.py", config=None,
             module_name=None):
    path = write(tmp_path, source, filename=filename)
    cfg = config if config is not None else Config(root=tmp_path)
    return ModuleContext(path=cfg.relative(path),
                         abspath=path.resolve(),
                         tree=ast.parse(path.read_text()), config=cfg,
                         module_name=module_name)


class TestImportMap:
    def test_resolves_plain_import_alias(self):
        imports = ImportMap(ast.parse("import numpy as np"))
        node = ast.parse("np.zeros", mode="eval").body
        assert imports.resolve(node) == "numpy.zeros"

    def test_resolves_from_import_alias(self):
        imports = ImportMap(ast.parse(
            "from repro.utils.rng import as_generator as mk"))
        node = ast.parse("mk", mode="eval").body
        assert imports.resolve(node) == "repro.utils.rng.as_generator"

    def test_resolves_relative_import_with_module_name(self):
        imports = ImportMap(
            ast.parse("from ..utils.rng import as_generator"),
            module_name="repro.core.lsi")
        node = ast.parse("as_generator", mode="eval").body
        assert imports.resolve(node) == "repro.utils.rng.as_generator"

    def test_local_names_resolve_to_none(self):
        imports = ImportMap(ast.parse("import numpy as np\nx = 1"))
        assert imports.resolve(ast.parse("x", mode="eval").body) is None

    def test_attribute_chain_resolution(self):
        imports = ImportMap(ast.parse("import numpy as np"))
        node = ast.parse("np.random.default_rng", mode="eval").body
        assert imports.resolve(node) == "numpy.random.default_rng"


class TestScopeWalk:
    SOURCE = textwrap.dedent("""\
        x = 1
        def outer():
            y = 2
            def inner():
                z = 3
        class Box:
            attr = 4
            def method(self):
                w = 5
        """)

    def test_iter_scopes_module_first_then_functions(self):
        scopes = list(iter_scopes(ast.parse(self.SOURCE)))
        assert scopes[0].is_module
        names = [scope.node.name for scope in scopes[1:]]
        assert set(names) == {"outer", "inner", "method"}

    def test_flat_statements_skips_function_bodies(self):
        tree = ast.parse(self.SOURCE)
        statements = list(flat_statements(tree.body))
        assigned = {target.id for stmt in statements
                    if isinstance(stmt, ast.Assign)
                    for target in stmt.targets
                    if isinstance(target, ast.Name)}
        # Class-body statements execute in the module flow; function
        # bodies do not.
        assert assigned == {"x", "attr"}

    def test_flat_statements_enters_control_flow_and_handlers(self):
        tree = ast.parse(textwrap.dedent("""\
            try:
                a = 1
            except ValueError:
                b = 2
            finally:
                c = 3
            if True:
                d = 4
            """))
        assigned = {target.id for stmt in flat_statements(tree.body)
                    if isinstance(stmt, ast.Assign)
                    for target in stmt.targets}
        assert assigned == {"a", "b", "c", "d"}

    def test_bound_names_destructuring(self):
        target = ast.parse("(a, (b, *rest)) = value").body[0].targets[0]
        assert bound_names(target) == {"a", "b", "rest"}


class TestAutofix:
    def fix_file(self, tmp_path, source, *, filename="mod.py",
                 config=None):
        path = write(tmp_path, source, filename=filename)
        cfg = config if config is not None else Config(root=tmp_path)
        result = fix_paths([str(path)], cfg)
        return path, result

    def test_mutable_default_fix_and_guard(self, tmp_path):
        path = write(tmp_path, '''\
            def collect(item, acc=[]):
                """Doc."""
                acc.append(item)
                return acc
            ''')
        result = fix_paths([str(path)], Config(root=tmp_path),
                           ["R003"])
        fixed = path.read_text()
        assert "acc=None" in fixed
        assert "if acc is None:" in fixed
        assert "acc = []" in fixed
        assert result.total == 2  # default rewrite + guard block
        # Behaviour: fresh list per call (the bug the fix removes).
        namespace = {}
        exec(compile(fixed, str(path), "exec"), namespace)
        assert namespace["collect"](1) == [1]
        assert namespace["collect"](2) == [2]

    def test_bare_except_narrowed(self, tmp_path):
        path, _ = self.fix_file(tmp_path, """\
            try:
                x = 1
            except:
                x = 2
            """)
        assert "except Exception:" in path.read_text()

    def test_dunder_all_ghosts_and_duplicates_dropped(self, tmp_path):
        path, _ = self.fix_file(tmp_path, '''\
            """Doc."""

            __all__ = ["f", "ghost", "f"]


            def f():
                return 1
            ''')
        assert '__all__ = ["f"]' in path.read_text()

    def test_missing_dunder_all_declared(self, tmp_path):
        path, _ = self.fix_file(tmp_path, '''\
            """Doc."""

            import json


            def solve():
                return json.dumps({})


            class Box:
                pass
            ''')
        assert '__all__ = ["Box", "solve"]' in path.read_text()

    def test_fix_twice_is_a_noop(self, tmp_path):
        path, first = self.fix_file(tmp_path, '''\
            import numpy as np

            __all__ = ["run", "stale"]


            def run(out=[]):
                """Doc."""
                A = np.zeros((2, 3))
                try:
                    out.append(A.sum())
                except:
                    pass
                return out
            ''')
        assert first.total > 0
        once = path.read_text()
        ast.parse(once)  # still valid python
        second = fix_paths([str(path)], Config(root=tmp_path))
        assert second.total == 0
        assert path.read_text() == once

    def test_suppressed_line_not_fixed(self, tmp_path):
        path = write(tmp_path, textwrap.dedent("""\
            try:
                x = 1
            except:  # reprolint: disable=R005 intentional catch-all
                x = 2
            """))
        result = fix_paths([str(path)], Config(root=tmp_path),
                           ["R005"])
        assert result.total == 0
        assert "except:" in path.read_text()

    def test_check_mode_leaves_tree_untouched(self, tmp_path):
        path = write(tmp_path, "def f(acc=[]):\n    return acc\n")
        before = path.read_text()
        result = fix_paths([str(path)], Config(root=tmp_path),
                           check=True)
        assert result.total > 0
        assert path.read_text() == before

    def test_cli_fix_check_exit_codes(self, tmp_path):
        write(tmp_path, "[tool.reprolint]\n", filename="pyproject.toml")
        dirty = write(tmp_path, "def f(acc=[]):\n    return acc\n")
        pyproject = str(tmp_path / "pyproject.toml")
        assert reprolint_main(["--config", pyproject, "--fix",
                               "--check", "--select", "R003",
                               str(dirty)]) == 1
        assert reprolint_main(["--config", pyproject, "--fix",
                               "--select", "R003", str(dirty)]) == 0
        assert reprolint_main(["--config", pyproject, "--fix",
                               "--check", "--select", "R003",
                               str(dirty)]) == 0

    def test_check_without_fix_is_usage_error(self, tmp_path):
        write(tmp_path, "[tool.reprolint]\n", filename="pyproject.toml")
        target = write(tmp_path, "x = 1\n")
        assert reprolint_main(["--config",
                               str(tmp_path / "pyproject.toml"),
                               "--check", str(target)]) == 2

    def test_compute_fixes_apply_fixes_roundtrip(self, tmp_path):
        source = "def f(p={}):\n    return p\n"
        ctx = make_ctx(tmp_path, source)
        fixes = compute_fixes(source, ctx)
        fixed = apply_fixes(source, fixes)
        assert "p=None" in fixed
        ast.parse(fixed)


class TestIncrementalCache:
    def _tree(self, tmp_path):
        write(tmp_path, """\
            import scipy.sparse as sp
            M = sp.csr_matrix((4, 7))
            bad = M.toarray()
            """, filename="pkg/a.py")
        write(tmp_path, "x = 1\n", filename="pkg/b.py")
        return Config(root=tmp_path), tmp_path / "cache.json"

    def test_warm_run_replays_all_files(self, tmp_path):
        config, cache = self._tree(tmp_path)
        cold = lint_paths([str(tmp_path / "pkg")], config=config,
                          select=["R004"], cache=str(cache))
        warm = lint_paths([str(tmp_path / "pkg")], config=config,
                          select=["R004"], cache=str(cache))
        assert cold.cache_hits == 0 and cold.cache_misses == 2
        assert warm.cache_hits == 2 and warm.cache_misses == 0
        assert codes(cold) == codes(warm) == ["R004"]
        assert [v.render() for v in cold.violations] == \
            [v.render() for v in warm.violations]

    def test_content_change_invalidates_only_that_file(self, tmp_path):
        config, cache = self._tree(tmp_path)
        lint_paths([str(tmp_path / "pkg")], config=config,
                   select=["R004"], cache=str(cache))
        (tmp_path / "pkg" / "a.py").write_text(
            "import scipy.sparse as sp\nM = sp.csr_matrix((4, 7))\n"
            "ok = M.tocsc()\n")
        warm = lint_paths([str(tmp_path / "pkg")], config=config,
                          select=["R004"], cache=str(cache))
        assert warm.cache_hits == 1 and warm.cache_misses == 1
        assert codes(warm) == []

    def test_cycle_conclusions_cross_file_invalidation(self, tmp_path):
        write(tmp_path, "", filename="pkg/__init__.py")
        write(tmp_path, "from pkg import b\n", filename="pkg/a.py")
        write(tmp_path, "from pkg import a\n", filename="pkg/b.py")
        config = Config(root=tmp_path)
        cache = tmp_path / "cache.json"
        cold = lint_paths([str(tmp_path / "pkg")], config=config,
                          select=["R007"], cache=str(cache))
        assert codes(cold) == ["R007"]
        # Break the cycle by editing only b.py; a.py replays from the
        # cache yet the R007 conclusion about it is refreshed.
        (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
        warm = lint_paths([str(tmp_path / "pkg")], config=config,
                          select=["R007"], cache=str(cache))
        assert warm.cache_hits == 2 and warm.cache_misses == 1
        assert codes(warm) == []

    def test_corrupt_cache_fails_open(self, tmp_path):
        config, cache = self._tree(tmp_path)
        lint_paths([str(tmp_path / "pkg")], config=config,
                   select=["R004"], cache=str(cache))
        cache.write_text("{not json")
        result = lint_paths([str(tmp_path / "pkg")], config=config,
                            select=["R004"], cache=str(cache))
        assert result.cache_hits == 0
        assert codes(result) == ["R004"]

    def test_selection_change_invalidates_cache(self, tmp_path):
        config, cache = self._tree(tmp_path)
        lint_paths([str(tmp_path / "pkg")], config=config,
                   select=["R004"], cache=str(cache))
        result = lint_paths([str(tmp_path / "pkg")], config=config,
                            select=["R004", "R002"], cache=str(cache))
        assert result.cache_hits == 0

    def test_suppressions_apply_on_cache_replay(self, tmp_path):
        write(tmp_path, """\
            import scipy.sparse as sp
            M = sp.csr_matrix((4, 7))
            bad = M.toarray()  # reprolint: disable=R004 proven small
            """, filename="pkg/a.py")
        config = Config(root=tmp_path)
        cache = tmp_path / "cache.json"
        cold = lint_paths([str(tmp_path / "pkg")], config=config,
                          select=["R004"], cache=str(cache))
        warm = lint_paths([str(tmp_path / "pkg")], config=config,
                          select=["R004"], cache=str(cache))
        assert codes(cold) == codes(warm) == []
        assert warm.cache_hits == 1

    def test_record_json_roundtrip(self, tmp_path):
        config, cache = self._tree(tmp_path)
        fingerprint = engine_fingerprint(config, frozenset({"R004"}))
        lint_paths([str(tmp_path / "pkg")], config=config,
                   select=["R004"], cache=str(cache))
        records = load_cache(cache, fingerprint)
        assert set(records) == {"pkg/a.py", "pkg/b.py"}
        record = records["pkg/a.py"]
        assert isinstance(record, FileRecord)
        store_cache(cache, fingerprint, records)
        assert load_cache(cache, fingerprint).keys() == records.keys()


class TestMultiprocessFanOut:
    def test_jobs_match_serial_results(self, tmp_path):
        for index in range(6):
            write(tmp_path,
                  "import scipy.sparse as sp\n"
                  f"M{index} = sp.csr_matrix((3, {index + 2}))\n"
                  f"bad{index} = M{index}.toarray()\n",
                  filename=f"pkg/m{index}.py")
        config = Config(root=tmp_path)
        serial = lint_paths([str(tmp_path / "pkg")], config=config,
                            select=["R004"], jobs=1)
        fanned = lint_paths([str(tmp_path / "pkg")], config=config,
                            select=["R004"], jobs=2)
        assert [v.render() for v in serial.violations] == \
            [v.render() for v in fanned.violations]
        assert serial.files_checked == fanned.files_checked == 6

    def test_jobs_zero_means_auto(self, tmp_path):
        write(tmp_path, "x = 1\n", filename="pkg/a.py")
        write(tmp_path, "y = 2\n", filename="pkg/b.py")
        result = lint_paths([str(tmp_path / "pkg")],
                            config=Config(root=tmp_path),
                            select=["R002"], jobs=0)
        assert result.files_checked == 2
        assert codes(result) == []


class TestSarifReporter:
    def _result(self, tmp_path):
        return lint_source(tmp_path, """\
            import scipy.sparse as sp
            M = sp.csr_matrix((4, 7))
            dense = M.toarray()
            again = M.todense()
            """, select=["R004"])

    def test_sarif_document_structure(self, tmp_path):
        document = json.loads(render_sarif(self._result(tmp_path)))
        assert document["version"] == "2.1.0"
        assert document["$schema"].endswith("sarif-schema-2.1.0.json")
        (run,) = document["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "reprolint"
        assert [rule["id"] for rule in driver["rules"]] == ["R004"]
        assert len(run["results"]) == 2
        first = run["results"][0]
        assert first["ruleId"] == "R004"
        assert first["level"] == "error"
        location = first["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "mod.py"
        assert location["region"]["startLine"] == 3
        assert location["region"]["startColumn"] >= 1

    def test_sarif_clean_run_has_empty_results(self, tmp_path):
        result = lint_source(tmp_path, "x = 1\n", select=["R002"])
        document = json.loads(render_sarif(result))
        assert document["runs"][0]["results"] == []
        assert document["runs"][0]["tool"]["driver"]["rules"] == []

    def test_cli_emits_sarif(self, tmp_path, capsys):
        write(tmp_path, "[tool.reprolint]\n", filename="pyproject.toml")
        target = write(tmp_path, "x = 1 == 1.0\n")
        code = reprolint_main(["--config",
                               str(tmp_path / "pyproject.toml"),
                               "--format", "sarif", "--select",
                               "R002", str(target)])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["runs"][0]["results"][0]["ruleId"] == "R002"


class TestGitHubReporter:
    def test_annotation_lines(self, tmp_path):
        result = lint_source(tmp_path, """\
            import scipy.sparse as sp
            M = sp.csr_matrix((4, 7))
            dense = M.toarray()
            """, select=["R004"])
        output = render_github(result)
        lines = output.splitlines()
        assert lines[0].startswith("::error file=mod.py,line=3,col=")
        assert "R004" in lines[0]
        assert lines[-1].startswith("::notice::reprolint: 1 violation")

    def test_clean_run_emits_only_notice(self, tmp_path):
        result = lint_source(tmp_path, "x = 1\n", select=["R002"])
        assert render_github(result) == \
            "::notice::reprolint: 0 violations in 1 file(s) checked"

    def test_message_newlines_escaped(self):
        from tools.reprolint.engine import LintResult
        from tools.reprolint.violations import Violation
        result = LintResult(violations=(Violation(
            path="a.py", line=1, col=0, rule="R002",
            message="line one\nline two"),), files_checked=1)
        line = render_github(result).splitlines()[0]
        assert "%0A" in line and "\n" not in line


class TestSeededMutationChecks:
    """The acceptance-criteria mutation probes, run against copies of
    the real source files with the real path layout."""

    def _config(self, tmp_path):
        return Config(
            root=tmp_path,
            r001_allow=("src/repro/utils/rng.py",),
            r111_scope=("src/repro/serving",
                        "src/repro/linalg/dense.py",
                        "src/repro/corpus/weighting.py"))

    def _copy(self, tmp_path, rel):
        source = (REPO_ROOT / rel).read_text()
        return write(tmp_path, source, filename=rel), source

    def test_unmutated_copies_lint_clean(self, tmp_path):
        lsi, _ = self._copy(tmp_path, "src/repro/core/lsi.py")
        writer, _ = self._copy(tmp_path, "src/repro/serving/writer.py")
        result = lint_paths([str(lsi), str(writer)],
                            config=self._config(tmp_path))
        assert codes(result) == []

    def test_eager_load_in_bundle_yields_one_r111(self, tmp_path):
        path, source = self._copy(tmp_path,
                                  "src/repro/serving/bundle.py")
        path.write_text(source
                        + "\n\ndef _load_probe(path):\n"
                          "    return np.load(path)\n")
        result = lint_paths([str(path)], config=self._config(tmp_path))
        flagged = [v for v in result.violations]
        assert [v.rule for v in flagged] == ["R111"]
        assert "mmap_mode" in flagged[0].message

    def test_module_generator_pool_worker_yields_one_r112(
            self, tmp_path):
        # The probe's module-level generator also trips R001 by
        # design (it *is* shared state two ways); select isolates the
        # fork-safety conclusion.
        path, source = self._copy(tmp_path,
                                  "src/repro/serving/engine.py")
        path.write_text(source + textwrap.dedent("""\n
            import concurrent.futures as _probe_futures

            _PROBE_RNG = np.random.default_rng(0)

            def _probe_worker(n):
                return _PROBE_RNG.random(n)

            def _probe_fanout(sizes):
                with _probe_futures.ProcessPoolExecutor() as pool:
                    return list(pool.map(_probe_worker, sizes))
            """))
        result = lint_paths([str(path)],
                            config=self._config(tmp_path),
                            select=["R112"])
        flagged = [v for v in result.violations]
        assert [v.rule for v in flagged] == ["R112"]
        assert "identical streams" in flagged[0].message

    def test_mutating_pool_worker_yields_one_r112_full_select(
            self, tmp_path):
        # The dict-mutation variant stays R112-only even under the
        # full default rule set.
        path, source = self._copy(tmp_path,
                                  "src/repro/serving/engine.py")
        path.write_text(source + textwrap.dedent("""\n
            import concurrent.futures as _probe_futures

            _PROBE_SEEN = {}

            def _probe_worker(item):
                _PROBE_SEEN[item] = item
                return item

            def _probe_fanout(items):
                with _probe_futures.ProcessPoolExecutor() as pool:
                    return list(pool.map(_probe_worker, items))
            """))
        result = lint_paths([str(path)], config=self._config(tmp_path))
        flagged = [v for v in result.violations]
        assert [v.rule for v in flagged] == ["R112"]
        assert "silently lost" in flagged[0].message


class TestRealTreeIsClean:
    """The acceptance gate: the new families report zero findings on
    the repository's own source under its real configuration."""

    def test_new_families_clean_on_src(self):
        from tools.reprolint.config import load_config

        config = load_config(REPO_ROOT / "pyproject.toml")
        result = lint_paths([str(REPO_ROOT / "src" / "repro")],
                            config=config,
                            select=["R111", "R112"])
        assert codes(result) == []


class TestR111HotPathAllocation:
    def flags(self, tmp_path, body, **kwargs):
        return lint_source(tmp_path, "import numpy as np\n"
                           + textwrap.dedent(body),
                           select=["R111"], **kwargs)

    def test_flags_assign_back_binop(self, tmp_path):
        result = self.flags(tmp_path, """\
            def scale(n):
                x = np.zeros(n)
                x = x * 2.0
                return x
            """)
        assert codes(result) == ["R111"]
        assert "in-place form" in result.violations[0].message

    def test_flags_assign_back_ufunc(self, tmp_path):
        result = self.flags(tmp_path, """\
            def clamp(n):
                sims = np.zeros((n, n))
                sims = np.clip(sims, -1.0, 1.0)
                return sims
            """)
        assert codes(result) == ["R111"]
        assert "out=sims" in result.violations[0].message

    def test_out_kwarg_silences_ufunc(self, tmp_path):
        result = self.flags(tmp_path, """\
            def clamp(n):
                sims = np.zeros((n, n))
                sims = np.clip(sims, -1.0, 1.0, out=sims)
                return sims
            """)
        assert codes(result) == []

    def test_no_array_evidence_stays_silent(self, tmp_path):
        # x could be a scalar or list; out=/+= would be wrong advice.
        result = self.flags(tmp_path, """\
            def scale(x):
                x = x * 2.0
                x = np.clip(x, 0.0, 1.0)
                return x
            """)
        assert codes(result) == []

    def test_flags_eager_np_load(self, tmp_path):
        result = self.flags(tmp_path, """\
            def load(path):
                return np.load(path)
            """)
        assert codes(result) == ["R111"]
        assert "mmap_mode" in result.violations[0].message

    def test_mmap_mode_silences_load(self, tmp_path):
        result = self.flags(tmp_path, """\
            def load(path):
                return np.load(path, mmap_mode="r")
            """)
        assert codes(result) == []

    def test_flags_loop_invariant_norm(self, tmp_path):
        result = self.flags(tmp_path, """\
            def iterate(v, steps):
                for step in range(steps):
                    scale = np.linalg.norm(v)
                    yield scale * step
            """)
        assert codes(result) == ["R111"]
        assert "loop-invariant norm" in result.violations[0].message

    def test_norm_of_rebound_operand_is_silent(self, tmp_path):
        result = self.flags(tmp_path, """\
            def power_iterate(A, v, steps):
                for step in range(steps):
                    v = A @ v
                    scale = np.linalg.norm(v)
                return scale
            """)
        assert codes(result) == []

    def test_in_place_normalisation_flags_assign_back(self, tmp_path):
        # v = v / norm inside the loop is the assign-back finding,
        # not a loop-invariant one — v is rebound every iteration.
        result = self.flags(tmp_path, """\
            def power_iterate(A, v, steps):
                for step in range(steps):
                    v = A @ v
                    v = v / np.linalg.norm(v)
                return v
            """)
        assert codes(result) == ["R111"]
        assert "in-place form" in result.violations[0].message

    def test_norm_of_mutated_operand_is_silent(self, tmp_path):
        result = self.flags(tmp_path, """\
            def jitter(v, steps):
                for step in range(steps):
                    v[0] = step
                    scale = np.linalg.norm(v)
                return scale
            """)
        assert codes(result) == []

    def test_scope_config_limits_rule(self, tmp_path):
        config = Config(root=tmp_path, r111_scope=("pkg/serving",))
        body = """\
            import numpy as np
            def load(path):
                return np.load(path)
            """
        in_scope = lint_source(tmp_path, body,
                               filename="pkg/serving/a.py",
                               select=["R111"], config=config)
        out_of_scope = lint_source(tmp_path, body,
                                   filename="pkg/corpus/b.py",
                                   select=["R111"], config=config)
        assert codes(in_scope) == ["R111"]
        assert codes(out_of_scope) == []


class TestR112ConcurrencySafety:
    def flags(self, tmp_path, source, **kwargs):
        return lint_source(tmp_path, textwrap.dedent(source),
                           select=["R112"], **kwargs)

    def test_flags_lambda_to_process_pool(self, tmp_path):
        result = self.flags(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor

            def fanout(items):
                with ProcessPoolExecutor() as pool:
                    return [pool.submit(lambda: item)
                            for item in items]
            """)
        assert codes(result) == ["R112"]
        assert "not picklable" in result.violations[0].message

    def test_lambda_to_thread_pool_is_fine(self, tmp_path):
        result = self.flags(tmp_path, """\
            from concurrent.futures import ThreadPoolExecutor

            def fanout(items):
                with ThreadPoolExecutor() as pool:
                    return [pool.submit(lambda: item)
                            for item in items]
            """)
        assert codes(result) == []

    def test_flags_local_def_to_process_pool(self, tmp_path):
        result = self.flags(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor

            def fanout(items):
                def local(x):
                    return x
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(local, items))
            """)
        assert codes(result) == ["R112"]
        assert "'local'" in result.violations[0].message

    def test_flags_worker_mutating_module_dict(self, tmp_path):
        result = self.flags(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor

            _RESULTS = {}

            def worker(item):
                _RESULTS[item] = item
                return item

            def fanout(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(worker, items))
            """)
        assert codes(result) == ["R112"]
        assert "silently lost" in result.violations[0].message

    def test_thread_pool_mutation_reports_race(self, tmp_path):
        result = self.flags(tmp_path, """\
            from concurrent.futures import ThreadPoolExecutor

            _RESULTS = {}

            def worker(item):
                _RESULTS[item] = item
                return item

            def fanout(items):
                with ThreadPoolExecutor() as pool:
                    return list(pool.map(worker, items))
            """)
        assert codes(result) == ["R112"]
        assert "race" in result.violations[0].message

    def test_worker_reading_module_dict_is_fine(self, tmp_path):
        result = self.flags(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor

            _TABLE = {"a": 1}

            def worker(item):
                return _TABLE.get(item, 0)

            def fanout(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(worker, items))
            """)
        assert codes(result) == []

    def test_worker_shadowing_module_name_is_fine(self, tmp_path):
        result = self.flags(tmp_path, """\
            from concurrent.futures import ProcessPoolExecutor

            _RESULTS = {}

            def worker(item):
                _RESULTS = {}
                _RESULTS[item] = item
                return _RESULTS

            def fanout(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(worker, items))
            """)
        assert codes(result) == []

    def test_flags_worker_drawing_module_generator(self, tmp_path):
        result = self.flags(tmp_path, """\
            import numpy as np
            from concurrent.futures import ProcessPoolExecutor

            _RNG = np.random.default_rng(0)

            def worker(n):
                return _RNG.random(n)

            def fanout(sizes):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(worker, sizes))
            """)
        assert codes(result) == ["R112"]
        assert "identical streams" in result.violations[0].message

    def test_partial_is_looked_through(self, tmp_path):
        result = self.flags(tmp_path, """\
            import functools
            from concurrent.futures import ProcessPoolExecutor

            _SEEN = []

            def worker(prefix, item):
                _SEEN.append(item)
                return prefix + item

            def fanout(items):
                task = functools.partial(worker, "x")
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(task, items))
            """)
        # The partial is assigned to a name first — the rule only
        # looks through an inline partial(...) in the submit call.
        result_inline = self.flags(tmp_path, """\
            import functools
            from concurrent.futures import ProcessPoolExecutor

            _SEEN = []

            def worker(prefix, item):
                _SEEN.append(item)
                return prefix + item

            def fanout(items):
                with ProcessPoolExecutor() as pool:
                    return list(pool.map(
                        functools.partial(worker, "x"), items))
            """, filename="inline.py")
        assert codes(result_inline) == ["R112"]

    def test_flags_unsynchronized_cache_class(self, tmp_path):
        result = self.flags(tmp_path, """\
            class ShardCache:
                def __init__(self):
                    self._store = {}

                def put(self, key, value):
                    self._store[key] = value
            """)
        assert codes(result) == ["R112"]
        assert "self._store" in result.violations[0].message

    def test_locked_cache_class_is_fine(self, tmp_path):
        result = self.flags(tmp_path, """\
            import threading

            class ShardCache:
                def __init__(self):
                    self._store = {}
                    self._lock = threading.Lock()

                def put(self, key, value):
                    with self._lock:
                        self._store[key] = value
            """)
        assert codes(result) == []

    def test_read_only_cache_class_is_fine(self, tmp_path):
        result = self.flags(tmp_path, """\
            class CacheView:
                def __init__(self, entries):
                    self._entries = entries

                def get(self, key):
                    return self._entries.get(key)
            """)
        assert codes(result) == []

    def test_scope_config_limits_rule(self, tmp_path):
        config = Config(root=tmp_path, r112_scope=("pkg/serving",))
        source = """\
            class TinyCache:
                def __init__(self):
                    self._d = {}

                def put(self, k, v):
                    self._d[k] = v
            """
        in_scope = lint_source(tmp_path, textwrap.dedent(source),
                               filename="pkg/serving/a.py",
                               select=["R112"], config=config)
        out_of_scope = lint_source(tmp_path, textwrap.dedent(source),
                                   filename="pkg/other/b.py",
                                   select=["R112"], config=config)
        assert codes(in_scope) == ["R112"]
        assert codes(out_of_scope) == []


class TestNewFamilyAutofixes:
    def test_np_load_gains_mmap_mode(self, tmp_path):
        path = write(tmp_path, """\
            import numpy as np

            def load(path):
                return np.load(path)
            """)
        result = fix_paths([str(path)], Config(root=tmp_path),
                           ["R111"])
        assert 'np.load(path, mmap_mode="r")' in path.read_text()
        assert result.total == 1
        second = fix_paths([str(path)], Config(root=tmp_path),
                           ["R111"])
        assert second.total == 0

    def test_suppressed_lines_not_fixed(self, tmp_path):
        path = write(tmp_path, textwrap.dedent("""\
            import numpy as np

            def load(path):
                return np.load(path)  # reprolint: disable=R111 eager ok
            """))
        result = fix_paths([str(path)], Config(root=tmp_path),
                           ["R111"])
        assert result.total == 0
        assert "mmap_mode" not in path.read_text()

    def test_fix_respects_r111_scope(self, tmp_path):
        config = Config(root=tmp_path, r111_scope=("hot",))
        cold = write(tmp_path, """\
            import numpy as np

            def load(path):
                return np.load(path)
            """, filename="cold/loader.py")
        before = cold.read_text()
        result = fix_paths([str(cold)], config, ["R111"])
        assert result.total == 0
        assert cold.read_text() == before


class TestCacheJobsInteraction:
    def _tree(self, tmp_path):
        for index in range(5):
            write(tmp_path,
                  "import scipy.sparse as sp\n"
                  f"M{index} = sp.csr_matrix((3, {index + 4}))\n"
                  f"bad{index} = M{index}.toarray()\n"
                  f"flag{index} = {index} == 1.5\n",
                  filename=f"pkg/m{index}.py")
        return Config(root=tmp_path), tmp_path / "cache.json"

    def test_warm_multiprocess_run_replays_identical(self, tmp_path):
        config, cache = self._tree(tmp_path)
        cold = lint_paths([str(tmp_path / "pkg")], config=config,
                          select=["R002", "R004"], cache=str(cache),
                          jobs=2)
        warm = lint_paths([str(tmp_path / "pkg")], config=config,
                          select=["R002", "R004"], cache=str(cache),
                          jobs=2)
        assert cold.cache_misses == 5 and cold.cache_hits == 0
        assert warm.cache_hits == 5 and warm.cache_misses == 0
        assert [v.render() for v in cold.violations] == \
            [v.render() for v in warm.violations]
        assert len(cold.violations) == 10  # one R002 + one R004 each

    def test_serial_warm_replays_multiprocess_cold(self, tmp_path):
        config, cache = self._tree(tmp_path)
        cold = lint_paths([str(tmp_path / "pkg")], config=config,
                          select=["R002", "R004"], cache=str(cache),
                          jobs=2)
        warm = lint_paths([str(tmp_path / "pkg")], config=config,
                          select=["R002", "R004"], cache=str(cache),
                          jobs=1)
        assert warm.cache_hits == 5
        assert [v.render() for v in cold.violations] == \
            [v.render() for v in warm.violations]

    def test_corrupt_cache_under_jobs_fails_open(self, tmp_path):
        config, cache = self._tree(tmp_path)
        lint_paths([str(tmp_path / "pkg")], config=config,
                   select=["R002", "R004"], cache=str(cache), jobs=2)
        cache.write_text('{"broken": ')
        result = lint_paths([str(tmp_path / "pkg")], config=config,
                            select=["R002", "R004"], cache=str(cache),
                            jobs=2)
        assert result.cache_hits == 0
        assert len(result.violations) == 10
        # The run rewrites a valid cache behind itself.
        rewarm = lint_paths([str(tmp_path / "pkg")], config=config,
                            select=["R002", "R004"], cache=str(cache),
                            jobs=2)
        assert rewarm.cache_hits == 5
