"""Tests for tools/reprolint: every rule, suppressions, config, CLI."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tools.reprolint import lint_paths, main as reprolint_main
from tools.reprolint.config import Config, ConfigError, load_config
from tools.reprolint.reporters import render_json, render_text

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_source(tmp_path, source, *, filename="mod.py", select=None,
                config=None):
    """Write ``source`` under ``tmp_path`` and lint just that file."""
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    cfg = config if config is not None else Config(root=tmp_path)
    return lint_paths([str(path)], config=cfg, select=select)


def codes(result):
    return [violation.rule for violation in result.violations]


class TestR001RngDiscipline:
    def test_flags_legacy_sampling_call(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy as np
            x = np.random.rand(3)
            """, select=["R001"])
        assert codes(result) == ["R001"]
        assert "as_generator" in result.violations[0].message

    def test_flags_global_seed_with_dedicated_message(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy as np
            np.random.seed(1234)
            """, select=["R001"])
        assert codes(result) == ["R001"]
        assert "np.random.seed" in result.violations[0].message

    def test_flags_direct_import_and_aliases(self, tmp_path):
        result = lint_source(tmp_path, """\
            from numpy.random import default_rng
            from numpy import random as nprand
            rng = default_rng(0)
            y = nprand.normal(size=4)
            """, select=["R001"])
        assert codes(result) == ["R001", "R001"]

    def test_silent_on_generator_discipline(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy as np

            from repro.utils.rng import as_generator

            def sample(seed=None):
                rng = as_generator(seed)
                return rng.normal(size=3)

            def annotated(rng: np.random.Generator) -> np.ndarray:
                return rng.standard_normal(2)
            """, select=["R001"])
        assert codes(result) == []

    def test_allowlisted_file_is_exempt(self, tmp_path):
        config = Config(root=tmp_path, r001_allow=("rngmod.py",))
        result = lint_source(tmp_path, """\
            import numpy as np
            rng = np.random.default_rng(0)
            """, filename="rngmod.py", select=["R001"], config=config)
        assert codes(result) == []


class TestR002FloatEquality:
    def test_flags_equality_against_float_literal(self, tmp_path):
        result = lint_source(tmp_path, """\
            def f(x, y):
                return x == 1.5 or y != -0.25
            """, select=["R002"])
        assert codes(result) == ["R002", "R002"]

    def test_silent_on_ordering_and_integer_literals(self, tmp_path):
        result = lint_source(tmp_path, """\
            def f(x, norm):
                if norm == 0:
                    return 0
                return x < 1.5 and x >= 0.25 and x != 3
            """, select=["R002"])
        assert codes(result) == []


class TestR003MutableDefault:
    def test_flags_literal_and_constructor_defaults(self, tmp_path):
        result = lint_source(tmp_path, """\
            def f(a=[], b={}, *, c=set()):
                return a, b, c

            g = lambda xs=[1, 2]: xs
            """, select=["R003"])
        assert codes(result) == ["R003"] * 4

    def test_silent_on_immutable_defaults(self, tmp_path):
        result = lint_source(tmp_path, """\
            def f(a=None, b=(), c="x", *, d=frozenset()):
                return a, b, c, d
            """, select=["R003"])
        assert codes(result) == []


class TestR004DenseMaterialization:
    def test_flags_densifying_methods(self, tmp_path):
        result = lint_source(tmp_path, """\
            def f(matrix, op):
                return matrix.toarray(), op.to_dense()
            """, select=["R004"])
        assert codes(result) == ["R004", "R004"]

    def test_flags_asarray_on_sparse_constructed_name(self, tmp_path):
        result = lint_source(tmp_path, """\
            import numpy as np
            import scipy.sparse as sp

            def f():
                matrix = sp.csr_matrix((3, 3))
                return np.asarray(matrix)
            """, select=["R004"])
        assert codes(result) == ["R004"]
        assert "np.asarray(matrix)" in result.violations[0].message

    def test_silent_on_dense_inputs_and_allowlist(self, tmp_path):
        clean = lint_source(tmp_path, """\
            import numpy as np

            def f(rows):
                return np.asarray(rows, dtype=np.float64)
            """, select=["R004"])
        assert codes(clean) == []
        config = Config(root=tmp_path, r004_allow=("dense_ok.py",))
        allowed = lint_source(tmp_path, """\
            def f(op):
                return op.to_dense()
            """, filename="dense_ok.py", select=["R004"], config=config)
        assert codes(allowed) == []


class TestR005OverbroadExcept:
    def test_flags_bare_and_swallowing_broad_except(self, tmp_path):
        result = lint_source(tmp_path, """\
            def f():
                try:
                    risky()
                except:
                    pass

            def g():
                try:
                    risky()
                except Exception:
                    return None
            """, select=["R005"])
        assert codes(result) == ["R005", "R005"]
        assert "bare except" in result.violations[0].message

    def test_silent_on_specific_or_reraising_handlers(self, tmp_path):
        result = lint_source(tmp_path, """\
            def f():
                try:
                    risky()
                except (ValueError, KeyError):
                    return None

            def g():
                try:
                    risky()
                except Exception:
                    cleanup()
                    raise
            """, select=["R005"])
        assert codes(result) == []


class TestR006AllConsistency:
    def test_flags_missing_dunder_all(self, tmp_path):
        result = lint_source(tmp_path, """\
            def public():
                return 1
            """, select=["R006"])
        assert codes(result) == ["R006"]
        assert "no __all__" in result.violations[0].message

    def test_flags_undefined_and_duplicate_exports(self, tmp_path):
        result = lint_source(tmp_path, """\
            __all__ = ["existing", "ghost", "existing"]

            def existing():
                return 1
            """, select=["R006"])
        messages = [violation.message for violation in result.violations]
        assert codes(result) == ["R006", "R006"]
        assert any("ghost" in message for message in messages)
        assert any("more than once" in message for message in messages)

    def test_flags_non_literal_dunder_all(self, tmp_path):
        result = lint_source(tmp_path, """\
            names = ["a"]
            __all__ = names
            """, select=["R006"])
        assert codes(result) == ["R006"]
        assert "literal" in result.violations[0].message

    def test_silent_on_honest_all_and_private_modules(self, tmp_path):
        clean = lint_source(tmp_path, """\
            from os.path import join

            __all__ = ["CONST", "Klass", "fn", "join"]

            CONST = 3

            class Klass:
                pass

            def fn():
                return CONST
            """, select=["R006"])
        assert codes(clean) == []
        private = lint_source(tmp_path, """\
            def helper():
                return 1
            """, filename="_private.py", select=["R006"])
        assert codes(private) == []

    def test_exempt_list_via_config(self, tmp_path):
        config = Config(root=tmp_path, r006_exempt=("legacy.py",))
        result = lint_source(tmp_path, """\
            def public():
                return 1
            """, filename="legacy.py", select=["R006"], config=config)
        assert codes(result) == []


class TestR007ImportCycles:
    @staticmethod
    def _package(tmp_path, files):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "__init__.py").write_text("")
        for name, body in files.items():
            (package / name).write_text(textwrap.dedent(body))
        return package

    def test_flags_two_module_cycle(self, tmp_path):
        package = self._package(tmp_path, {
            "alpha.py": "from pkg import beta\n",
            "beta.py": "import pkg.alpha\n",
        })
        result = lint_paths([str(package)],
                            config=Config(root=tmp_path),
                            select=["R007"])
        assert codes(result) == ["R007"]
        message = result.violations[0].message
        assert "pkg.alpha" in message and "pkg.beta" in message

    def test_flags_relative_import_cycle(self, tmp_path):
        package = self._package(tmp_path, {
            "alpha.py": "from .beta import thing\n",
            "beta.py": "from .alpha import other\n",
        })
        result = lint_paths([str(package)],
                            config=Config(root=tmp_path),
                            select=["R007"])
        assert codes(result) == ["R007"]

    def test_silent_on_acyclic_and_function_level_imports(self, tmp_path):
        package = self._package(tmp_path, {
            "alpha.py": "from pkg import beta\n",
            "beta.py": ("def late():\n"
                        "    from pkg import alpha\n"
                        "    return alpha\n"),
        })
        result = lint_paths([str(package)],
                            config=Config(root=tmp_path),
                            select=["R007"])
        assert codes(result) == []


class TestSuppressions:
    def test_matching_code_suppresses(self, tmp_path):
        result = lint_source(tmp_path, """\
            def f(x):
                return x == 1.5  # reprolint: disable=R002
            """, select=["R002"])
        assert codes(result) == []

    def test_suppression_may_carry_rationale(self, tmp_path):
        result = lint_source(tmp_path, """\
            def f(op):
                return op.to_dense()  # reprolint: disable=R004  tiny block
            """, select=["R004"])
        assert codes(result) == []

    def test_bare_disable_silences_every_rule(self, tmp_path):
        result = lint_source(tmp_path, """\
            def f(x, op):
                return x == 1.5 and op.to_dense()  # reprolint: disable
            """, select=["R002", "R004"])
        assert codes(result) == []

    def test_other_code_does_not_suppress(self, tmp_path):
        result = lint_source(tmp_path, """\
            def f(x):
                return x == 1.5  # reprolint: disable=R004
            """, select=["R002"])
        assert codes(result) == ["R002"]


class TestConfigLoading:
    def test_reads_tool_table_with_dashed_keys(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(textwrap.dedent("""\
            [tool.reprolint]
            select = ["R001", "R004"]
            r001-allow = ["src/pkg/rng.py"]
            r004-allow = [
                "src/pkg/linalg",
            ]
            """))
        config = load_config(pyproject)
        assert config.select == ("R001", "R004")
        assert config.r001_allow == ("src/pkg/rng.py",)
        assert config.root == tmp_path

    def test_path_matching_covers_files_globs_directories(self, tmp_path):
        config = Config(root=tmp_path,
                        r004_allow=("src/linalg", "src/*_exp.py"))
        assert config.path_matches(tmp_path / "src/linalg/svd.py",
                                   config.r004_allow)
        assert config.path_matches(tmp_path / "src/fkv_exp.py",
                                   config.r004_allow)
        assert not config.path_matches(tmp_path / "src/core/lsi.py",
                                       config.r004_allow)

    def test_unknown_key_and_bad_select_raise(self, tmp_path):
        bad_key = tmp_path / "pyproject.toml"
        bad_key.write_text("[tool.reprolint]\nr9-allow = [\"x\"]\n")
        with pytest.raises(ConfigError):
            load_config(bad_key)
        bad_select = tmp_path / "other.toml"
        bad_select.write_text("[tool.reprolint]\nselect = [\"R999\"]\n")
        with pytest.raises(ConfigError):
            load_config(bad_select)

    def test_missing_pyproject_yields_defaults(self, tmp_path):
        config = load_config(start=tmp_path)
        assert config.select == ("R001", "R002", "R003", "R004",
                                 "R005", "R006", "R007",
                                 "R111", "R112",
                                 "R113", "R120")
        assert config.r001_allow == ()


class TestReporters:
    def _result(self, tmp_path):
        return lint_source(tmp_path, """\
            def f(x):
                return x == 1.5
            """, select=["R002"])

    def test_text_reporter_lists_and_summarises(self, tmp_path):
        text = render_text(self._result(tmp_path))
        assert "mod.py:2:11: R002" in text
        assert "1 violation in 1 file(s) checked" in text

    def test_text_reporter_clean_summary(self, tmp_path):
        result = lint_source(tmp_path, "x = 1\n", select=["R002"])
        assert render_text(result) == "clean: 1 file(s) checked"

    def test_json_reporter_structure(self, tmp_path):
        document = json.loads(render_json(self._result(tmp_path)))
        assert document["files_checked"] == 1
        assert document["violation_count"] == 1
        assert document["violations_by_rule"] == {"R002": 1}
        violation = document["violations"][0]
        assert violation["rule"] == "R002"
        assert violation["path"].endswith("mod.py")
        assert violation["line"] == 2

    def test_syntax_errors_surface_as_e999(self, tmp_path):
        result = lint_source(tmp_path, "def broken(:\n",
                             select=["R002"])
        assert codes(result) == ["E999"]


class TestReprolintCli:
    def test_violations_exit_1_and_json_output(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text("import numpy as np\nnp.random.seed(0)\n")
        exit_code = reprolint_main(
            [str(target), "--format", "json", "--select", "R001"])
        assert exit_code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["violations_by_rule"] == {"R001": 1}

    def test_clean_run_exits_0(self, tmp_path, capsys):
        target = tmp_path / "good.py"
        target.write_text("__all__ = [\"x\"]\n\nx = 1\n")
        assert reprolint_main([str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_bad_select_and_missing_path_exit_2(self, tmp_path, capsys):
        assert reprolint_main(["--select", "R999"]) == 2
        assert reprolint_main([str(tmp_path / "nope.py")]) == 2
        errors = capsys.readouterr().err
        assert "unknown rule code" in errors
        assert "no such path" in errors

    def test_list_rules(self, capsys):
        assert reprolint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("R001", "R004", "R007"):
            assert code in out

    def test_list_rules_includes_v2_families(self, capsys):
        assert reprolint_main(["--list-rules"]) == 0
        listed = [line.split()[0]
                  for line in capsys.readouterr().out.splitlines()]
        assert listed == ["R001", "R002", "R003", "R004", "R005",
                          "R006", "R007", "R111", "R112", "R113",
                          "R120"]

    def test_cache_flag_round_trips(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text("[tool.reprolint]\n")
        target = tmp_path / "good.py"
        target.write_text("__all__ = [\"x\"]\n\nx = 1\n")
        pyproject = str(tmp_path / "pyproject.toml")
        cache = tmp_path / "lint.cache"
        assert reprolint_main(["--config", pyproject, "--cache-file",
                               str(cache), str(target)]) == 0
        assert cache.exists()
        assert reprolint_main(["--config", pyproject, "--cache-file",
                               str(cache), str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_jobs_flag_accepted(self, tmp_path, capsys):
        target = tmp_path / "good.py"
        target.write_text("__all__ = [\"x\"]\n\nx = 1\n")
        assert reprolint_main([str(target), "--jobs", "2"]) == 0
        assert "clean" in capsys.readouterr().out


#: A clean public module except for one raw generator construction.
_RAW_RNG_PROBE = '''\
"""Probe module."""

import numpy as np

__all__ = ["draw"]


def draw():
    return np.random.default_rng(0)
'''


def _removed_option_cases():
    for code in ("R100", "R101", "R102", "R110"):
        for route in ("module", "repro"):
            yield pytest.param(route, ["--select", code], None, 2, None,
                               id=f"{route}-select-{code}")
    # No --config: the project root stays the repository checkout, so
    # an exit of 2 can only come from rejecting the flag itself.
    yield pytest.param("module", ["--changed"], None, 2, None,
                       id="changed")
    for key in ("r100-scope", "r101-allow", "r102-exempt", "r110-scope"):
        yield pytest.param("module", [], f'{key} = ["src"]\n', 2, None,
                           id=f"config-{key}")
    yield pytest.param("module", [], "", 1, {"R001": 1},
                       id="default-rng-is-r001")


class TestRemovedOptionsFailLoudly:
    """Rule codes, flags and config keys of deleted families are usage
    errors, and raw generator construction still reports under R001."""

    @pytest.mark.parametrize("route, args, table, exit_code, by_rule",
                             _removed_option_cases())
    def test_removed_option(self, tmp_path, route, args, table,
                            exit_code, by_rule):
        probe = tmp_path / "probe.py"
        probe.write_text(_RAW_RNG_PROBE)
        argv = [*args, "--format", "json", "--cache-file",
                str(tmp_path / "cache.json"), str(probe)]
        if table is not None:
            pyproject = tmp_path / "pyproject.toml"
            pyproject.write_text("[tool.reprolint]\n" + table)
            argv += ["--config", str(pyproject)]
        if route == "module":
            proc = subprocess.run(
                [sys.executable, "-m", "tools.reprolint", *argv],
                cwd=REPO_ROOT, capture_output=True, text=True,
                timeout=120, check=False)
            code, out = proc.returncode, proc.stdout
        else:
            from repro.cli import main as repro_main

            code, out = repro_main(["lint", *argv]), ""
        assert code == exit_code
        if by_rule is not None:
            assert json.loads(out)["violations_by_rule"] == by_rule


class TestRepoCliLintSubcommand:
    def test_repro_lint_select_on_fixture(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        target = tmp_path / "bad.py"
        target.write_text("def f(a=[]):\n    return a\n")
        exit_code = repro_main(["lint", str(target), "--format", "json",
                                "--select", "R003"])
        assert exit_code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["violations_by_rule"] == {"R003": 1}

    def test_repro_lint_list_rules(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["lint", "--list-rules"]) == 0
        assert "R006" in capsys.readouterr().out

    def test_repro_lint_fix_check_passthrough(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        (tmp_path / "pyproject.toml").write_text("[tool.reprolint]\n")
        target = tmp_path / "bad.py"
        target.write_text("def f(a=[]):\n    return a\n")
        exit_code = repro_main(["lint", str(target), "--config",
                                str(tmp_path / "pyproject.toml"),
                                "--fix", "--check", "--select",
                                "R003"])
        assert exit_code == 1
        assert "pending" in capsys.readouterr().out
        # --check never writes.
        assert target.read_text() == "def f(a=[]):\n    return a\n"

    def test_repro_lint_sarif_format_passthrough(self, tmp_path,
                                                 capsys):
        from repro.cli import main as repro_main

        target = tmp_path / "bad.py"
        target.write_text("import numpy as np\nnp.random.seed(0)\n")
        exit_code = repro_main(["lint", str(target), "--format",
                                "sarif", "--select", "R001"])
        assert exit_code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"


class TestRepositoryIsClean:
    def test_src_tree_passes_reprolint(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        result = lint_paths([str(REPO_ROOT / "src" / "repro")],
                            config=config)
        rendered = render_text(result)
        assert result.exit_code == 0, rendered
        assert result.files_checked > 80
