"""Tests for the utilities: RNG plumbing, validation, timing, tables."""

import time

import numpy as np
import pytest

from repro.errors import (
    DistributionError,
    ShapeError,
    ValidationError,
)
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.tables import Table, format_float, render_tables
from repro.utils.timing import Timer, time_callable
from repro.utils.validation import (
    check_fraction,
    check_matrix,
    check_non_negative_int,
    check_positive_int,
    check_probability_vector,
    check_rank,
    check_same_length,
    check_stochastic_matrix,
    check_vector,
)


class TestRNG:
    def test_as_generator_from_int_reproducible(self):
        a = as_generator(42).integers(0, 1000, 10)
        b = as_generator(42).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_as_generator_passthrough(self):
        rng = np.random.default_rng(0)
        assert as_generator(rng) is rng

    def test_as_generator_none(self):
        assert isinstance(as_generator(None), np.random.Generator)

    def test_spawn_independent_streams(self):
        streams = spawn_generators(7, 3)
        draws = [s.integers(0, 10**9) for s in streams]
        assert len(set(draws)) == 3

    def test_spawn_reproducible(self):
        a = [g.integers(0, 10**9) for g in spawn_generators(7, 3)]
        b = [g.integers(0, 10**9) for g in spawn_generators(7, 3)]
        assert a == b

    def test_spawn_from_generator(self):
        parent = np.random.default_rng(1)
        children = spawn_generators(parent, 2)
        assert len(children) == 2

    def test_spawn_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_generators(0, -1)

    def test_spawn_zero_count(self):
        assert spawn_generators(0, 0) == []


class TestValidation:
    def test_positive_int_accepts(self):
        assert check_positive_int(5, "x") == 5
        assert check_positive_int(np.int64(3), "x") == 3

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "3", True])
    def test_positive_int_rejects(self, bad):
        with pytest.raises(ValidationError):
            check_positive_int(bad, "x")

    def test_non_negative_int(self):
        assert check_non_negative_int(0, "x") == 0
        with pytest.raises(ValidationError):
            check_non_negative_int(-1, "x")

    def test_fraction_bounds(self):
        assert check_fraction(0.5, "x") == 0.5
        assert check_fraction(0.0, "x") == 0.0
        assert check_fraction(1.0, "x") == 1.0
        with pytest.raises(ValidationError):
            check_fraction(0.0, "x", inclusive_low=False)
        with pytest.raises(ValidationError):
            check_fraction(1.0, "x", inclusive_high=False)
        with pytest.raises(ValidationError):
            check_fraction(1.5, "x")
        with pytest.raises(ValidationError):
            check_fraction(float("nan"), "x")

    @pytest.mark.parametrize("bad", [True, np.bool_(False), "0.5", "abc",
                                     None])
    def test_fraction_rejects_non_numbers(self, bad):
        # Checked before any conversion: float() would accept a bool or
        # a numeric string, and raise a bare ValueError on "abc".
        with pytest.raises(ValidationError, match="must be a number"):
            check_fraction(bad, "x")

    def test_matrix_checks(self):
        assert check_matrix([[1, 2]], "m").shape == (1, 2)
        with pytest.raises(ShapeError):
            check_matrix([1, 2], "m")
        with pytest.raises(ValidationError):
            check_matrix([[np.inf]], "m")

    def test_vector_checks(self):
        assert check_vector([1, 2], "v").shape == (2,)
        with pytest.raises(ShapeError):
            check_vector([[1, 2]], "v")

    def test_probability_vector(self):
        check_probability_vector([0.25, 0.75], "p")
        with pytest.raises(DistributionError):
            check_probability_vector([0.5, 0.6], "p")
        with pytest.raises(DistributionError):
            check_probability_vector([-0.1, 1.1], "p")
        with pytest.raises(DistributionError):
            check_probability_vector([], "p")

    def test_stochastic_matrix(self):
        check_stochastic_matrix(np.eye(3), "s")
        with pytest.raises(DistributionError):
            check_stochastic_matrix(np.ones((2, 2)), "s")
        with pytest.raises(ShapeError):
            check_stochastic_matrix(np.ones((2, 3)) / 3, "s")

    def test_rank_check(self):
        from repro.errors import RankError

        assert check_rank(3, 5) == 3
        with pytest.raises(RankError):
            check_rank(6, 5)

    def test_same_length(self):
        check_same_length([1], [2], "a", "b")
        with pytest.raises(ShapeError):
            check_same_length([1], [2, 3], "a", "b")


class TestTimer:
    def test_accumulates(self):
        timer = Timer()
        for _ in range(3):
            with timer:
                time.sleep(0.005)
        assert timer.entries == 3
        assert timer.total_seconds >= 0.015
        assert timer.mean_seconds == pytest.approx(
            timer.total_seconds / 3)

    def test_reset(self):
        timer = Timer()
        with timer:
            pass
        timer.reset()
        assert timer.entries == 0
        assert timer.total_seconds == 0.0
        assert timer.mean_seconds == 0.0

    def test_time_callable_returns_result(self):
        result, timer = time_callable(lambda a, b: a + b, 2, b=3,
                                      repeats=2)
        assert result == 5
        assert timer.entries == 2

    def test_time_callable_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, repeats=0)


class TestTables:
    def test_format_float(self):
        assert format_float(None) == "-"
        assert format_float(float("nan")) == "-"
        assert format_float(3.0) == "3"
        assert format_float(0.12345, 3) == "0.123"
        assert format_float("text") == "text"

    def test_render_alignment(self):
        table = Table(title="T", headers=["a", "bb"])
        table.add_row([1, 2.5])
        table.add_row([100, 0.001])
        rendered = table.render()
        lines = rendered.split("\n")
        assert lines[0] == "T"
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_str_equals_render(self):
        table = Table(headers=["x"])
        table.add_row([1])
        assert str(table) == table.render()

    def test_empty_table(self):
        assert Table(title="empty").render() == "empty"

    def test_render_tables_joins(self):
        a = Table(headers=["x"])
        a.add_row([1])
        b = Table(headers=["y"])
        b.add_row([2])
        assert render_tables([a, b]).count("\n\n") == 1

    def test_ragged_rows_padded(self):
        table = Table(headers=["a", "b", "c"])
        table.add_row([1])
        assert "1" in table.render()
