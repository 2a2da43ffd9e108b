"""Tests for the shared helper utilities."""

import pytest

from repro._util import (
    almost_equal,
    check_nonnegative,
    check_positive,
    coefficient_of_variation,
    cumulative_sums,
    format_seconds,
    mean,
    ordered_sum,
    require,
)
from repro.errors import ReproError


class TestValidation:
    def test_require_passes_and_raises(self):
        require(True, ReproError, "fine")
        with pytest.raises(ReproError, match="broken"):
            require(False, ReproError, "broken")

    @pytest.mark.parametrize("value", [1, 0.5, 1e9])
    def test_check_positive_accepts(self, value):
        check_positive("x", value, ReproError)

    @pytest.mark.parametrize("value", [0, -1, float("inf"), float("nan"), "3", True])
    def test_check_positive_rejects(self, value):
        with pytest.raises(ReproError):
            check_positive("x", value, ReproError)

    @pytest.mark.parametrize("value", [0, 0.0, 5])
    def test_check_nonnegative_accepts(self, value):
        check_nonnegative("x", value, ReproError)

    @pytest.mark.parametrize("value", [-1e-9, float("nan"), None, False])
    def test_check_nonnegative_rejects(self, value):
        with pytest.raises(ReproError):
            check_nonnegative("x", value, ReproError)


class TestNumerics:
    def test_almost_equal(self):
        assert almost_equal(1.0, 1.0 + 1e-12)
        assert not almost_equal(1.0, 1.01)

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    def test_coefficient_of_variation(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0
        assert coefficient_of_variation([1.0]) == 0.0
        assert coefficient_of_variation([]) == 0.0
        # mean 10, unbiased sample sd = sqrt(8) ~= 2.828 -> CoV ~= 0.283
        assert coefficient_of_variation([8.0, 12.0]) == pytest.approx(0.28284, rel=1e-3)

    def test_cov_zero_mean(self):
        assert coefficient_of_variation([-1.0, 1.0]) == 0.0

    def test_ordered_sum_adds_left_to_right(self):
        # a compensated sum (the builtin on Python >= 3.12) gives 2.0 here
        assert ordered_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
        assert ordered_sum(x for x in (0.1, 0.2, 0.3)) == (0.1 + 0.2) + 0.3
        assert ordered_sum([]) == 0.0

    def test_cumulative_sums(self):
        assert cumulative_sums([1.0, 2.0, 3.0]) == [1.0, 3.0, 6.0]
        assert cumulative_sums([]) == []


class TestFormatting:
    @pytest.mark.parametrize("seconds,expected", [
        (0.0, "0.00s"),
        (5.25, "5.25s"),
        (65.0, "1m 05s"),
        (3661.0, "1h 01m 01s"),
        (7200.0, "2h 00m 00s"),
    ])
    def test_format_seconds(self, seconds, expected):
        assert format_seconds(seconds) == expected

    def test_negative_duration(self):
        assert format_seconds(-65.0) == "-1m 05s"
