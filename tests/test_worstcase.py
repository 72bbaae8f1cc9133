"""Tests for the instance generators."""

import numpy as np
import pytest

from crossclust import (
    SplitMix64,
    ValidationError,
    planted_real_matrix,
    random_binary_matrix,
    random_real_matrix,
    worst_case_matrix,
    worst_case_report,
)
from crossclust.rng import uniforms


class TestSplitMix64:
    def test_reference_vector(self):
        # published first outputs for seed 0
        rng = SplitMix64(0)
        assert [rng.next_uint64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_random_unit_interval(self):
        rng = SplitMix64(123)
        for _ in range(100):
            assert 0.0 <= rng.random() < 1.0

    def test_randint_below(self):
        rng = SplitMix64(5)
        assert all(0 <= rng.randint_below(7) < 7 for _ in range(50))
        with pytest.raises(ValidationError):
            rng.randint_below(0)


class TestWorstCaseFamily:
    def test_q1_exact_matrix(self):
        x = worst_case_matrix(1)
        assert x.is_binary
        assert x.values.tolist() == [
            [0.0, 1.0, 0.0],
            [0.0, 1.0, 1.0],
            [1.0, 0.0, 0.0],
            [1.0, 0.0, 1.0],
        ]

    @pytest.mark.parametrize("q", [1, 2, 3, 7, 25, 100])
    def test_dimensions_and_ones_count(self, q):
        x = worst_case_matrix(q)
        assert x.shape == (4, 4 * q - 1)
        assert int(x.values.sum()) == 8 * q - 2
        assert [int(s) for s in x.values.sum(axis=1)] == [q, 3 * q - 1, q, 3 * q - 1]

    def test_shape_and_invalid_q(self):
        assert worst_case_matrix(3).shape == (4, 11)
        assert worst_case_matrix(3).is_binary
        with pytest.raises(ValidationError, match=r"^q must be >= 1, got 0$"):
            worst_case_matrix(0)

    @pytest.mark.parametrize("q", [1, 2, 3, 10])
    def test_report_passes(self, q):
        rep = worst_case_report(q)
        assert rep.passed, rep.failures
        assert rep.l_scheme == 8 * q - 2
        assert rep.l_star == 4 * q
        assert rep.scheme_rows.assignment == (0, 0, 1, 1)
        assert rep.optimal_rows.assignment == (0, 1, 0, 1)

    def test_q1_and_q2_ratios(self):
        assert worst_case_report(1).ratio == pytest.approx(1.5)
        assert worst_case_report(2).ratio == pytest.approx(1.75)

    def test_ratio_sequence_increasing_below_two(self):
        ratios = [(8 * q - 2) / (4 * q) for q in range(1, 101)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert all(r < 2.0 for r in ratios)
        # spot-check the closed form against full runs
        assert worst_case_report(3).ratio == pytest.approx(ratios[2])


class TestRandomGenerators:
    def test_probability_extremes(self):
        assert random_binary_matrix(3, 4, 0.0, seed=1).values.sum() == 0.0
        assert random_binary_matrix(3, 4, 1.0, seed=1).values.sum() == 12.0

    def test_binary_determinism(self):
        a = random_binary_matrix(6, 5, 0.3, seed=42)
        b = random_binary_matrix(6, 5, 0.3, seed=42)
        assert np.array_equal(a.values, b.values)
        c = random_binary_matrix(6, 5, 0.3, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_invalid_probability(self):
        with pytest.raises(ValidationError):
            random_binary_matrix(2, 2, 1.5, seed=1)

    def test_invalid_dimensions(self):
        with pytest.raises(ValidationError):
            random_real_matrix(0, 2, seed=1)

    def test_real_range_and_determinism(self):
        x = random_real_matrix(4, 4, seed=9)
        assert not x.is_binary
        assert np.all((x.values >= 0.0) & (x.values < 1.0))
        assert np.array_equal(x.values, random_real_matrix(4, 4, seed=9).values)

    def test_real_1x1(self):
        x = random_real_matrix(1, 1, seed=2)
        assert x.shape == (1, 1)

    def test_planted_structure(self):
        x = planted_real_matrix(6, 6, seed=7)
        assert not x.is_binary
        # each quadrant is within 0.05 of its level, the stream's first four draws
        levels = uniforms([7], [4]).reshape(2, 2)
        for i in range(2):
            for j in range(2):
                quadrant = x.values[3 * i : 3 * i + 3, 3 * j : 3 * j + 3]
                assert np.abs(quadrant - levels[i, j]).max() <= 0.05

    def test_planted_determinism(self):
        a = planted_real_matrix(5, 4, seed=3)
        b = planted_real_matrix(5, 4, seed=3)
        assert np.array_equal(a.values, b.values)
