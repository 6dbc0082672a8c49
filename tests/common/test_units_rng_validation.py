"""Unit tests for units, RNG helpers and validation utilities."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common import units
from repro.common.errors import ValidationError
from repro.common.rng import iter_seeds, stream_for
from repro.common.validation import require_non_empty


class TestUnits:
    def test_gb_seconds(self):
        assert units.gb_seconds(1024, 10) == pytest.approx(10.0)

    def test_format_usd_large(self):
        assert units.format_usd(1234.5) == "$1,234.50"

    def test_format_usd_small(self):
        assert units.format_usd(0.0000123).startswith("$0.0000")

    def test_format_duration_buckets(self):
        assert "ms" in units.format_duration(0.01)
        assert units.format_duration(5.0).endswith(" s")
        assert "min" in units.format_duration(300)
        assert units.format_duration(10_000).endswith(" h")


class TestRng:
    def test_stream_for_stable(self):
        a = stream_for(1, "x", 2).random()
        b = stream_for(1, "x", 2).random()
        assert a == b

    def test_stream_for_distinct_labels(self):
        assert stream_for(1, "x").random() != stream_for(1, "y").random()

    def test_iter_seeds_distinct(self):
        seeds = list(iter_seeds(0, 10))
        assert len(set(seeds)) == 10

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_stream_for_any_seed(self, seed):
        rng = stream_for(seed, "prop")
        assert isinstance(rng, np.random.Generator)


class TestValidation:
    def test_require_non_empty(self):
        assert require_non_empty([1], "x") == [1]
        with pytest.raises(ValidationError):
            require_non_empty([], "x")
