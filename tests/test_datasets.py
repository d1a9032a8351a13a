"""The synthetic task generator against its per-sample loop."""

import numpy as np
import pytest

from lognet.datasets import make_pattern_dataset
from lognet.lognum import DomainError
from oracles import pattern_dataset_ref

PARAMETER_SETS = [
    dict(classes=10, size=12, seed=1002, template_seed=100),
    dict(classes=3, size=7, seed=5, shift=1, noise=0.4),
]


@pytest.mark.parametrize("params", PARAMETER_SETS, ids=["benchmark_task", "small_noisy"])
# 2000 12x12 samples take two blocks of DRAW_BLOCK values
@pytest.mark.parametrize("n", [0, 1, 7, 1024, 2000])
def test_pattern_dataset_matches_per_sample_oracle(n, params):
    images, labels = make_pattern_dataset(n, **params)
    want_images, want_labels = pattern_dataset_ref(n, **params)
    assert images.dtype == want_images.dtype and images.shape == want_images.shape
    assert images.tobytes() == want_images.tobytes()
    assert labels.dtype == want_labels.dtype and labels.tobytes() == want_labels.tobytes()


@pytest.mark.parametrize("kwargs, message", [
    (dict(n=-1), "n must be >= 0, got -1"),
    (dict(n=4, classes=0), "classes must be >= 1, got 0"),
    (dict(n=4, size=0), "size must be >= 1, got 0"),
    (dict(n=4, noise=-1.0), "noise must be >= 0, got -1.0"),
    (dict(n=4, noise=float("nan")), "noise must be >= 0, got nan"),
])
def test_pattern_dataset_refusals(kwargs, message):
    with pytest.raises(DomainError, match=message):
        make_pattern_dataset(**kwargs)
