"""``top_selection`` rejects NaN wherever it sits.

The single-winner paths find NaN through ``argmax`` (which returns the
first NaN when there is one) instead of a separate ``isnan`` scan; the
multi-winner paths keep the scan.  Every position and both tie-breaks
must still raise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ranking import top_selection

NAN = float("nan")


@pytest.mark.parametrize("tie_break", ["random", "index"])
@pytest.mark.parametrize("n_select", [1, 2])
@pytest.mark.parametrize(
    "scores",
    [
        [NAN, 0.5, 0.9, 0.1],
        [0.5, 0.9, NAN, 0.1],
        [0.5, 0.9, 0.1, NAN],
        [0.5, 0.9, NAN, 0.9],
        [np.inf, NAN, 0.1, 0.2],
        [NAN, NAN, NAN, NAN],
        [NAN],
    ],
    ids=["first", "middle", "last", "beside-tie", "beside-inf", "all", "alone"],
)
def test_nan_anywhere_raises(scores, n_select, tie_break):
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="NaN"):
        top_selection(
            np.array(scores), n_select, rng=rng, tie_break=tie_break
        )


@pytest.mark.parametrize("tie_break", ["random", "index"])
def test_nan_raises_before_the_jitter_draw(tie_break):
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        top_selection(np.array([0.1, NAN]), 1, rng=rng, tie_break=tie_break)
    assert rng.random() == np.random.default_rng(4).random()
