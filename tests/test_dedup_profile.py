"""MinHash threshold profile (stages/dedup.minhash_threshold_profile):
monotonicity across band configs, high-threshold family detection,
medium-similarity pairs surfacing only at looser bandings, est-threshold
formula, config validation, determinism. The registered
``dedup_threshold_profile`` golden at sf0.01 is covered by
tests/test_queries.py."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from docprocai_service_ray.stages.dedup import minhash_threshold_profile
from docprocai_service_ray.state.groupby import pin_partitions

pytestmark = pytest.mark.usefixtures("ray_session")

_BASE = ("the quick brown fox jumps over the lazy dog and chases it "
         "around the old barn near the river for quite a while today ")


def _docs() -> pd.DataFrame:
    rng = np.random.default_rng(2)
    words = _BASE.split()
    rows = []
    for i in range(10):  # near-identical family (j ≈ 1)
        rows.append((i, _BASE * 2 + f"s{i % 2}"))
    for i in range(10, 30):  # medium-similarity pairs: half the words
        # replaced per doc ⇒ pairwise shingle jaccard well below 0.9 but
        # above the loose-band S-curve midpoints
        ws = list(words) * 2
        for p in rng.choice(len(ws), size=len(ws) // 2, replace=False):
            ws[p] = f"noise{rng.integers(100)}"
        rows.append((i, " ".join(ws)))
    for i in range(30, 50):  # unique noise
        rows.append((i, " ".join(f"u{i}w{j}{rng.integers(1e6)}"
                                 for j in range(60))))
    return pd.DataFrame(rows, columns=["doc_id", "text"])


def test_profile_monotone_and_detects_tiers():
    prof = minhash_threshold_profile(
        rd.from_pandas(_docs()).repartition(4), "doc_id", "text", seed=42)
    assert prof["bands"].tolist() == [4, 8, 16, 32]
    assert prof["n_candidates"].is_monotonic_increasing
    # the j≈1 family (45 pairs) collides even at the tightest banding
    assert prof["n_candidates"].iloc[0] >= 45
    # looser bandings surface strictly more (the medium-similarity docs)
    assert prof["n_candidates"].iloc[-1] > prof["n_candidates"].iloc[0]
    # S-curve midpoint formula (1/b)^(1/r)
    for r in prof.itertuples():
        assert r.est_threshold == round((1 / r.bands) ** (1 / r.rows_per_band), 4)


def test_profile_deterministic():
    a = minhash_threshold_profile(
        rd.from_pandas(_docs()).repartition(1), "doc_id", "text", seed=7)
    with pin_partitions(9):
        b = minhash_threshold_profile(
            rd.from_pandas(_docs()).repartition(6), "doc_id", "text", seed=7)
    pd.testing.assert_frame_equal(a, b)


def test_invalid_band_config():
    with pytest.raises(ValueError):
        minhash_threshold_profile(rd.from_pandas(_docs()), "doc_id", "text",
                                  num_perms=64, band_configs=(7,))
