"""Deterministic training-shard shuffle (stages/sampling.shard_shuffle):
brute-force parity, permutation property, parallelism invariance, and
order alignment for num_buckets < 256 (range-scaled, not mod). The
sf0.01 SQL parity of the registered query is in tests/test_queries.py."""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from docprocai_service_ray.stages.sampling import shard_shuffle
from docprocai_service_ray.state.groupby import collect_pandas, pin_partitions

pytestmark = pytest.mark.usefixtures("ray_session")


def _brute(ids, n_shards, seed):
    rows = []
    for i in ids:
        h = hashlib.md5(f"sh{seed}\x1f{i}".encode()).hexdigest()[:16]
        rows.append((i, h, int(h[:8], 16) % n_shards))
    df = pd.DataFrame(rows, columns=["doc_id", "hkey", "shard"])
    df = df.sort_values(["shard", "hkey", "doc_id"])
    df["pos"] = df.groupby("shard").cumcount()
    return (df[["doc_id", "shard", "pos"]]
            .sort_values("doc_id").reset_index(drop=True))


def _run(ids, n_shards, seed=42, **kw):
    ds = rd.from_pandas(
        pd.DataFrame({"doc_id": np.asarray(ids, dtype="int64")})
    ).repartition(7)
    out = shard_shuffle(ds, "doc_id", n_shards, seed=seed, **kw)
    return (collect_pandas(out, ["doc_id", "shard", "pos"])
            .sort_values("doc_id").reset_index(drop=True))


def test_matches_brute_force():
    ids = list(range(500))
    got = _run(ids, 8)
    pd.testing.assert_frame_equal(got, _brute(ids, 8, 42),
                                  check_dtype=False)


def test_permutation_property():
    got = _run(range(300), 4)
    for s, g in got.groupby("shard"):
        assert sorted(g["pos"]) == list(range(len(g)))
    assert got["doc_id"].is_unique and len(got) == 300


def test_parallelism_invariance():
    ids = list(range(257))
    with pin_partitions(2):
        a = _run(ids, 5)
    with pin_partitions(31):
        b = _run(ids, 5)
    pd.testing.assert_frame_equal(a, b)


def test_small_num_buckets_stays_order_aligned():
    # regression: bucket must be a range-scaled PREFIX of the order key;
    # a mod would interleave ranges and corrupt the exclusive offsets
    ids = list(range(400))
    got = _run(ids, 3, num_buckets=16)
    pd.testing.assert_frame_equal(got, _brute(ids, 3, 42),
                                  check_dtype=False)


def test_seed_changes_permutation():
    a = _run(range(200), 4, seed=1)
    b = _run(range(200), 4, seed=2)
    assert not a.equals(b)


def test_bad_num_buckets_rejected():
    ds = rd.from_pandas(pd.DataFrame({"doc_id": [1]}))
    with pytest.raises(ValueError, match="num_buckets"):
        shard_shuffle(ds, "doc_id", 2, num_buckets=0)


class TestLangMixAlpha:
    """Temperature sampling weights (textstats.lang_mix_alpha_weights):
    alpha edges, brute parity, SQL twin. Registered-query sf0.01 parity
    is covered by tests/test_queries.py."""

    DOCS = pd.DataFrame({
        "lang": ["en"] * 8 + ["de"] * 3 + ["fr"],
        "text": ["one two three four"] * 8 + ["eins zwei"] * 3 + ["un"],
    })

    def _run(self, alpha):
        import ray.data as rd

        from docprocai_service_ray.stages.textstats import \
            lang_mix_alpha_weights

        return lang_mix_alpha_weights(
            rd.from_pandas(self.DOCS).repartition(3), "lang", "text",
            alpha=alpha)

    def test_alpha_edges_and_brute(self):
        import numpy as np
        out1 = self._run(1.0)   # natural proportions
        assert np.allclose(out1["sample_weight"], out1["token_share"],
                           atol=1e-6)
        out0 = self._run(1e-9)  # → uniform
        assert np.allclose(out0["sample_weight"], 1 / 3, atol=1e-3)
        out = self._run(0.3)
        toks = np.array([32.0, 6.0, 1.0])  # en, de, fr token counts
        p = toks / toks.sum()
        q = p ** 0.3
        q /= q.sum()
        assert out["lang"].tolist() == ["de", "en", "fr"]
        exp = dict(zip(["en", "de", "fr"], q))
        got = dict(zip(out["lang"], out["sample_weight"]))
        for k in exp:
            assert abs(got[k] - exp[k]) < 1e-6
        # smoothing up-samples the tail, down-samples the head
        rm = dict(zip(out["lang"], out["rate_multiplier"]))
        assert rm["fr"] > 1.0 > rm["en"]

    def test_sql_parity(self):
        import duckdb

        from docprocai_service_ray.stages.textstats import lang_mix_alpha_sql

        got = self._run(0.3).reset_index(drop=True)
        con = duckdb.connect()
        con.register("t", self.DOCS)
        sq = (con.execute(lang_mix_alpha_sql("t", "lang", "text", alpha=0.3))
              .df().sort_values("lang").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, sq[got.columns].astype(
            got.dtypes.to_dict()))
