"""Deterministic hash sampling (stages/sampling.py): parallelism
invariance, exact complement split, rate accuracy, seed independence."""

from __future__ import annotations

import pandas as pd
import pytest
import ray.data as rd

from docprocai_service_ray.stages.sampling import (
    hash_sample,
    sample_threshold,
    split_train_holdout,
)

N = 5000


@pytest.fixture()
def docs(ray_session):
    df = pd.DataFrame({"doc_id": range(N), "lang": ["en", "de"] * (N // 2)})
    return df


def _ids(ds):
    return sorted(r["doc_id"] for r in ds.take_all())


class TestHashSample:
    def test_parallelism_invariance(self, docs):
        a = _ids(hash_sample(rd.from_pandas(docs).repartition(1), "doc_id", 0.1))
        b = _ids(hash_sample(rd.from_pandas(docs).repartition(13), "doc_id", 0.1))
        assert a == b and len(a) > 0

    def test_rate_accuracy(self, docs):
        kept = _ids(hash_sample(rd.from_pandas(docs), "doc_id", 0.1))
        assert abs(len(kept) / N - 0.1) < 0.02  # md5 uniformity at n=5000

    def test_complement_partitions_exactly(self, docs):
        ds = rd.from_pandas(docs)
        train, hold = split_train_holdout(ds, "doc_id", 0.2, seed=7)
        t, h = set(_ids(train)), set(_ids(hold))
        assert t | h == set(range(N)) and not (t & h)

    def test_seeds_give_different_splits(self, docs):
        ds = rd.from_pandas(docs)
        a = set(_ids(hash_sample(ds, "doc_id", 0.2, seed=1)))
        b = set(_ids(hash_sample(ds, "doc_id", 0.2, seed=2)))
        # independent salts: overlap ≈ rate², far from identical
        assert a != b and len(a & b) < 0.5 * len(a)

    def test_threshold_edges(self):
        assert sample_threshold(0.0) == "0000"
        # saturated rate → 'g', which byte-compares above every hex prefix
        assert sample_threshold(1.0) == "g"
        assert "ffff" < "g"
        with pytest.raises(ValueError):
            sample_threshold(1.5)

    def test_rate_one_keeps_everything(self, docs):
        ds = rd.from_pandas(docs)
        assert len(_ids(hash_sample(ds, "doc_id", 1.0))) == N
        # and the exact complement (holdout_rate=1.0) is empty train / full holdout
        train, hold = split_train_holdout(ds, "doc_id", 1.0)
        assert train.count() == 0 and hold.count() == N

    def test_rate_one_sql_predicate_matches(self, docs):
        import duckdb

        from docprocai_service_ray.stages.sampling import sample_sql_predicate

        pred = sample_sql_predicate("doc_id", 1.0)
        n = duckdb.sql(
            f"SELECT count(*) FROM docs WHERE {pred}"
        ).fetchone()[0]
        assert n == N


class TestGroupedQuantiles:
    def test_matches_numpy_and_composes_with_sampling(self, ray_session):
        import numpy as np

        from docprocai_service_ray.stages.quantiles import grouped_quantiles

        rng = np.random.RandomState(3)
        df = pd.DataFrame({"g": ["a"] * 400 + ["b"] * 100,
                           "v": rng.randn(500).round(4)})
        out = grouped_quantiles(rd.from_pandas(df).repartition(7), "g", "v",
                                [0.5, 0.9]).to_pandas().set_index("g")
        for g in ["a", "b"]:
            vals = df[df["g"] == g]["v"].to_numpy()
            assert out.loc[g, "q_50"] == round(float(np.quantile(vals, 0.5)), 6)
            assert out.loc[g, "q_90"] == round(float(np.quantile(vals, 0.9)), 6)
            assert out.loc[g, "n"] == len(vals)

        # sampled-quantile composition stays deterministic
        s = hash_sample(rd.from_pandas(df.assign(doc_id=range(500))), "doc_id", 0.5)
        q1 = grouped_quantiles(s, "g", "v", [0.5]).to_pandas().sort_values("g")
        q2 = grouped_quantiles(s, "g", "v", [0.5]).to_pandas().sort_values("g")
        assert q1.equals(q2)


class TestSketchQuantiles:
    def test_corpus_scale_group_bounded_error(self, ray_session):
        """200k-value skewed group: sketch rank error must stay ~2/delta
        (VERDICT r2 #7 — the tier that never co-locates a group)."""
        import numpy as np

        from docprocai_service_ray.stages.quantiles import grouped_quantiles_sketch

        rng = np.random.RandomState(7)
        vals = np.concatenate([rng.lognormal(0, 1.5, 150_000),
                               rng.randn(50_000) * 3 + 40])
        df = pd.DataFrame({"g": "big", "v": vals})
        out = (
            grouped_quantiles_sketch(rd.from_pandas(df).repartition(17),
                                     "g", "v", [0.1, 0.5, 0.9, 0.99],
                                     delta=512)
            .to_pandas().set_index("g")
        )
        assert out.loc["big", "n"] == len(vals)
        svals = np.sort(vals)
        for q, col in [(0.1, "q_10"), (0.5, "q_50"), (0.9, "q_90"), (0.99, "q_99")]:
            est = out.loc["big", col]
            achieved_rank = np.searchsorted(svals, est) / len(svals)
            assert abs(achieved_rank - q) < 0.01, (col, est, achieved_rank)

    def test_deterministic_across_partitionings(self, ray_session):
        import numpy as np

        from docprocai_service_ray.stages.quantiles import grouped_quantiles_sketch

        rng = np.random.RandomState(3)
        df = pd.DataFrame({"g": ["a", "b"] * 5000, "v": rng.randn(10_000)})
        a = grouped_quantiles_sketch(rd.from_pandas(df).repartition(3),
                                     "g", "v", [0.5]).to_pandas().sort_values("g")
        b = grouped_quantiles_sketch(rd.from_pandas(df).repartition(3),
                                     "g", "v", [0.5]).to_pandas().sort_values("g")
        assert a.reset_index(drop=True).equals(b.reset_index(drop=True))

    def test_auto_gate_picks_exact_small(self, ray_session):
        import numpy as np

        from docprocai_service_ray.stages.quantiles import (
            grouped_quantiles,
            grouped_quantiles_auto,
        )

        rng = np.random.RandomState(5)
        df = pd.DataFrame({"g": ["a"] * 300 + ["b"] * 200,
                           "v": rng.randn(500).round(4)})
        auto = grouped_quantiles_auto(rd.from_pandas(df), "g", "v",
                                      [0.5, 0.9]).to_pandas().sort_values("g")
        exact = grouped_quantiles(rd.from_pandas(df), "g", "v",
                                  [0.5, 0.9]).to_pandas().sort_values("g")
        assert auto.reset_index(drop=True).equals(exact.reset_index(drop=True))

    def test_forced_sketch_close_to_exact(self, ray_session):
        import numpy as np

        from docprocai_service_ray.stages.quantiles import (
            grouped_quantiles,
            grouped_quantiles_auto,
        )

        rng = np.random.RandomState(5)
        df = pd.DataFrame({"g": ["a"] * 30_000, "v": rng.randn(30_000)})
        sk = grouped_quantiles_auto(rd.from_pandas(df), "g", "v", [0.5],
                                    exact_max_bytes=0).to_pandas()
        ex = grouped_quantiles(rd.from_pandas(df), "g", "v", [0.5]).to_pandas()
        assert abs(sk["q_50"][0] - ex["q_50"][0]) < 0.05
        assert sk["n"][0] == ex["n"][0] == 30_000


class TestWeightedSample:
    def test_weight_proportional_and_deterministic(self):
        import pandas as pd
        import ray.data as rd

        from docprocai_service_ray.stages.sampling import weighted_sample

        df = pd.DataFrame({
            "id": range(400),
            "w": [100.0 if i < 40 else 1.0 for i in range(400)],
        })
        ds = rd.from_pandas(df).repartition(5)
        # across 12 seeds, the 10% heavy rows (100x weight) must dominate
        heavy = 0
        for seed in range(12):
            got = weighted_sample(ds, "id", "w", 20, seed=seed).to_pandas()
            assert len(got) == 20
            heavy += (got["id"] < 40).sum()
        assert heavy / (12 * 20) > 0.75
        a = weighted_sample(ds, "id", "w", 20, seed=3).to_pandas()
        b = weighted_sample(
            rd.from_pandas(df).repartition(17), "id", "w", 20, seed=3
        ).to_pandas()
        assert a["id"].tolist() == b["id"].tolist()  # parallelism-invariant

    def test_nonpositive_weights_excluded(self):
        import pandas as pd
        import ray.data as rd

        from docprocai_service_ray.stages.sampling import weighted_sample

        df = pd.DataFrame({"id": [1, 2, 3], "w": [0.0, -1.0, 5.0]})
        got = weighted_sample(rd.from_pandas(df), "id", "w", 10).to_pandas()
        assert got["id"].tolist() == [3]


class TestSampleKPerGroup:
    def _df(self, n=100, seed=2):
        import numpy as np
        import pandas as pd

        rng = np.random.default_rng(seed)
        return pd.DataFrame({
            "id": np.arange(n, dtype="int64"),
            "grp": rng.choice(["a", "b", "c"], size=n),
        })

    def test_matches_sql_twin(self):
        import duckdb
        import pandas as pd
        import ray.data as rd

        from docprocai_service_ray.stages.sampling import (
            sample_k_per_group,
            sample_k_per_group_sql,
        )

        df = self._df()
        got = (sample_k_per_group(rd.from_pandas(df).repartition(7), "id",
                                  "grp", 5).to_pandas()
               .sort_values(["grp", "rk"]).reset_index(drop=True))
        con = duckdb.connect()
        con.register("t", df)
        exp = (con.execute(sample_k_per_group_sql("t", "id", "grp", 5)).df()
               .sort_values(["grp", "rk"]).reset_index(drop=True))
        con.close()
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        assert (got.groupby("grp")["id"].size() == 5).all()

    def test_small_groups_keep_all_and_parallelism_invariant(self):
        import pandas as pd
        import ray.data as rd

        from docprocai_service_ray.stages.sampling import sample_k_per_group
        from docprocai_service_ray.state.groupby import pin_partitions

        df = self._df(n=8, seed=5)  # groups smaller than k
        outs = []
        for p, np_ in ((1, 2), (5, 16)):
            with pin_partitions(np_):
                outs.append(
                    sample_k_per_group(rd.from_pandas(df).repartition(p), "id",
                                       "grp", 50).to_pandas()
                    .sort_values(["grp", "rk"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(outs[0], outs[1])
        assert len(outs[0]) == 8  # min(k, |group|) keeps every row
        assert (outs[0].groupby("grp")["rk"].max()
                == outs[0].groupby("grp")["rk"].size()).all()

    def test_seed_changes_selection(self):
        import ray.data as rd

        from docprocai_service_ray.stages.sampling import sample_k_per_group

        df = self._df()
        a = set(map(tuple, sample_k_per_group(
            rd.from_pandas(df), "id", "grp", 5, seed=1)
            .to_pandas()[["grp", "id"]].itertuples(index=False)))
        b = set(map(tuple, sample_k_per_group(
            rd.from_pandas(df), "id", "grp", 5, seed=2)
            .to_pandas()[["grp", "id"]].itertuples(index=False)))
        assert a != b
