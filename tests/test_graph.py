"""Graph analytics (stages/graph.py): degree vs pandas, PageRank vs a
dense numpy power iteration, k-hop BFS vs a driver-side reference."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from docprocai_service_ray.stages.graph import (
    connected_components,
    entity_degree,
    khop_neighborhood,
    pagerank,
    triple_edges,
)
from docprocai_service_ray.state.tier import forced


def _triples_df(seed: int = 3, n: int = 900, n_ent: int = 120) -> pd.DataFrame:
    rng = np.random.RandomState(seed)
    ents = [f"e{i:03d}" for i in range(n_ent)]
    # skewed: entity 0 is a head node, some entities dangling (no out-edges)
    subj = [ents[min(int(abs(rng.standard_cauchy()) * 5) % (n_ent - 20), n_ent - 21)]
            for _ in range(n)]
    obj = [ents[rng.randint(0, n_ent)] for _ in range(n)]
    pred = [f"p{rng.randint(0, 5)}" for _ in range(n)]
    df = pd.DataFrame(
        {"subject_id": subj, "pred": pred, "object_id": obj,
         "weight": np.ones(n)}
    )
    return df[df.subject_id != df.object_id].reset_index(drop=True)


@pytest.fixture(scope="module")
def triples(ray_session):
    return rd.from_pandas(_triples_df()).repartition(7)


def _dense_pagerank(edges: pd.DataFrame, damping: float, iters: int):
    nodes = sorted(set(edges["src"]) | set(edges["dst"]))
    idx = {e: i for i, e in enumerate(nodes)}
    n = len(nodes)
    adj = np.zeros((n, n))
    for s, d in edges.itertuples(index=False):
        adj[idx[s], idx[d]] = 1.0
    out = adj.sum(axis=1)
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        contrib = np.zeros(n)
        nz = out > 0
        contrib += (r[nz] / out[nz]) @ adj[nz]
        dangling = r[~nz].sum()
        r = (1 - damping) / n + damping * (contrib + dangling / n)
    return dict(zip(nodes, r))


class TestDegree:
    def test_matches_pandas(self, triples):
        df = _triples_df()
        got = entity_degree(triples).to_pandas().set_index("entity").sort_index()
        out = df["subject_id"].value_counts()
        inn = df["object_id"].value_counts()
        ents = out.index.union(inn.index)
        assert (got["out_deg"].reindex(ents).fillna(0)
                == out.reindex(ents, fill_value=0)).all()
        assert (got["in_deg"].reindex(ents).fillna(0)
                == inn.reindex(ents, fill_value=0)).all()
        assert (got["degree"] == got["out_deg"] + got["in_deg"]).all()

    def test_distinct_edges(self, triples):
        df = _triples_df()
        want = df[["subject_id", "object_id"]].drop_duplicates()
        got = triple_edges(triples).to_pandas()
        assert len(got) == len(want)
        assert set(map(tuple, got.values)) == set(map(tuple, want.values))


class TestPageRank:
    @pytest.mark.parametrize("tier", ["driver", "distributed", "copartitioned"])
    def test_matches_dense_reference(self, triples, tier):
        kw = {}
        if tier == "copartitioned":
            # force the bucketed-edge tier (ranks small enough to broadcast
            # here, so auto would not engage it)
            kw["copartition"] = True
        edges = _triples_df()[["subject_id", "object_id"]].drop_duplicates()
        edges.columns = ["src", "dst"]
        want = _dense_pagerank(edges, 0.85, 12)
        with forced("driver" if tier == "driver" else "distributed"):
            got = {
                r["entity"]: r["rank"]
                for r in pagerank(
                    triples, iters=12, round_to=None, **kw
                ).take_all()
            }
        assert set(got) == set(want)
        for e, v in want.items():
            assert got[e] == pytest.approx(v, abs=1e-9)

    def test_ranks_sum_to_one(self, triples):
        total = sum(r["rank"] for r in pagerank(triples, iters=5).take_all())
        assert total == pytest.approx(1.0, abs=1e-6)


class TestComponents:
    def test_matches_unionfind_reference(self, triples):
        edges = _triples_df()[["subject_id", "object_id"]].drop_duplicates()
        parent: dict[str, str] = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for s, d in edges.itertuples(index=False):
            rs, rd = find(s), find(d)
            if rs != rd:
                parent[max(rs, rd)] = min(rs, rd)
        want_comp = {n: find(n) for n in parent}
        # canonical id must be the lexicographic-min member
        members: dict[str, set] = {}
        for n, c in want_comp.items():
            members.setdefault(c, set()).add(n)
        want = {
            (n, min(members[c]), len(members[c]))
            for n, c in want_comp.items()
        }
        got = {
            (r["entity"], r["component_id"], r["component_size"])
            for r in connected_components(triples).take_all()
        }
        assert got == want

    def test_distributed_tier_matches_driver(self, triples):
        key = lambda ds: {
            (r["entity"], r["component_id"], r["component_size"])
            for r in ds.take_all()
        }
        with forced("distributed"):
            dist = key(connected_components(triples))
        assert dist == key(connected_components(triples))


class TestKhop:
    def test_matches_bfs_reference(self, triples):
        edges = _triples_df()[["subject_id", "object_id"]].drop_duplicates()
        adj: dict[str, set[str]] = {}
        for s, d in edges.itertuples(index=False):
            adj.setdefault(s, set()).add(d)
        seed = sorted(adj)[0]
        want = {seed: 0}
        frontier = [seed]
        for hop in (1, 2):
            nxt = sorted(
                {d for s in frontier for d in adj.get(s, ())} - want.keys()
            )
            for d in nxt:
                want[d] = hop
            frontier = nxt
        got = khop_neighborhood(triples, seed, k=2)
        assert {(r["entity"], r["hop"]) for r in got.to_pylist()} == set(
            want.items()
        )

    def test_seed_only_when_no_edges(self, triples):
        got = khop_neighborhood(triples, "zz_not_an_entity", k=2)
        assert got.to_pylist() == [{"entity": "zz_not_an_entity", "hop": 0}]


class TestWeightedPagerank:
    """pagerank(weight_col=...): both tiers vs a dense weighted reference."""

    def _dense_ref(self, edges, n_nodes_map, damping=0.85, iters=20):
        import numpy as np

        nodes = sorted(n_nodes_map)
        idx = {e: i for i, e in enumerate(nodes)}
        n = len(nodes)
        W = np.zeros((n, n))
        for s, d, w in edges:
            W[idx[s], idx[d]] += w
        out = W.sum(axis=1)
        r = np.full(n, 1.0 / n)
        for _ in range(iters):
            contrib = np.zeros(n)
            for i in range(n):
                if out[i] > 0:
                    contrib += damping * r[i] * W[i] / out[i]
            dangling = r[out == 0].sum()
            r = (1 - damping) / n + contrib + damping * dangling / n
        return {e: r[idx[e]] for e in nodes}

    @pytest.fixture(scope="class")
    def weighted_edges(self):
        import random

        rng = random.Random(17)
        nodes = [f"h{i}" for i in range(25)]
        edges = []
        for _ in range(120):
            s, d = rng.sample(nodes, 2)
            edges.append((s, d, rng.randint(1, 9)))
        return edges, nodes

    def _triples_ds(self, edges):
        import pyarrow as pa
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "subject_id": [s for s, _, _ in edges],
            "object_id": [d for _, d, _ in edges],
            "w": pa.array([w for _, _, w in edges], pa.int64()),
        })).repartition(4)

    def test_both_tiers_match_dense(self, weighted_edges):
        from docprocai_service_ray.stages.graph import pagerank

        edges, nodes = weighted_edges
        want = self._dense_ref(edges, {n: 1 for n in nodes})
        for tier in ("driver", "distributed"):
            with forced(tier):
                got = pagerank(self._triples_ds(edges), iters=20,
                               weight_col="w", round_to=None).to_pandas()
            for e, r in zip(got["entity"], got["rank"]):
                assert abs(r - want[e]) < 1e-9, (e, r, want[e])

    def test_weights_change_the_ranking(self, weighted_edges):
        from docprocai_service_ray.stages.graph import pagerank

        edges, _ = weighted_edges
        ds = self._triples_ds(edges)
        w = pagerank(ds, iters=10, weight_col="w").to_pandas()
        u = pagerank(ds, iters=10).to_pandas()
        merged = w.merge(u, on="entity", suffixes=("_w", "_u"))
        assert (merged["rank_w"] != merged["rank_u"]).any()


def _dense_hits(edges: pd.DataFrame, iters: int):
    """Dense-matrix HITS reference: a = A^T h, h = A a, L2-normalized."""
    cols = list(edges.columns)
    has_w = "w" in cols
    nodes = sorted(set(edges["src"]) | set(edges["dst"]))
    idx = {e: i for i, e in enumerate(nodes)}
    n = len(nodes)
    adj = np.zeros((n, n))
    for row in edges.itertuples(index=False):
        adj[idx[row.src], idx[row.dst]] = row.w if has_w else 1.0
    h = np.full(n, 1.0 / np.sqrt(n))
    a = np.zeros(n)
    for _ in range(iters):
        a = adj.T @ h
        na = np.linalg.norm(a)
        if na > 0:
            a /= na
        h = adj @ a
        nh = np.linalg.norm(h)
        if nh > 0:
            h /= nh
    return ({e: h[idx[e]] for e in nodes}, {e: a[idx[e]] for e in nodes})


class TestHITS:
    @pytest.mark.parametrize("tier", ["driver", "distributed"])
    def test_matches_dense_reference(self, triples, tier):
        from docprocai_service_ray.stages.graph import hits

        edges = _triples_df()[["subject_id", "object_id"]].drop_duplicates()
        edges.columns = ["src", "dst"]
        want_h, want_a = _dense_hits(edges, 12)
        with forced(tier):
            rows = hits(triples, iters=12, round_to=None).take_all()
        got_h = {r["entity"]: r["hub"] for r in rows}
        got_a = {r["entity"]: r["authority"] for r in rows}
        assert set(got_h) == set(want_h)
        for e in want_h:
            assert got_h[e] == pytest.approx(want_h[e], abs=1e-9)
            assert got_a[e] == pytest.approx(want_a[e], abs=1e-9)

    @pytest.mark.parametrize("tier", ["driver", "distributed"])
    def test_weighted_matches_dense(self, ray_session, tier):
        from docprocai_service_ray.stages.graph import hits

        rng = np.random.RandomState(11)
        df = pd.DataFrame({
            "subject_id": [f"h{rng.randint(0, 30):02d}" for _ in range(300)],
            "object_id": [f"h{rng.randint(0, 40):02d}" for _ in range(300)],
        })
        df = df[df.subject_id != df.object_id]
        df = df.groupby(["subject_id", "object_id"], as_index=False).size()
        df.columns = ["subject_id", "object_id", "n_links"]
        ds = rd.from_pandas(df).repartition(5)
        edges = df.rename(columns={"subject_id": "src", "object_id": "dst",
                                   "n_links": "w"})
        want_h, want_a = _dense_hits(edges, 10)
        with forced(tier):
            rows = hits(ds, iters=10, round_to=None,
                        weight_col="n_links").take_all()
        assert len(rows) == len(want_h)
        for r in rows:
            assert r["hub"] == pytest.approx(want_h[r["entity"]], abs=1e-9)
            assert r["authority"] == pytest.approx(want_a[r["entity"]], abs=1e-9)

    def test_l2_norms_are_one(self, triples):
        from docprocai_service_ray.stages.graph import hits

        rows = hits(triples, iters=5).take_all()
        h = np.array([r["hub"] for r in rows])
        a = np.array([r["authority"] for r in rows])
        assert np.linalg.norm(h) == pytest.approx(1.0, abs=1e-6)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-6)

    def test_empty_graph(self, ray_session):
        from docprocai_service_ray.stages.graph import hits

        ds = rd.from_arrow(pa.table({
            "subject_id": pa.array([], pa.string()),
            "object_id": pa.array([], pa.string())}))
        assert hits(ds, iters=3).count() == 0


class TestTriangles:
    def _brute(self, edges: pd.DataFrame):
        """Dense adjacency reference: tri(v) = (A³)_vv / 2."""
        nodes = sorted(set(edges["a"]) | set(edges["b"]))
        idx = {e: i for i, e in enumerate(nodes)}
        n = len(nodes)
        adj = np.zeros((n, n))
        for a, b in edges.itertuples(index=False):
            adj[idx[a], idx[b]] = adj[idx[b], idx[a]] = 1.0
        a3 = adj @ adj @ adj
        deg = adj.sum(axis=1).astype(int)
        tri = (np.diag(a3) / 2).astype(int)
        return {
            e: (int(deg[idx[e]]), int(tri[idx[e]]),
                round(2.0 * tri[idx[e]] / (deg[idx[e]] * (deg[idx[e]] - 1)), 6)
                if deg[idx[e]] > 1 else 0.0)
            for e in nodes
        }

    def test_matches_dense_reference(self, triples):
        from docprocai_service_ray.stages.graph import triangle_counts

        df = _triples_df()
        und = pd.DataFrame({
            "a": df[["subject_id", "object_id"]].min(axis=1),
            "b": df[["subject_id", "object_id"]].max(axis=1),
        }).drop_duplicates()
        want = self._brute(und)
        got = triangle_counts(triples).to_pandas()
        assert len(got) == len(want)
        for r in got.itertuples(index=False):
            d, t, c = want[r.entity]
            assert (r.degree, r.triangles) == (d, t), r.entity
            assert r.clustering == pytest.approx(c, abs=1e-9)

    def test_hub_star_zero_wedges(self, ray_session):
        # star graph: hub connected to 50 leaves, no leaf-leaf edges ⇒
        # zero triangles, and the orientation means zero wedge pairs too
        df = pd.DataFrame({"subject_id": ["hub"] * 50,
                           "object_id": [f"leaf{i:02d}" for i in range(50)]})
        from docprocai_service_ray.stages.graph import triangle_counts

        got = triangle_counts(rd.from_pandas(df).repartition(5)).to_pandas()
        assert (got["triangles"] == 0).all()
        assert got.set_index("entity").loc["hub", "degree"] == 50

    def test_parallelism_invariance(self, ray_session):
        from docprocai_service_ray.stages.graph import triangle_counts

        df = _triples_df(seed=8, n=500, n_ent=60)
        outs = [
            triangle_counts(rd.from_pandas(df).repartition(b)).to_pandas()
            .sort_values("entity").reset_index(drop=True)
            for b in (1, 9)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestCoreness:
    @pytest.mark.parametrize("tier", ["driver", "distributed"])
    def test_matches_peel_reference(self, triples, tier):
        from docprocai_service_ray.stages.graph import (
            _coreness_driver,
            core_numbers,
        )

        df = _triples_df()
        und = pd.DataFrame({
            "a": df[["subject_id", "object_id"]].min(axis=1),
            "b": df[["subject_id", "object_id"]].max(axis=1),
        }).drop_duplicates()
        want = _coreness_driver(und)
        with forced(tier):
            got = {r["entity"]: r["coreness"]
                   for r in core_numbers(triples).take_all()}
        assert got == want

    def test_clique_and_star(self, ray_session):
        from docprocai_service_ray.stages.graph import core_numbers

        cl = pd.DataFrame(
            [(f"c{i}", f"c{j}") for i in range(6) for j in range(6) if i < j],
            columns=["subject_id", "object_id"])
        star = pd.DataFrame({"subject_id": ["hub"] * 12,
                             "object_id": [f"l{i}" for i in range(12)]})
        with forced("distributed"):
            got = {r["entity"]: r["coreness"]
                   for r in core_numbers(
                       rd.from_pandas(pd.concat([cl, star])).repartition(4),
                   ).take_all()}
        assert all(got[f"c{i}"] == 5 for i in range(6))   # K6 ⇒ core 5
        assert got["hub"] == 1 and got["l0"] == 1          # star ⇒ core 1

    def test_parallelism_invariance(self, ray_session):
        from docprocai_service_ray.stages.graph import core_numbers

        df = _triples_df(seed=13, n=600, n_ent=70)
        outs = [
            core_numbers(rd.from_pandas(df).repartition(b)).to_pandas()
            .sort_values("entity").reset_index(drop=True)
            for b in (1, 8)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])


class TestLabelPropagation:
    def _two_cliques(self):
        # two K5 cliques joined by ONE bridge edge — same component,
        # two dense communities
        rows = []
        for base in ("x", "y"):
            for i in range(5):
                for j in range(i + 1, 5):
                    rows.append((f"{base}{i}", f"{base}{j}"))
        rows.append(("x0", "y0"))  # bridge
        return pd.DataFrame(rows, columns=["subject_id", "object_id"])

    @pytest.mark.parametrize("tier", ["driver", "distributed"])
    def test_two_cliques_two_communities(self, ray_session, tier):
        from docprocai_service_ray.stages.graph import label_propagation

        with forced(tier):
            got = label_propagation(
                rd.from_pandas(self._two_cliques()).repartition(4),
                iters=6).to_pandas()
        by = got.set_index("entity")["community"]
        x = {by[f"x{i}"] for i in range(1, 5)}
        y = {by[f"y{i}"] for i in range(1, 5)}
        assert len(x) == 1 and len(y) == 1 and x != y
        sizes = got.set_index("entity")["community_size"]
        assert (sizes >= 4).all()

    def test_tiers_bit_equal(self, triples):
        from docprocai_service_ray.stages.graph import label_propagation

        a = label_propagation(triples, iters=4).to_pandas()
        with forced("distributed"):
            b = label_propagation(triples, iters=4).to_pandas()
        pd.testing.assert_frame_equal(a.reset_index(drop=True),
                                      b.reset_index(drop=True))

    def test_parallelism_invariance(self, ray_session):
        from docprocai_service_ray.stages.graph import label_propagation

        df = _triples_df(seed=21, n=500, n_ent=60)
        outs = [
            label_propagation(rd.from_pandas(df).repartition(b),
                              iters=5).to_pandas().reset_index(drop=True)
            for b in (1, 8)
        ]
        pd.testing.assert_frame_equal(outs[0], outs[1])
