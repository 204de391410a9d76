"""n-gram benchmark decontamination (stages/decontam): brute-force
parity, broadcast/distributed tier parity, <n-word exclusion, empty
benchmark, null text. The sf0.01 SQL parity of the registered
``decontam_by_source`` query is covered by tests/test_queries.py."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from docprocai_service_ray.stages.decontam import ngram_decontaminate
from docprocai_service_ray.state.groupby import collect_pandas, pin_partitions
from docprocai_service_ray.state.tier import forced

pytestmark = pytest.mark.usefixtures("ray_session")

COLS = ["source", "n_docs", "contaminated_docs", "avg_contam_frac"]


def _docs(n=120, seed=11):
    rng = np.random.default_rng(seed)
    words = ["red", "green", "blue", "fast", "slow", "x"]
    texts = [
        " ".join(rng.choice(words, size=rng.integers(0, 12)).tolist())
        for _ in range(n)
    ]
    texts[3] = ""            # no grams → excluded
    texts[7] = None          # null text → no grams → excluded
    texts[9] = "red green"   # < n words at n=3 → excluded
    return pd.DataFrame({
        "doc_id": np.arange(n, dtype="int64"),
        "text": pd.array(texts, dtype=object),
        "source": [f"s{i % 3}" for i in range(n)],
    })


def _brute(docs: pd.DataFrame, bench: pd.DataFrame, n: int) -> pd.DataFrame:
    def grams(t):
        ws = (t or "").split(" ")
        return {" ".join(ws[i:i + n]) for i in range(len(ws) - n + 1)}

    bset = set().union(*(grams(t) for t in bench["text"])) if len(bench) else set()
    rows = []
    for _, r in docs.iterrows():
        g = grams(r["text"])
        if not g:
            continue
        rows.append((r["source"], len(g & bset) / len(g)))
    d = pd.DataFrame(rows, columns=["source", "frac"])
    out = d.groupby("source", as_index=False).agg(
        n_docs=("frac", "size"),
        contaminated_docs=("frac", lambda s: int((s > 0).sum())),
        avg_contam_frac=("frac", "mean"),
    )
    out["avg_contam_frac"] = out["avg_contam_frac"].round(6)
    out["n_docs"] = out["n_docs"].astype("int64")
    out["contaminated_docs"] = out["contaminated_docs"].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


def _run(docs, bench, n, tier):
    """``tier`` "broadcast" is the driver tier: the benchmark is broadcast."""
    with forced("driver" if tier == "broadcast" else tier), pin_partitions(4):
        res = ngram_decontaminate(
            rd.from_pandas(docs).repartition(5),
            rd.from_pandas(bench).repartition(3),
            "doc_id", "text", "source", n=n,
        )
    return (collect_pandas(res, COLS)
            .sort_values("source").reset_index(drop=True))


@pytest.mark.parametrize("tier", ["broadcast", "distributed"])
def test_matches_brute_force(tier):
    df = _docs()
    bench = df[df["doc_id"] % 10 == 0]
    docs = df[df["doc_id"] % 10 != 0]
    got = _run(docs, bench, 3, tier)
    exp = _brute(docs, bench, 3)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    # non-trivial in both directions on this corpus
    assert 0 < exp["contaminated_docs"].sum() < exp["n_docs"].sum()


def test_tier_parity_and_auto():
    df = _docs(seed=23)
    bench = df[df["doc_id"] % 7 == 0]
    docs = df[df["doc_id"] % 7 != 0]
    b = _run(docs, bench, 2, "broadcast")
    d = _run(docs, bench, 2, "distributed")
    pd.testing.assert_frame_equal(b, d)
    auto = ngram_decontaminate(
        rd.from_pandas(docs), rd.from_pandas(bench),
        "doc_id", "text", "source", n=2)
    a = (collect_pandas(auto, COLS)
         .sort_values("source").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)


def test_short_docs_excluded():
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["a b", "", "a b c d"],
        "source": ["s", "s", "s"],
    })
    bench = pd.DataFrame({"doc_id": [0], "text": ["a b c"], "source": ["s"]})
    got = _run(docs, bench, 3, "broadcast")
    # only doc 3 has any 3-grams; 'a b c' and 'b c d' → one hits bench
    assert got["n_docs"].tolist() == [1]
    assert got["contaminated_docs"].tolist() == [1]
    assert got["avg_contam_frac"].tolist() == [0.5]


@pytest.mark.parametrize("tier", ["broadcast", "distributed"])
def test_empty_benchmark_means_clean(tier):
    docs = _docs(n=30, seed=5)
    bench = docs.head(0)
    got = _run(docs, bench, 3, tier)
    assert (got["contaminated_docs"] == 0).all()
    assert (got["avg_contam_frac"] == 0.0).all()


def test_bad_tier_rejected():
    # "broadcast" names decontam's driver tier but is not a tier name
    with pytest.raises(ValueError, match="tier"):
        with forced("broadcast"):
            pass


# ---- lang_mix_weights (stages/textstats) — same training-mix family ----

def test_lang_mix_weights_brute():
    from docprocai_service_ray.stages.textstats import (lang_mix_weights,
                                                        token_counts)

    rng = np.random.default_rng(3)
    df = pd.DataFrame({
        "lang": rng.choice(["en", "de", "fr"], p=[0.7, 0.2, 0.1], size=200),
        "text": ["word " * int(k) for k in rng.integers(0, 40, size=200)],
    })
    df.loc[5, "text"] = None
    got = lang_mix_weights(rd.from_pandas(df).repartition(6), "lang", "text")
    toks = df.assign(t=token_counts(df["text"])).groupby("lang")["t"].sum()
    total, uni = toks.sum(), toks.sum() / len(toks)
    exp = pd.DataFrame({
        "lang": toks.index,
        "n_docs": df.groupby("lang").size().astype("int64").to_numpy(),
        "n_tokens": toks.astype("int64").to_numpy(),
        "token_share": (toks / total).round(6).to_numpy(),
        "multiplier": np.minimum(1.0, uni / toks).round(6).to_numpy(),
    }).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
    assert (got["multiplier"] <= 1.0).all()
    assert abs(got["token_share"].sum() - 1.0) < 1e-4
