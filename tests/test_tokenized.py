"""Tokenized binary shard sink (sources/tokenized) — round-trip vs
bpe_apply, byte determinism across parallelism, eod layout, OOV→unk,
manifest integrity."""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from docprocai_service_ray.sources.tokenized import (
    EOD_TOKEN,
    UNK_TOKEN,
    build_bpe_vocab,
    export_token_shards,
    read_token_shards,
)
from docprocai_service_ray.stages.bpe import bpe_apply, bpe_train
from docprocai_service_ray.state.groupby import pin_partitions

pytestmark = pytest.mark.usefixtures("ray_session")


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(5)
    vocab = ["lower", "newer", "wider", "low", "new", "ride", "slow"]
    rows = [{"doc_id": i,
             "text": " ".join(rng.choice(vocab, size=rng.integers(4, 16)))}
            for i in range(60)]
    return pd.DataFrame(rows)


@pytest.fixture(scope="module")
def trained(corpus):
    ds = rd.from_pandas(corpus)
    merges = bpe_train(ds, "text", num_merges=24)
    vocab = build_bpe_vocab(ds, "text", merges)
    return merges, vocab


def test_vocab_reserved_and_sorted(trained):
    _, vocab = trained
    assert list(vocab["token"][:2]) == [UNK_TOKEN, EOD_TOKEN]
    rest = list(vocab["token"][2:])
    assert rest == sorted(rest)
    assert list(vocab["id"]) == list(range(len(vocab)))


def test_round_trip(corpus, trained, tmp_path):
    merges, vocab = trained
    out = str(tmp_path / "tok")
    man = export_token_shards(rd.from_pandas(corpus), out, "doc_id",
                              "text", merges, vocab, n_shards=4)
    assert man["n_docs"].sum() == len(corpus)
    back = read_token_shards(out).to_pandas()
    assert len(back) == len(corpus)
    id2tok = dict(zip(vocab["id"], vocab["token"]))
    decoded = {r["doc_id"]: [id2tok[i] for i in r["token_ids"]]
               for _, r in back.iterrows()}
    want = bpe_apply(rd.from_pandas(corpus), "text", merges).to_pandas()
    for _, r in want.iterrows():
        assert decoded[r["doc_id"]] == list(r["bpe_tokens"])


def test_eod_layout_and_manifest(corpus, trained, tmp_path):
    merges, vocab = trained
    out = str(tmp_path / "tok")
    man = export_token_shards(rd.from_pandas(corpus), out, "doc_id",
                              "text", merges, vocab, n_shards=3)
    eod = int(vocab.loc[vocab["token"] == EOD_TOKEN, "id"].iloc[0])
    for _, row in man.iterrows():
        with open(os.path.join(out, row["file"]), "rb") as f:
            stream = np.frombuffer(f.read(), dtype="<u4").astype("int64")
        # stream length = tokens + one eod per doc; eod at each doc end
        assert len(stream) == row["n_tokens"] + row["n_docs"]
        assert (stream == eod).sum() == row["n_docs"]
        assert stream[-1] == eod
    # verify_export reads the manifest unchanged
    from docprocai_service_ray.sources.export import verify_export
    v = verify_export(out)
    assert v["ok"] and v["n_shards"] == len(man)
    with open(os.path.join(out, "manifest.json")) as f:
        meta = json.load(f)
    assert meta["vocab_size"] == len(vocab)


def test_parallelism_invariant_bytes(corpus, trained, tmp_path):
    merges, vocab = trained
    a = export_token_shards(rd.from_pandas(corpus), str(tmp_path / "a"),
                            "doc_id", "text", merges, vocab, n_shards=4)
    with pin_partitions(2):
        b = export_token_shards(rd.from_pandas(corpus).repartition(7),
                                str(tmp_path / "b"), "doc_id", "text", merges,
                                vocab, n_shards=4)
    pd.testing.assert_frame_equal(a, b)


def test_idempotent_reexport(corpus, trained, tmp_path):
    merges, vocab = trained
    out = str(tmp_path / "tok")
    a = export_token_shards(rd.from_pandas(corpus), out, "doc_id", "text",
                            merges, vocab, n_shards=2)
    mtimes = {f: os.path.getmtime(os.path.join(out, f))
              for f in a["file"]}
    b = export_token_shards(rd.from_pandas(corpus), out, "doc_id", "text",
                            merges, vocab, n_shards=2)
    pd.testing.assert_frame_equal(a, b)
    for f, t in mtimes.items():  # content-addressed ⇒ untouched
        assert os.path.getmtime(os.path.join(out, f)) == t


def test_vocab_from_merges_superset_and_roundtrip(corpus, trained, tmp_path):
    from docprocai_service_ray.sources.tokenized import vocab_from_merges

    merges, scanned = trained
    derived = vocab_from_merges(merges)
    # the corpus-scanned (minimal) vocab is a subset of the derived one
    assert set(scanned["token"]) <= set(derived["token"])
    # exporting with the derived vocab round-trips identically
    out = str(tmp_path / "derived")
    export_token_shards(rd.from_pandas(corpus), out, "doc_id", "text",
                        merges, derived, n_shards=2)
    back = read_token_shards(out).to_pandas()
    id2tok = dict(zip(derived["id"], derived["token"]))
    decoded = {r["doc_id"]: [id2tok[i] for i in r["token_ids"]]
               for _, r in back.iterrows()}
    want = bpe_apply(rd.from_pandas(corpus), "text", merges).to_pandas()
    for _, r in want.iterrows():
        assert decoded[r["doc_id"]] == list(r["bpe_tokens"])


def test_oov_maps_to_unk(corpus, trained, tmp_path):
    merges, vocab = trained
    unk = int(vocab.loc[vocab["token"] == UNK_TOKEN, "id"].iloc[0])
    new = pd.DataFrame({"doc_id": [999], "text": ["zzzquux lower"]})
    out = str(tmp_path / "oov")
    export_token_shards(rd.from_pandas(new), out, "doc_id", "text",
                        merges, vocab, n_shards=1)
    back = read_token_shards(out).to_pandas()
    ids = back.loc[back["doc_id"] == 999, "token_ids"].iloc[0]
    assert unk in ids          # the unseen word hit <unk>
    assert (ids != unk).any()  # the known word did not
