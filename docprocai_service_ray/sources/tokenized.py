"""Tokenized binary shard sink — the trainer's last mile: BPE-encoded
documents laid out as ``n_shards`` flat little-endian token-id streams
(Megatron/GPT-2 ``.bin`` convention) with a parquet index sidecar per
shard and a content-addressed ``manifest.json`` (the sources/export.py
publication contract applied to token ids instead of JSONL).

Layout per shard::

    shard-<sha16>.bin          flat <u4 token ids; each doc is its ids
                               followed by one <eod> id
    shard-<sha16>.idx.parquet  (doc_id, pos, offset, n_tokens) — offset
                               in TOKENS into the .bin, n_tokens excludes
                               the <eod> terminator
    manifest.json              shards: (shard, file, n_docs, n_tokens,
                               n_bytes, sha256) — verify_export-compatible

Determinism: shard membership and within-shard order come from
``stages/sampling.shard_shuffle`` (content-hash (shard, pos) —
bit-identical at any parallelism), and ids come from a sorted-vocab
mapping, so every byte of every shard is a pure function of (corpus,
merges, seed) — shard sha256 values are golden-freezable.

Scale shape: encoding is a pure map (merge table rides the closure,
per-word memoization); the only exchanges are shard_shuffle's
(id, key) pass and ONE shard-keyed exchange where token-ID arrays (not
text) co-locate for the write — each shard is corpus/n_shards by the
md5 modulus, written via tmp+atomic-rename, and only KB manifest rows
return to the driver.
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid

import numpy as np
import pandas as pd

UNK_TOKEN = "<unk>"
EOD_TOKEN = "<eod>"


def vocab_from_merges(merges: pd.DataFrame,
                      alphabet: str = "abcdefghijklmnopqrstuvwxyz"
                      ) -> pd.DataFrame:
    """→ DataFrame(token, id) derived from the merge table ALONE — zero
    corpus passes. Complete by construction: every symbol a BPE encode
    can emit is either a single tokenizer-alphabet character or the
    output of some merge (left+right), so ``alphabet ∪ merge outputs``
    covers the encoded corpus (GPT-2-style: unused entries are harmless).
    Ids 0=``<unk>`` / 1=``<eod>`` reserved, rest sorted — the 100-TB path
    (:func:`build_bpe_vocab` scans the corpus for the MINIMAL vocab
    instead; both round-trip identically, tested)."""
    syms = set(alphabet)
    syms.update(l + r for l, r in zip(merges["left"], merges["right"]))
    toks = [UNK_TOKEN, EOD_TOKEN] + sorted(syms)
    return pd.DataFrame({"token": toks,
                         "id": np.arange(len(toks), dtype="int64")})


def build_bpe_vocab(ds, text_col: str, merges: pd.DataFrame) -> pd.DataFrame:
    """→ DataFrame(token, id): the sorted distinct BPE symbols of the
    encoded corpus, ids 0=``<unk>`` / 1=``<eod>`` reserved. Per-batch
    partials are the batch's DISTINCT symbols (vocab-sized, not
    corpus-sized); one distinct exchange, then a vocab-sized driver
    collect + sort — the same small-by-construction shape as the BPE
    merge table itself."""
    from ..stages.bpe import bpe_apply
    from ..state.groupby import collect_pandas, distinct_rows

    encoded = bpe_apply(ds.select_columns([text_col]), text_col, merges)

    def symbols(df: pd.DataFrame) -> pd.DataFrame:
        seen: set[str] = set()
        for row in df["bpe_tokens"]:
            seen.update(row)
        return pd.DataFrame({"token": sorted(seen)})

    vocab = collect_pandas(
        distinct_rows(encoded.map_batches(symbols, batch_format="pandas"),
                      ["token"], num_partitions=4),
        ["token"])
    toks = [UNK_TOKEN, EOD_TOKEN] + sorted(vocab["token"])
    return pd.DataFrame({"token": toks,
                         "id": np.arange(len(toks), dtype="int64")})


def export_token_shards(ds, out_dir: str, id_col: str, text_col: str,
                        merges: pd.DataFrame, vocab: pd.DataFrame, *,
                        n_shards: int = 8, seed: int = 42) -> pd.DataFrame:
    """Encode, shuffle and publish the corpus as tokenized binary shards.
    Returns the manifest DataFrame(shard, file, n_docs, n_tokens, n_bytes,
    sha256) and writes ``manifest.json`` (sources/export.verify_export
    reads it unchanged). OOV symbols (a vocab frozen on an older dump)
    map to ``<unk>``."""
    from ..stages.bpe import bpe_apply
    from ..stages.sampling import shard_shuffle
    from ..state.groupby import collect_pandas, partition_reduce
    from ..state.joins import hash_join

    os.makedirs(out_dir, exist_ok=True)
    tok2id = dict(zip(vocab["token"], vocab["id"].astype(int)))
    unk = tok2id[UNK_TOKEN]
    eod = tok2id[EOD_TOKEN]

    encoded = bpe_apply(ds.select_columns([id_col, text_col]), text_col,
                        merges)

    def to_ids(df: pd.DataFrame) -> pd.DataFrame:
        # ids travel as '<u4' BYTES: binary columns survive the Arrow
        # hash join (list columns are not joinable non-key fields) and
        # shuffle at final wire width
        return pd.DataFrame({
            id_col: df[id_col].to_numpy(),
            "ids": [np.asarray([tok2id.get(t, unk) for t in row],
                               dtype="<u4").tobytes()
                    for row in df["bpe_tokens"]],
        })

    with_ids = encoded.map_batches(to_ids, batch_format="pandas")
    shards = shard_shuffle(ds.select_columns([id_col]), id_col, n_shards,
                           seed=seed)
    tagged = hash_join(with_ids, shards, on=id_col)

    def write_shard(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        eod_b = np.asarray([eod], dtype="<u4").tobytes()
        for sh, g in part.groupby("shard", sort=True):
            g = g.sort_values("pos", kind="stable")
            n_tok = np.asarray([len(b) // 4 for b in g["ids"]],
                               dtype="int64")
            payload = b"".join(bytes(b) + eod_b for b in g["ids"])
            sha = hashlib.sha256(payload).hexdigest()
            name = f"shard-{sha[:16]}.bin"
            final = os.path.join(out_dir, name)
            if not os.path.exists(final):
                tmp = f"{final}.tmp-{uuid.uuid4().hex[:8]}"
                with open(tmp, "wb") as f:
                    f.write(payload)
                os.replace(tmp, final)
            import pyarrow as pa
            import pyarrow.parquet as pq
            offs = np.concatenate(([0], np.cumsum(n_tok + 1)[:-1]))
            idx = pa.table({
                id_col: pa.array(g[id_col].to_numpy(), pa.int64()),
                "pos": pa.array(g["pos"].to_numpy(), pa.int64()),
                "offset": pa.array(offs, pa.int64()),
                "n_tokens": pa.array(n_tok, pa.int64()),
            })
            idx_final = os.path.join(out_dir, f"shard-{sha[:16]}.idx.parquet")
            if not os.path.exists(idx_final):
                tmp = f"{idx_final}.tmp-{uuid.uuid4().hex[:8]}"
                pq.write_table(idx, tmp)
                os.replace(tmp, idx_final)
            rows.append({"shard": int(sh), "file": name,
                         "n_docs": int(len(g)),
                         "n_tokens": int(n_tok.sum()),
                         "n_bytes": int(len(payload)), "sha256": sha})
        # a partition holds at least one row, so at least one shard
        return pd.DataFrame(rows)

    manifest = collect_pandas(
        partition_reduce(tagged, ["shard"], write_shard),
        ["shard", "file", "n_docs", "n_tokens", "n_bytes", "sha256"]
    ).sort_values("shard").reset_index(drop=True)
    manifest = manifest.astype({"shard": "int64", "n_docs": "int64",
                                "n_tokens": "int64", "n_bytes": "int64"})
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump({"shards": manifest.to_dict("records"),
                   "n_docs": int(manifest["n_docs"].sum()),
                   "n_tokens": int(manifest["n_tokens"].sum()),
                   "n_shards": int(len(manifest)),
                   "vocab_size": int(len(vocab))}, f, indent=1)
    return manifest


def read_token_shards(out_dir: str, id_col: str = "doc_id"):
    """Read a tokenized export back as Dataset(id, shard, pos, n_tokens,
    token_ids) — one read task per shard (the WARC archive-=-task rule);
    token ids come from slicing the flat <u4 stream by the idx offsets."""
    import ray.data as rd

    with open(os.path.join(out_dir, "manifest.json")) as f:
        man = json.load(f)

    def load(batch: pd.DataFrame) -> pd.DataFrame:
        import pyarrow.parquet as pq
        out = []
        for _, row in batch.iterrows():
            stem = row["file"][:-len(".bin")]
            with open(os.path.join(out_dir, row["file"]), "rb") as f:
                stream = np.frombuffer(f.read(), dtype="<u4").astype("int64")
            idx = pq.read_table(
                os.path.join(out_dir, f"{stem}.idx.parquet")).to_pandas()
            idx = idx.sort_values("pos", kind="stable")
            out.append(pd.DataFrame({
                id_col: idx[id_col].to_numpy(),
                "shard": np.full(len(idx), int(row["shard"]), dtype="int64"),
                "pos": idx["pos"].to_numpy(),
                "n_tokens": idx["n_tokens"].to_numpy(),
                "token_ids": [stream[o:o + n] for o, n in
                              zip(idx["offset"], idx["n_tokens"])],
            }))
        # a batch holds at least one manifest row, so ``out`` is not empty
        return pd.concat(out, ignore_index=True)

    shards = pd.DataFrame(man["shards"])
    return rd.from_pandas(shards).repartition(max(1, len(shards))).map_batches(
        load, batch_format="pandas")
