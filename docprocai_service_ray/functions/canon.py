"""Canonicalization kernels: MinHash-LSH candidate generation + union-find
(the W2 analog — replaces the reference's whole-corpus BERTopic refit,
fileextractlib/TopicModel.py:28-109, which is a global single-node fit).

These pure kernels are shared by the scalar oracle (oracle/scalar.py) and
the distributed stage (stages/canonicalize.py) so both compute *identical*
clusters; the distributed version differs only in WHERE the groupbys run.

Skew notes (SURVEY.md §4.3):
- mention→surface pre-aggregation happens BEFORE any of this (a head
  surface with 10^6 mentions is one row here) — that distinct step is the
  primary skew defusal for canonicalization;
- band buckets that are still large (many near-identical surfaces) cap
  pair generation at ``pair_cap`` via a sorted consecutive chain, which
  preserves intra-bucket connectivity while bounding work at O(n) — the
  cap is deterministic and logged, never silent.
"""

from __future__ import annotations

import numpy as np

from .hashing import (
    band_keys,
    char_shingles,
    jaccard,
    minhash_params,
    minhash_signature,
    stable_u64,
    surface_shingle_hashes,
)

PAIR_CAP = 50  # bucket size above which all-pairs degrades to a star

_log = __import__("logging").getLogger(__name__)


def surface_bands(surface: str, a: np.ndarray, b: np.ndarray, k: int, bands: int) -> list[int]:
    """LSH band keys for one surface (seeded MinHash over char k-grams)."""
    sig = minhash_signature(surface_shingle_hashes(surface, k), a, b)
    return band_keys(sig, bands)


def bucket_candidate_pairs(members: list, pair_cap: int = PAIR_CAP) -> list[tuple]:
    """Candidate pairs within one bucket (an LSH band of surfaces or doc
    ids, a shared winnow fingerprint). Deterministic: members are sorted
    and distinct; small buckets emit all pairs, large buckets a STAR on the
    min member (same pre-verification connectivity at O(n) pairs, but
    component diameter stays 2 so distributed min-label propagation
    converges in O(1) rounds — a consecutive chain would need O(bucket
    size) rounds). The cap event is logged."""
    ss = sorted(set(members))
    if len(ss) < 2:
        return []
    if len(ss) <= pair_cap:
        return [(ss[i], ss[j]) for i in range(len(ss)) for j in range(i + 1, len(ss))]
    _log.warning("bucket pair cap engaged: %d members > cap %d, star-capped", len(ss), pair_cap)
    return [(ss[0], ss[i]) for i in range(1, len(ss))]


def verify_pair(s1: str, s2: str, k: int, threshold: float) -> bool:
    return jaccard(set(char_shingles(s1, k)), set(char_shingles(s2, k))) >= threshold


def lsh_candidate_edges(
    surfaces: list[str], *, seed: int, num_perms: int, bands: int, k: int, threshold: float
) -> list[tuple[str, str]]:
    """Sequential reference implementation (oracle / small inputs): band all
    surfaces, bucket, emit verified similar-surface edges."""
    a, b = minhash_params(num_perms, seed)
    buckets: dict[int, list[str]] = {}
    for s in surfaces:
        for key in surface_bands(s, a, b, k, bands):
            buckets.setdefault(key, []).append(s)
    seen: set[tuple[str, str]] = set()
    edges: list[tuple[str, str]] = []
    for key in sorted(buckets):
        for p in bucket_candidate_pairs(buckets[key]):
            if p in seen:
                continue
            seen.add(p)
            if verify_pair(p[0], p[1], k, threshold):
                edges.append(p)
    return edges


class UnionFind:
    """Sequential union-find with min-label rule (oracle + driver fallback;
    the distributed path is iterated min-label propagation in
    stages/canonicalize.py)."""

    def __init__(self) -> None:
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, x: str, y: str) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return
        lo, hi = (rx, ry) if rx < ry else (ry, rx)  # min-label wins
        self.parent[hi] = lo

    def components(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for x in list(self.parent):
            out.setdefault(self.find(x), []).append(x)
        return out


# Sorts before any real surface (\x01 < every printable char) so qid roots
# win min-label ties. NEVER use "\x00" here: pandas groupby/hash use
# C-string semantics and truncate at NUL, collapsing distinct qid nodes.
QID_NODE_PREFIX = "\x01Q:"


def qid_node(qid: str) -> str:
    return QID_NODE_PREFIX + qid


def is_qid_node(node: str) -> bool:
    return node.startswith(QID_NODE_PREFIX)


def canonical_id_for_component(members: list[str]) -> str:
    """Deterministic canonical id: the min qid if any qid node is present
    (numeric-aware so Q9 < Q10), else a content-derived cluster id."""
    qids = [m[len(QID_NODE_PREFIX):] for m in members if is_qid_node(m)]
    if qids:
        return min(qids, key=lambda q: (len(q), q))
    m = min(m for m in members if not is_qid_node(m))
    return f"C{stable_u64(m):016x}"
