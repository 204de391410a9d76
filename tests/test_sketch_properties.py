"""Property tests (hypothesis) for the sketch/filter primitives — pure
functions, no Ray session needed.

The distributed correctness of each sketch rests on an algebraic property
of its partial: HLL registers merge by elementwise max (so ANY batch
split/ordering yields identical merged registers), the closed-form
Misra-Gries step never overcounts and undercounts by a bounded amount,
and the Bloom filter can never produce a false negative. These are the
invariants the Dataset-level tests assume; hypothesis hunts the edges."""

from __future__ import annotations

import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from docprocai_service_ray.stages.distinct import _hll_estimate, _hll_registers

_P = 8  # small register space so hypothesis explores collisions


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 500), min_size=0, max_size=300),
    st.integers(0, 299),
)
def test_hll_split_invariance(vals, cut):
    """registers(A ++ B) == max(registers(A), registers(B)) for every
    split point — the exact property that makes the Dataset sketch
    deterministic at any parallelism / batch boundary."""
    s = pd.Series(vals, dtype=object)
    whole = _hll_registers(s, _P)
    cut = min(cut, len(vals))
    a = _hll_registers(s.iloc[:cut], _P) if cut else np.zeros(1 << _P, np.uint8)
    b = (
        _hll_registers(s.iloc[cut:], _P)
        if cut < len(vals)
        else np.zeros(1 << _P, np.uint8)
    )
    assert np.array_equal(whole, np.maximum(a, b))


@settings(max_examples=40, deadline=None)
@given(st.sets(st.integers(0, 10_000_000), min_size=1, max_size=2000))
def test_hll_estimate_reasonable(distinct_vals):
    """Estimate within the coarse bound expected at p=8 (σ≈6.5%): 4σ plus
    slack for the tiny-register regime hypothesis favors."""
    s = pd.Series(sorted(distinct_vals), dtype=object)
    est = _hll_estimate(_hll_registers(s, _P))
    n = len(distinct_vals)
    assert abs(est - n) <= max(6, 0.35 * n), (est, n)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=400),
    st.integers(1, 20),
)
def test_misra_gries_closed_form_bounds(vals, capacity):
    """The per-batch MG step (subtract the (cap+1)-th largest count) never
    overcounts, keeps ≤ cap survivors, and undercounts any single value by
    at most len(vals)/(capacity+1)."""
    counts = pd.Series(vals).value_counts()
    if len(counts) > capacity:
        t = int(np.partition(counts.to_numpy(), -capacity - 1)[-capacity - 1])
        kept = (counts[counts > t] - t)
    else:
        kept = counts
    assert len(kept) <= max(capacity, len(counts))
    bound = len(vals) / (capacity + 1)
    for v, true_c in counts.items():
        got = int(kept.get(v, 0))
        assert got <= true_c
        assert true_c - got <= bound + 1e-9, (v, got, true_c, bound)
    if len(counts) > capacity:
        assert len(kept) <= capacity


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.integers(0, 1_000_000), min_size=1, max_size=500),
    st.sets(st.integers(0, 1_000_000), min_size=1, max_size=500),
)
def test_bloom_no_false_negatives(right_keys, probe_keys):
    from docprocai_service_ray.state.groupby import key_hash
    from docprocai_service_ray.state.joins import _bloom_positions

    bits = 1 << 14
    n_hashes = 4
    rdf = pd.DataFrame({"k": sorted(right_keys)})
    idx, bit = _bloom_positions(key_hash(rdf, ["k"]), bits, n_hashes)
    bm = np.zeros(bits // 8, dtype=np.uint8)
    np.bitwise_or.at(bm, idx.ravel(), bit.ravel())
    pdf = pd.DataFrame({"k": sorted(probe_keys)})
    idx, bit = _bloom_positions(key_hash(pdf, ["k"]), bits, n_hashes)
    ok = ((bm[idx] & bit) != 0).all(axis=0)
    member = pdf["k"].isin(rdf["k"]).to_numpy()
    # every true member passes; false positives are allowed
    assert bool(np.all(ok[member]))
