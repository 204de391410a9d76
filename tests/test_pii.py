"""PII detection/scrub (stages/pii): brute-force count parity, scrub
output, non-overlap of classes after scrubbing, null text, and RE2
parity of the pattern set against DuckDB on adversarial strings. The
sf0.01 SQL parity of the registered ``pii_stats_by_source`` query is
covered by tests/test_queries.py."""

from __future__ import annotations

import re

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from docprocai_service_ray.stages.pii import (PII_PATTERNS, pii_scrub,
                                              pii_stats)
from docprocai_service_ray.state.groupby import collect_pandas, pin_partitions

pytestmark = pytest.mark.usefixtures("ray_session")

COLS = ["source", "n_docs", "pii_docs", "email_hits", "ipv4_hits",
        "phone_hits"]

TEXTS = [
    "mail me at a.b-c_d%x+1@sub.example.co.uk today",
    "two mails x@y.io and z@w.ai plus ip 192.168.0.1",
    "call +44 123 4567 890 or +1 555 0100 0199",
    "no pii here at all",
    "",
    None,
    "edge 1.2.3.4 start and end 10.20.30.40",
    "not-an-ip 1234.5.6.7 but 999.999.999.999 matches by design",
    "email-ish @nope.com and trailing a@b.c",
]


def _docs():
    n = len(TEXTS)
    return pd.DataFrame({
        "doc_id": np.arange(n, dtype="int64"),
        "text": pd.array(TEXTS, dtype=object),
        "source": [f"s{i % 2}" for i in range(n)],
    })


def _brute(docs: pd.DataFrame) -> pd.DataFrame:
    rows = []
    for r in docs.itertuples():
        t = r.text or ""
        c = {k: len(re.findall(p, t)) for k, p in PII_PATTERNS.items()}
        rows.append((r.source, int(any(c.values())), c["email"],
                     c["ipv4"], c["phone"]))
    d = pd.DataFrame(rows, columns=["source", "pii", "email", "ipv4",
                                    "phone"])
    out = d.groupby("source", as_index=False).agg(
        n_docs=("pii", "size"), pii_docs=("pii", "sum"),
        email_hits=("email", "sum"), ipv4_hits=("ipv4", "sum"),
        phone_hits=("phone", "sum"))
    for c in out.columns[1:]:
        out[c] = out[c].astype("int64")
    return out.sort_values("source").reset_index(drop=True)


def test_stats_matches_brute_force():
    docs = _docs()
    with pin_partitions(3):
        got = (collect_pandas(
            pii_stats(rd.from_pandas(docs).repartition(4), "text", "source"),
            COLS).sort_values("source").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, _brute(docs), check_dtype=False)


def test_patterns_match_duckdb_re2():
    # the contract pii_stats_sql relies on: Python re and DuckDB RE2
    # count the same matches for these pattern strings
    con = duckdb.connect()
    for t in TEXTS:
        for k, p in PII_PATTERNS.items():
            want = len(re.findall(p, t or ""))
            got = con.execute(
                "SELECT len(regexp_extract_all(?, ?))", [t or "", p]
            ).fetchone()[0]
            assert got == want, (k, t, got, want)


def test_scrub():
    docs = _docs()
    out = collect_pandas(
        pii_scrub(rd.from_pandas(docs).repartition(3), "text",
                  out_col="clean"),
        ["doc_id", "clean"]).sort_values("doc_id")
    clean = dict(zip(out["doc_id"], out["clean"]))
    assert clean[0] == "mail me at [EMAIL] today"
    assert clean[1] == "two mails [EMAIL] and [EMAIL] plus ip [IPV4]"
    assert clean[2] == "call [PHONE] or [PHONE]"
    assert clean[3] == "no pii here at all"
    assert clean[5] == ""  # null text → empty
    # nothing matching remains anywhere
    for k, p in PII_PATTERNS.items():
        assert not any(re.search(p, v) for v in clean.values()), k
