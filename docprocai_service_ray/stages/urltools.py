"""URL canonicalization and host-blocklist filtering — the crawl-hygiene
pass a C4/CCNet-style web pipeline runs before url-dedup (Raffel et al.
2020 §2.2 filter list; CCNet's url-level dedup keys): normalize URLs so
syntactic variants of the same resource collide, and gate out blocklisted
hosts before any expensive stage sees their bytes.

Both ops are PURE MAPS (no exchange, stable at any parallelism), and
every transform is a chain of RE2-COMPATIBLE regex rewrites so the DuckDB
twin executes the SAME patterns — the parity under test is the rewrite
semantics (Python ``re`` vs RE2), exactly like stages/pii.py.

Normalization steps, in order (each a (pattern, replacement) pair shared
verbatim with SQL):
1. strip the fragment (``#…``);
2. strip tracking params (``utm_*``, ``fbclid``, ``gclid``, ``mc_eid``)
   wherever they sit in the query string, then repair the separator
   (leading ``&`` → ``?``) and any dangling ``?``/``&``;
3. strip default ports (``:80`` for http, ``:443`` for https);
4. lowercase the scheme and host (NOT the path — paths are
   case-significant), via split-lower-concat on both sides.

The blocklist filter matches a host or any subdomain of it
(``host == b or host endswith '.' + b``). The blocklist is assumed
dimension-sized (it is a human-curated artifact: thousands, not
millions) and ships once per worker via the compiled-closure capture,
like every broadcast lookup in this repo.
"""

from __future__ import annotations

import re

import pandas as pd

# shared tracker-name alternation (RE2-safe: no lookarounds)
_TRK = r"(utm_[a-z]*|fbclid|gclid|mc_eid)"
# (pattern, replacement) chain, applied IN ORDER; pandas str.replace is
# global, so only the first tracker step relies on multi-match. Removing
# an &-prefixed tracker consumes its own separator; a ?-prefixed tracker
# followed by survivors promotes the next param to '?'; a ?-prefixed
# tracker that is the whole query drops the '?' too.
_NORM_STEPS: list[tuple[str, str]] = [
    (r"#.*$", ""),                                        # fragment
    (rf"&{_TRK}=[^&#]*", ""),                             # non-leading trk
    (rf"\?{_TRK}=[^&#]*&", "?"),                          # leading trk, more
    (rf"\?{_TRK}=[^&#]*$", ""),                           # only-param trk
    (r"^(http)://([^/:?#]+):80($|[/?#].*)", r"\1://\2\3"),    # default port
    (r"^(https)://([^/:?#]+):443($|[/?#].*)", r"\1://\2\3"),
]
_SCHEME_HOST_RE = re.compile(r"^[a-zA-Z]+://[^/?#]*")
# Host extraction must not fail open on raw (un-normalized) crawl URLs:
# the scheme matches case-insensitively ('HTTP://blocked/...' still yields
# the host) and an optional userinfo prefix ('http://u@blocked/') is
# skipped, so the blocklist gate holds whether or not normalize_urls ran
# first. RE2-compatible (shared verbatim with the DuckDB twin below).
_HOST_PAT = r"^[a-zA-Z]+://(?:[^/?#@]*@)?([^/:?#]+)"
_HOST_RE = re.compile(_HOST_PAT)


def normalize_url_series(urls: pd.Series) -> pd.Series:
    """Vectorized normalization chain (pandas str.replace, regex=True —
    compiled once, applied column-wise). Lowercasing runs BEFORE the
    port strip so the anchored lowercase port patterns match."""
    u = urls.fillna("")
    for pat, rep in _NORM_STEPS[:4]:  # fragment + tracker params
        u = u.str.replace(pat, rep, regex=True)
    # lowercase scheme://host only (paths are case-significant)
    u = u.str.replace(_SCHEME_HOST_RE, lambda m: m.group(0).lower(),
                      regex=True)
    for pat, rep in _NORM_STEPS[4:]:  # default ports
        u = u.str.replace(pat, rep, regex=True)
    return u


def normalize_urls(ds, url_col: str = "url", out_col: str | None = None):
    """Append (or replace) the normalized-URL column — the key url-dedup
    should run on. Pure map."""
    dst = out_col or url_col

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df[dst] = normalize_url_series(df[url_col])
        return df

    return ds.map_batches(fn, batch_format="pandas")


def normalize_url_sql(expr: str) -> str:
    """The EXACT DuckDB expression chain for :func:`normalize_url_series`
    (same patterns, same order; 'g' on the multi-match tracker step)."""
    e = f"regexp_replace({expr}, '#.*$', '')"
    e = f"regexp_replace({e}, '&{_TRK}=[^&#]*', '', 'g')"
    # 'g' on the leading-tracker steps too: the anchors mean they can
    # match at most once per query start anyway, and the flag keeps the
    # SQL identical to pandas' always-global str.replace on pathological
    # URLs containing a second literal '?'.
    e = f"regexp_replace({e}, '\\?{_TRK}=[^&#]*&', '?', 'g')"
    e = f"regexp_replace({e}, '\\?{_TRK}=[^&#]*$', '', 'g')"
    head = f"regexp_extract({e}, '^[a-zA-Z]+://[^/?#]*')"
    e = f"concat(lower({head}), substr({e}, length({head}) + 1))"
    e = (f"regexp_replace({e}, '^(http)://([^/:?#]+):80($|[/?#].*)', "
         f"'\\1://\\2\\3')")
    return (f"regexp_replace({e}, '^(https)://([^/:?#]+):443($|[/?#].*)', "
            f"'\\1://\\2\\3')")


def host_blocklist_filter(ds, blocklist: list[str], *, url_col: str = "url",
                          keep_blocked: bool = False):
    """Drop (or keep, for auditing) rows whose URL host is a blocklisted
    host or any subdomain of one. Hosts compare lowercase. Pure map; the
    blocklist rides the task closure (dimension-sized by contract)."""
    blocked = frozenset(b.lower() for b in blocklist)
    suffixes = tuple("." + b for b in sorted(blocked))

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        hosts = (df[url_col].fillna("").str.extract(_HOST_RE, expand=False)
                 .fillna("").str.lower())
        hit = hosts.isin(blocked)
        if suffixes:
            hit |= hosts.str.endswith(suffixes)
        return df.loc[hit if keep_blocked else ~hit]

    return ds.map_batches(fn, batch_format="pandas")


def blocklist_predicate_sql(url_expr: str, blocklist: list[str],
                            blocked: bool = True) -> str:
    """DuckDB predicate matching :func:`host_blocklist_filter` — same
    host regex, same exact-or-subdomain rule."""
    host = f"lower(regexp_extract({url_expr}, '{_HOST_PAT}', 1))"
    terms = []
    for b in sorted(set(x.lower() for x in blocklist)):
        terms.append(f"({host} = '{b}' OR {host} LIKE '%.{b}')")
    pred = " OR ".join(terms) if terms else "FALSE"
    return f"({pred})" if blocked else f"NOT ({pred})"


def host_crawl_stats(ds, *, url_col: str = "url", ts_col: str = "warc_ts"):
    """Per-host crawl-freshness rollup: page count, distinct capture days,
    first/last capture (µs-precision strings so the DuckDB twin compares
    byte-equal) and the capture span in whole days — the recrawl-policy /
    staleness table a continuous crawl operation watches (the reference
    re-ingests a document when its source changes; S7/W6 — this is the
    corpus-level view of the same freshness concern).

    One pure map emitting per-batch (host, n, days-set partials as
    min/max/first/last)? No — distinct DAYS require day-level identity, so
    the partial is (host, day) with counts and min/max ts: exchange
    fan-in is hosts × days (calendar-bounded), never pages."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        host = df[url_col].str.extract(_HOST_PAT, expand=False).fillna("")
        ts = pd.to_datetime(df[ts_col])
        day = ts.dt.strftime("%Y-%m-%d")
        g = pd.DataFrame({"host": host, "day": day, "ts": ts}).groupby(
            ["host", "day"], as_index=False).agg(
                n=("ts", "size"), mn=("ts", "min"), mx=("ts", "max"))
        return g

    def fold(part: pd.DataFrame) -> pd.DataFrame:
        byday = part.groupby(["host", "day"], as_index=False).agg(
            n=("n", "sum"), mn=("mn", "min"), mx=("mx", "max"))
        out = byday.groupby("host", as_index=False).agg(
            n_pages=("n", "sum"), n_days=("day", "nunique"),
            mn=("mn", "min"), mx=("mx", "max"))
        out["first_ts"] = out["mn"].dt.strftime("%Y-%m-%d %H:%M:%S.%f")
        out["last_ts"] = out["mx"].dt.strftime("%Y-%m-%d %H:%M:%S.%f")
        out["span_days"] = (
            (out["mx"].dt.normalize() - out["mn"].dt.normalize()).dt.days
        ).astype("int64")
        return out[["host", "n_pages", "n_days", "first_ts", "last_ts",
                    "span_days"]].astype({"n_pages": "int64",
                                          "n_days": "int64"})

    from ..state.groupby import partition_reduce

    return partition_reduce(
        ds.map_batches(partial, batch_format="pandas"),
        ["host"], fold)


def host_crawl_sql(pages_glob: str) -> str:
    """DuckDB twin of :func:`host_crawl_stats` over the same corpus
    parquet (same host regex, same µs timestamp rendering)."""
    return f"""
        WITH p AS (
            SELECT coalesce(regexp_extract(url, '{_HOST_PAT}', 1), '')
                       AS host,
                   warc_ts AS ts
            FROM read_parquet('{pages_glob}')
        )
        SELECT host,
               COUNT(*) AS n_pages,
               COUNT(DISTINCT strftime(ts, '%Y-%m-%d')) AS n_days,
               strftime(MIN(ts), '%Y-%m-%d %H:%M:%S.%f') AS first_ts,
               strftime(MAX(ts), '%Y-%m-%d %H:%M:%S.%f') AS last_ts,
               CAST(date_diff('day', CAST(MIN(ts) AS DATE),
                              CAST(MAX(ts) AS DATE)) AS BIGINT) AS span_days
        FROM p GROUP BY 1
    """
