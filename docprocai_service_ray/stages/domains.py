"""Registrable-domain (eTLD+1) extraction and per-domain rollups — the
aggregation key web-pipeline curation actually groups by (C4/Gopher/
RefinedWeb report and filter per *domain*, not per host: every
``blog.x.co.uk`` / ``www.x.co.uk`` subdomain must roll up to
``x.co.uk``).

The full public-suffix list is a network-updated artifact this container
cannot fetch; the op takes the suffix set as an ARGUMENT (dimension-sized,
rides the task closure like urltools' blocklist) with a built-in default
covering the common multi-label public suffixes. The extraction rule is
the PSL algorithm restricted to its 2-label case: if the last two labels
form a public suffix, the registrable domain is the last THREE labels,
else the last TWO (single-label hosts are themselves). The rule is a pair
of anchored regexes + one set membership, so the DuckDB twin runs the
SAME logic (`registrable_domain_sql`).

Pure maps, zero exchange; the per-domain rollup is a partial pre-agg +
domain-keyed reduce (hub domains concentrate counts, never rows).
"""

from __future__ import annotations

import pandas as pd

# common 2-label public suffixes (PSL excerpt — enough to make the rule
# real; callers with a full PSL pass their own set)
DEFAULT_ML_SUFFIXES = (
    "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk",
    "com.au", "net.au", "org.au", "co.jp", "ne.jp", "or.jp",
    "com.br", "net.br", "org.br", "co.in", "co.nz", "co.za",
    "com.cn", "com.mx", "com.ar", "com.tr",
)

# case-insensitive scheme + optional userinfo skip — same fail-closed
# host contract as stages/urltools._HOST_PAT (raw crawl URLs with
# 'HTTP://' or 'user@host' still yield their real host)
_HOST_RE = r"^[a-zA-Z]+://(?:[^/?#@]*@)?([^/:?#]+)"
_LAST2_RE = r"([^.]+\.[^.]+)$"
_LAST3_RE = r"([^.]+\.[^.]+\.[^.]+)$"


def registrable_domain_series(hosts: pd.Series,
                              ml_suffixes=DEFAULT_ML_SUFFIXES) -> pd.Series:
    """Vectorized eTLD+1: last-3 labels when the last-2 form a public
    suffix, else last-2, else the host itself. Hosts compare lowercase."""
    h = hosts.fillna("").str.lower()
    last2 = h.str.extract(_LAST2_RE, expand=False)
    last3 = h.str.extract(_LAST3_RE, expand=False)
    ml = last2.isin(set(s.lower() for s in ml_suffixes))
    out = last2.where(~ml, last3)
    # NaN ⇒ host itself: 1-label hosts (no last2) and 2-label hosts whose
    # whole name IS a public suffix (no last3, e.g. bare 'co.uk')
    return out.fillna(h)


def add_registrable_domain(ds, url_col: str = "url",
                           out_col: str = "domain",
                           ml_suffixes=DEFAULT_ML_SUFFIXES):
    """Append the registrable domain of each row's URL (host extracted
    with urltools' lowercase-scheme contract — run normalize_urls first
    on raw crawl urls). Pure map."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        hosts = df[url_col].fillna("").str.extract(_HOST_RE, expand=False)
        out = df.copy()
        out[out_col] = registrable_domain_series(hosts, ml_suffixes)
        return out

    return ds.map_batches(fn, batch_format="pandas")


def domain_rollup(ds, url_col: str = "url", *,
                  ml_suffixes=DEFAULT_ML_SUFFIXES):
    """Docs-per-registrable-domain — the table domain-level filters and
    mix weights key on. Partial pre-agg inside each batch, then one
    domain-keyed int exchange."""
    from ..state.groupby import group_agg

    withdom = add_registrable_domain(ds, url_col, "domain", ml_suffixes)
    return group_agg(withdom, ["domain"], {"n_docs": ("domain", "size")})


def registrable_domain_sql(host_expr: str,
                           ml_suffixes=DEFAULT_ML_SUFFIXES) -> str:
    """DuckDB twin of :func:`registrable_domain_series` — same anchored
    regexes, same suffix set, same fallbacks."""
    sufs = ", ".join(f"'{s.lower()}'" for s in sorted(set(ml_suffixes)))
    h = f"lower(coalesce({host_expr}, ''))"
    last2 = f"nullif(regexp_extract({h}, '{_LAST2_RE}', 1), '')"
    last3 = f"nullif(regexp_extract({h}, '{_LAST3_RE}', 1), '')"
    return (f"CASE WHEN {last2} IN ({sufs}) THEN coalesce({last3}, {h}) "
            f"ELSE coalesce({last2}, {h}) END")


def domain_rollup_sql(table: str, url_expr: str,
                      ml_suffixes=DEFAULT_ML_SUFFIXES) -> str:
    """DuckDB twin of :func:`domain_rollup` (same host regex as
    urltools)."""
    host = f"regexp_extract({url_expr}, '{_HOST_RE}', 1)"
    dom = registrable_domain_sql(host, ml_suffixes)
    return (f"SELECT {dom} AS domain, COUNT(*) AS n_docs "
            f"FROM {table} GROUP BY 1")
