"""OpenIE-style (subj, pred, obj) triple extraction (the ST4 analog).

Rule/pattern extractor over sentences: a compiled alternation of predicate
phrases with capitalized-span subject/object captures. Deterministic — the
target replaces the reference's LLM enrichment stage
(reference: fileextractlib/LectureLlmGenerator.py:20-127, Ollama HTTP with
retries and random model choice, LLMService.py:190-238) with a pure,
seeded-friendly extractor; no external service, no nondeterminism
(SURVEY.md §4.3 determinism row).

The pattern inventory is the contract shared by the synthetic corpus
generator (sources/webgen.py plants facts in exactly these shapes), the
scalar oracle (oracle/scalar.py) and the distributed stage
(stages/triple_extract.py).
"""

from __future__ import annotations

import re

# pred_id → surface phrase as planted/recognized in sentences.
PREDICATES: dict[str, str] = {
    "founded": "founded",
    "acquired": "acquired",
    "works_for": "works for",
    "located_in": "is located in",
    "based_in": "is based in",
    "born_in": "was born in",
    "capital_of": "is the capital of",
    "partnered_with": "partnered with",
    "invested_in": "invested in",
    "ceo_of": "is the CEO of",
    "produces": "produces",
}

_PHRASE_TO_PRED: dict[str, str] = {v: k for k, v in PREDICATES.items()}

# A surface span: capitalized word(s), possibly with digits ("Area 51"),
# joined by single spaces. No '.' inside surfaces (segmentation contract).
_SPAN = r"[A-Z][A-Za-z0-9&'-]*(?: [A-Z0-9][A-Za-z0-9&'-]*)*"
_PHRASES = "|".join(re.escape(p) for p in sorted(PREDICATES.values(), key=len, reverse=True))

SENTENCE_PATTERN = re.compile(
    rf"^(?P<subj>{_SPAN}) (?P<phrase>{_PHRASES}) (?P<obj>{_SPAN})"
    rf"(?: (?:in|on|since|during) [A-Za-z0-9 ]+)?[.!?]?$"
)


def extract_triples(
    sentence: str, pattern: re.Pattern[str] | None = None
) -> list[tuple[str, str, str, int, int, int, int, float]]:
    """Extract triples from one sentence.

    Returns [(subj, pred_id, obj, subj_start, subj_len, obj_start, obj_len,
    conf)]; spans index into ``sentence``. Pure per-sentence.
    """
    pat = pattern or SENTENCE_PATTERN
    m = pat.match(sentence.strip())
    if not m:
        return []
    lead = len(sentence) - len(sentence.lstrip())
    subj, phrase, obj = m.group("subj"), m.group("phrase"), m.group("obj")
    return [
        (
            subj,
            _PHRASE_TO_PRED[phrase],
            obj,
            lead + m.start("subj"),
            len(subj),
            lead + m.start("obj"),
            len(obj),
            1.0,
        )
    ]
