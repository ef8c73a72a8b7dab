"""Independent checks of every output the benchmark reads.

Each ``check_*`` function compares one platform output with an answer
computed apart from the platform (from the generator's ground truth, the raw
events replayed so far, or the brute-force BM25 ranking below) and returns
``None`` when they agree or a one-line reason when they do not.
``self_test`` feeds each check a perturbed copy of a real output and
confirms that the check rejects it.
"""

from __future__ import annotations

import copy
import math
import re
from collections import Counter
from datetime import datetime
from statistics import fmean, median, pstdev

#: BM25 parameters and idf of ``repro.storage.fts.analysis``.
K1 = 1.2
B = 0.75
#: Letter runs joined by an apostrophe or hyphen: the token rule of the
#: platform's analyzer, written here as a regular expression (digits and
#: ``_`` are separators).
_TOKEN = re.compile(r"[^\W\d_]+(?:['’-][^\W\d_]+)*")
#: Most articles whose topic tags may differ from the generator's labels:
#: the platform tags by keyword hits, the generator labels by the topic it
#: wrote about, and a few background articles mention enough topic words.
TAG_MISMATCH_LIMIT = 14


def tokens(text: str) -> list[str]:
    return [word.casefold().lower() for word in _TOKEN.findall(text)]


class Bm25Oracle:
    """Brute-force BM25 over every ingested document: each search walks all
    documents, so its ranking shares nothing with the platform's posting lists."""

    def __init__(self) -> None:
        self.docs: dict[str, tuple[Counter, int]] = {}

    def add(self, url: str, title: str, text: str) -> None:
        words = tokens(f"{title} {text}")
        self.docs[url] = (Counter(words), len(words))

    def scores(self, query: str) -> dict[str, float]:
        terms = [t for chunk in query.split() for t in tokens(chunk)]
        if not terms or not self.docs:
            return {}
        n_docs = len(self.docs)
        avgdl = sum(length for _c, length in self.docs.values()) / n_docs
        matched = [u for u, (c, _l) in self.docs.items() if all(c[t] for t in terms)]
        df = {t: sum(1 for c, _l in self.docs.values() if c[t]) for t in terms}
        out = {}
        for url in matched:
            counts, length = self.docs[url]
            score = 0.0
            for term in terms:
                tf = counts[term]
                idf = math.log(1.0 + (n_docs - df[term] + 0.5) / (df[term] + 0.5))
                score += idf * (tf * (K1 + 1.0)) / (tf + K1 * (1.0 - B + B * (length / avgdl)))
            out[url] = score
        return out


# ------------------------------------------------------------------ checks

def check_article(payload, generated) -> str | None:
    article = generated.article
    want = (article.url, article.outlet_domain, article.title, article.published_at.isoformat())
    got = (payload.get("url"), payload.get("outlet_domain"), payload.get("title"), payload.get("published_at"))
    return None if got == want else f"article {article.url}: got {got}, want {want}"


def check_list(payload, want_urls: list[str], want_total: int) -> str | None:
    got = [a["url"] for a in payload["articles"]]
    if payload["total"] != want_total:
        return f"list total {payload['total']} != {want_total}"
    return None if got == want_urls else f"list {got[:3]}... != {want_urls[:3]}..."


def check_search(payload, oracle_scores: dict[str, float], limit: int) -> str | None:
    """Top-``limit`` of the brute-force ranking; equal scores in any order."""
    ranked = sorted(oracle_scores.values(), reverse=True)
    results = payload["results"]
    if len(results) != min(limit, len(ranked)) or payload["total"] != len(results):
        return f"search returned {len(results)} hits, want {min(limit, len(ranked))}"
    if not results:
        return None
    cutoff = ranked[len(results) - 1]
    got_urls = {r["url"] for r in results}
    for url, score in oracle_scores.items():
        if score > cutoff + 1e-9 and url not in got_urls:
            return f"search missed {url} (score {score:.6f} > cutoff {cutoff:.6f})"
    previous = math.inf
    for hit in results:
        want = oracle_scores.get(hit["url"])
        if want is None:
            return f"search hit {hit['url']} does not match the query"
        if abs(hit["score"] - want) > 1e-6 or want > previous + 1e-9:
            return f"search hit {hit['url']} score {hit['score']} != {want:.6f} or out of order"
        previous = want
    return None


def check_assessment(payload, generated, n_posts: int, n_reactions: int) -> str | None:
    """Reference and social counts of one article.  Internal and external
    references are compared as one total: every outlet of the generated
    scenario lives under ``example.com``, so the platform classifies links
    between outlets as internal (see ``external_as_internal``)."""
    ind = payload["indicators"]
    want = (
        generated.n_internal_links + generated.n_external_links, generated.n_scientific_links,
        n_posts, n_reactions,
    )
    got = (
        ind["internal_references"] + ind["external_references"], ind["scientific_references"],
        ind["n_posts"], ind["n_reactions"],
    )
    return None if tuple(map(float, got)) == tuple(map(float, want)) else (
        f"assessment {generated.url}: got {got}, want {want}"
    )


def external_as_internal(payload, generated) -> int:
    """External references the platform counted as internal."""
    return generated.n_external_links - int(payload["indicators"]["external_references"])


def _summary(low: list[float], high: list[float]) -> dict[str, float]:
    out = {}
    for prefix, samples in (("low", low), ("high", high)):
        out[f"{prefix}_n"] = float(len(samples))
        out[f"{prefix}_mean"] = fmean(samples) if samples else 0.0
        out[f"{prefix}_median"] = float(median(samples)) if samples else 0.0
        out[f"{prefix}_std"] = pstdev(samples) if samples else 0.0
    return out


def check_insights(payload, samples, n_articles: int, n_tagged: int, window: tuple[datetime, datetime]) -> str | None:
    """The §4.2 summaries against the ground-truth samples of the tagged articles."""
    meta = payload["metadata"]
    if (meta["n_articles"], meta["n_topic_articles"]) != (n_articles, n_tagged):
        return f"insights counts {meta} != ({n_articles}, {n_tagged})"
    want_days = (window[1].date() - window[0].date()).days
    if len(payload["newsroom_activity"]["days"]) != want_days:
        return f"insights has {len(payload['newsroom_activity']['days'])} days, want {want_days}"
    for axis in ("social_engagement", "evidence_seeking"):
        want = _summary(*samples[axis])
        got = payload[axis]
        for key, value in want.items():
            if not math.isclose(got[key], value, rel_tol=1e-9, abs_tol=1e-12):
                return f"insights {axis}.{key} {got[key]} != {value}"
    return None


def check_per_article(reactions: dict[str, int], ratios: dict[str, float], ids, truth, tagged) -> str | None:
    """The per-article values the insight samples are drawn from."""
    by_url = truth.reactions_per_url
    for url in tagged:
        article_id = ids[url]
        want_r = by_url.get(url, 0)
        want_s = truth.inputs.articles[url].scientific_ratio
        if reactions.get(article_id) != want_r or ratios.get(article_id) != want_s:
            return f"{url}: reactions {reactions.get(article_id)} / {want_r}, ratio {ratios.get(article_id)} / {want_s}"
    if len(reactions) != len(tagged) or len(ratios) != len(tagged):
        return f"per-article maps cover {len(reactions)}/{len(ratios)} articles, want {len(tagged)}"
    return None


def check_daily_counts(got: dict, want: dict) -> str | None:
    return None if dict(got) == want else "daily_article_counts differ from the ground truth"


def check_class_summary(got: dict, want: dict) -> str | None:
    keys = ("outlets", "articles", "topic_articles", "posts", "reactions")
    if set(got) != set(want):
        return f"rating classes {sorted(got)} != {sorted(want)}"
    for cls, row in want.items():
        for key in keys:
            if got[cls][key] != row[key]:
                return f"rating_class_summary {cls}.{key} {got[cls][key]} != {row[key]}"
    return None


def check_row_counts(rdbms: dict, warehouse: dict, want: dict) -> str | None:
    for name, count in want.items():
        if rdbms.get(name) != count or warehouse.get(name) != count:
            return f"{name}: rdbms {rdbms.get(name)}, warehouse {warehouse.get(name)}, want {count}"
    return None


def check_tags(tagged: set[str], labelled: set[str], limit: int = TAG_MISMATCH_LIMIT) -> str | None:
    mismatched = len(tagged ^ labelled)
    return None if mismatched <= limit else f"{mismatched} topic tags differ from the labels (limit {limit})"


# --------------------------------------------------------------- self-test

def self_test(cases: dict) -> list[str]:
    """Perturb one real output per check and return the checks that still
    passed (an empty list means every check can fail).  The perturbations
    build new objects; the captured outputs are left as they are."""
    perturb = {
        "article": lambda a: ({**a[0], "title": a[0]["title"] + "!"},) + a[1:],
        "list": lambda a: ({**a[0], "articles": a[0]["articles"][1:]},) + a[1:],
        "search": lambda a: ({**a[0], "results": a[0]["results"][1:]},) + a[1:],
        "assessment": lambda a: (a[0], a[1], a[2], a[3] + 1),
        "insights": lambda a: (_bump(a[0], "social_engagement", "low_mean"),) + a[1:],
        "per_article": lambda a: (_nudge_first(a[0], 1),) + a[1:],
        "daily_counts": lambda a: (_nudge_first(a[0], -1),) + a[1:],
        "class_summary": lambda a: (_bump(a[0], next(iter(a[0])), "reactions"),) + a[1:],
        "row_counts": lambda a: (a[0], _nudge_first(a[1], -1), a[2]),
        "tags": lambda a: (a[0] ^ set(list(a[1])[: TAG_MISMATCH_LIMIT + 1]), a[1]),
    }
    functions = {
        "article": check_article, "list": check_list, "search": check_search,
        "assessment": check_assessment, "insights": check_insights,
        "per_article": check_per_article, "daily_counts": check_daily_counts,
        "class_summary": check_class_summary, "row_counts": check_row_counts,
        "tags": check_tags,
    }
    undetected = []
    for name, check in functions.items():
        args = cases.get(name)
        if args is None:
            undetected.append(f"{name} (no output captured)")
            continue
        if check(*args) is not None:
            undetected.append(f"{name} (rejects its real output)")
        elif check(*perturb[name](args)) is None:
            undetected.append(name)
    return undetected


def _bump(payload: dict, section: str, key: str) -> dict:
    out = copy.deepcopy(payload)
    out[section][key] += 1.0
    return out


def _nudge_first(values: dict, delta: int) -> dict:
    """A copy of ``values`` with its first entry changed by ``delta`` (one
    sample changed, or one row missing)."""
    out = dict(values)
    key = next(iter(out))
    out[key] += delta
    return out
