"""Seeded inputs of the benchmark and the ground truth its checks compare with.

The inputs are the §4 COVID-19 scenario at the volume scale of
``benchmarks/conftest.py`` (45 outlets, 60 days, 1,407 articles at seed 13)
with a fixed number of reactions, cut into a preload and fixed-size event
batches.  ``Truth`` follows the raw events a run has replayed and answers,
without asking the platform, what every read should return.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import date, datetime
from typing import Any

from repro.simulation import CovidScenarioConfig, generate_covid_scenario

N_OUTLETS = 45
VOLUME_SCALE = 0.08
TOPIC = "covid19"
#: Reactions kept from the generated stream (a seeded uniform sample).  The
#: generator's reaction volume swings by +-15% between seeds, and the CDC
#: and insight costs grow with it; a fixed count keeps the data volume the
#: same for every seed, which then changes only which articles get them.
REACTIONS = 15_000
#: Events per write batch: about one simulated hour of the feed at this scale.
BATCH_EVENTS = 32

Event = tuple[str, dict[str, Any]]


@dataclass
class Batch:
    """A fixed number of consecutive events, in event-time order."""

    postings: list[Event]
    reactions: list[Event]
    #: Article URLs whose first posting falls in this batch, in posting order.
    new_urls: list[str]

    @property
    def events(self) -> int:
        return len(self.postings) + len(self.reactions)


@dataclass
class Inputs:
    scenario: Any
    preload_postings: list[Event]
    preload_reactions: list[Event]
    preload_urls: list[str]
    batches: list[Batch]
    #: URL -> GeneratedArticle (title, publication time, link counts, topic).
    articles: dict[str, Any]
    #: outlet domain -> RatingClass, as the generator assigned it.
    ratings: dict[str, Any]


def make_inputs(seed: int, feed_batches: int, batch_events: int) -> Inputs:
    """Generate the scenario for ``seed``; the last ``feed_batches`` x
    ``batch_events`` events, cut into batches of ``batch_events`` events,
    are the feed a run replays, and every event before them is preload.

    Batches hold a fixed number of events, not a fixed stretch of simulated
    time, so that every batch asks the same work of the platform whatever
    the seed's daily volume; and the feed is cut by count, not by day, so
    that it holds the batches the run needs whatever the seed."""
    scenario = generate_covid_scenario(
        CovidScenarioConfig(n_outlets=N_OUTLETS, volume_scale=VOLUME_SCALE, random_seed=seed)
    )
    # (event time, 0 for a posting or 1 for a reaction, event); a post
    # sorts before its reactions.
    reactions = list(scenario.reaction_events())
    kept = random.Random(seed).sample(reactions, min(REACTIONS, len(reactions)))
    events = [(_time(e), 0, e) for e in scenario.posting_events()] + [(_time(e), 1, e) for e in kept]
    events.sort(key=lambda e: e[:2])
    cut = len(events) - feed_batches * batch_events
    if cut <= 0:
        raise ValueError(f"a feed of {feed_batches} batches needs more than the {len(events)} events generated")
    preload, rest = events[:cut], events[cut:]
    seen: set[str] = set()
    pre_postings = [e[2] for e in preload if e[1] == 0]
    preload_urls = _first_urls(pre_postings, seen)
    batches = []
    for start in range(0, len(rest), batch_events):
        chunk = rest[start:start + batch_events]
        postings = [e[2] for e in chunk if e[1] == 0]
        batches.append(Batch(postings, [e[2] for e in chunk if e[1] == 1], _first_urls(postings, seen)))
    return Inputs(
        scenario=scenario,
        preload_postings=pre_postings,
        preload_reactions=[e[2] for e in preload if e[1] == 1],
        preload_urls=preload_urls,
        batches=batches,
        articles={g.url: g for g in scenario.articles},
        ratings={p.domain: p.rating_class for p in scenario.outlets},
    )


def _time(event: Event) -> datetime:
    return datetime.fromisoformat(event[1]["created_at"])


def _first_urls(postings: list[Event], seen: set[str]) -> list[str]:
    out = []
    for _key, value in postings:
        url = value["article_url"]
        if url not in seen:
            seen.add(url)
            out.append(url)
    return out


@dataclass
class Truth:
    """What the platform should hold after the events replayed so far."""

    inputs: Inputs
    urls: list[str] = field(default_factory=list)
    posts_per_url: Counter = field(default_factory=Counter)
    post_url: dict[str, str] = field(default_factory=dict)
    reactions_per_url: Counter = field(default_factory=Counter)
    #: outlet -> sorted list of (published_at, url)
    by_outlet: dict[str, list[tuple[datetime, str]]] = field(
        default_factory=lambda: defaultdict(list)
    )
    n_posts: int = 0
    n_reactions: int = 0

    def replay(self, postings: list[Event], reactions: list[Event], new_urls: list[str]) -> None:
        for _key, value in postings:
            self.posts_per_url[value["article_url"]] += 1
            self.post_url[value["post_id"]] = value["article_url"]
        for _key, value in reactions:
            # A reaction is created after its post, so its post was replayed first.
            self.reactions_per_url[self.post_url[value["post_id"]]] += 1
        self.n_posts += len(postings)
        self.n_reactions += len(reactions)
        for url in new_urls:
            self.urls.append(url)
            article = self.inputs.articles[url].article
            bisect.insort(self.by_outlet[article.outlet_domain], (article.published_at, url))

    # ------------------------------------------------------------- answers

    def row_counts(self) -> dict[str, int]:
        return {
            "articles": len(self.urls),
            "posts": self.n_posts,
            "reactions": self.n_reactions,
        }

    def newest(self, outlet: str, limit: int) -> list[str]:
        return [url for _ts, url in reversed(self.by_outlet.get(outlet, [])[-limit:])]

    def daily_counts(self) -> dict[date, int]:
        out: Counter = Counter()
        for url in self.urls:
            out[self.inputs.articles[url].article.published_at.date()] += 1
        return dict(out)

    def distributions(self, tagged: set[str]) -> dict[str, tuple[list[float], list[float]]]:
        """Low/high-quality samples of reactions and scientific-link ratio over
        the ``tagged`` article URLs, from the raw events and the generator."""
        reactions = self.reactions_per_url
        out = {"social_engagement": ([], []), "evidence_seeking": ([], [])}
        for url in self.urls:
            if url not in tagged:
                continue
            generated = self.inputs.articles[url]
            rating = self.inputs.ratings[generated.article.outlet_domain]
            side = 0 if rating.is_low_quality else 1 if rating.is_high_quality else None
            if side is None:
                continue
            out["social_engagement"][side].append(float(reactions.get(url, 0)))
            out["evidence_seeking"][side].append(generated.scientific_ratio)
        return out

    def class_totals(self, tagged: set[str]) -> dict[str, dict[str, float]]:
        reactions = self.reactions_per_url
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"outlets": 0.0, "articles": 0.0, "topic_articles": 0.0, "posts": 0.0, "reactions": 0.0}
        )
        outlets: dict[str, set[str]] = defaultdict(set)
        for url in self.urls:
            domain = self.inputs.articles[url].article.outlet_domain
            cls = self.inputs.ratings[domain].value
            row = out[cls]
            outlets[cls].add(domain)
            row["articles"] += 1
            row["topic_articles"] += url in tagged
            row["posts"] += self.posts_per_url[url]
            row["reactions"] += reactions.get(url, 0)
        for cls, domains in outlets.items():
            out[cls]["outlets"] = float(len(domains))
        return dict(out)
