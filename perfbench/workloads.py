"""The two workloads: ``ingest`` (the newsroom feed) and ``dashboard`` (the reader's day).

Both drive one platform through its public entry points from a single
client thread in a closed loop: each call is sent after the previous one
returned.  Every output is checked against ``checks`` outside the timed
calls; a wrong output or an error response counts as a failed operation.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
from collections import defaultdict
from contextlib import nullcontext
from datetime import timedelta
from time import perf_counter

from repro import PlatformConfig, SciLensPlatform
from repro.api.serving import build_serving_tier

import checks
from scenario import TOPIC, Batch, Inputs, Truth

#: Requests are spread over this many tenants, so that no tenant comes near
#: the per-tenant admission rate even at ten times today's request rate; a
#: 429 is then a real failure.
TENANTS = 64
#: Dashboard: one shuffled cycle of front-door requests (route -> count),
#: with one write batch after each half and one analytics read after it.
#: Fixed counts keep each route's share the same in every run; two batches
#: per cycle give the write metrics about a hundred samples, enough that the
#: few gen-2 collections landing in a batch average out.  The counts are
#: chosen, not measured: README "Traffic mix" says what each reproduces.
DASHBOARD_CYCLE = {
    "insights.topic": 2,
    "indicators.evaluate": 4,
    "articles.search": 3,
    "articles.get": 3,
    "articles.by_url": 1,
    "articles.list": 3,
}
DASHBOARD_CYCLE_BATCHES = 2
#: Ingest: the daily jobs run after every this many batches (one round,
#: about one simulated day); an insights refresh and an analytics read
#: follow every ``INGEST_REFRESH`` new articles, so their share of the
#: requests is the same whatever the seed's article volume.
ROUND_BATCHES = 24
INGEST_REFRESH = 8
#: Seconds of ``--seconds`` one ingest round and one dashboard cycle count
#: for: a run does a fixed amount of work, ``--seconds`` divided by this
#: (rounded up), so that a faster program does the same work in less time
#: instead of more work on a larger store.  At 30 s that is about a hundred
#: write batches per run, which today take 35-40 s on a 2-core host.
ROUND_S = {"ingest": 7.0, "dashboard": 0.6}
LIST_LIMIT = 10
SEARCH_LIMIT = 10


def build_platform(inputs: Inputs):
    """Set-up: platform build plus preload, segmentation, bootstrap
    migration and compaction; returns the platform and its front door."""
    scenario = inputs.scenario
    platform = SciLensPlatform(
        config=PlatformConfig(),
        site_store=scenario.site_store,
        account_registry=scenario.outlets.account_registry(),
    )
    platform.register_outlets(scenario.outlets.outlets())
    platform.ingest_posting_events(inputs.preload_postings)
    platform.ingest_reaction_events(inputs.preload_reactions)
    platform.process_stream()
    platform.assign_topics()
    platform.run_daily_migration()
    platform.run_warehouse_compaction()
    return platform, build_serving_tier(platform)


class Run:
    """One timed phase over one platform: issues operations, times them,
    checks them, and keeps the samples."""

    def __init__(self, inputs: Inputs, platform, front, seed: int) -> None:
        self.inputs = inputs
        self.platform = platform
        self.front = front
        #: Set to a ``tracing.Tracer`` for the timed phase of a traced run.
        self.tracer = None
        self.rng = random.Random(f"perfbench-{seed}")
        self.truth = Truth(inputs)
        self.oracle = checks.Bm25Oracle()
        self.ids: dict[str, str] = {}
        self.tagged: set[str] = set()
        self.tenants = itertools.cycle([f"tenant-{i:02d}" for i in range(TENANTS)])
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Failures of the end-of-run checks, which belong to no operation.
        self.end_errors: list[str] = []
        self.tag_mismatches: int | None = None
        self.serve_s = 0.0
        self.requests = 0
        self.events = 0
        self.event_s = 0.0
        self.windows = itertools.count(1)
        #: Captured outputs and expectations, one per check, for the self-test.
        self.cases: dict[str, tuple] = {}
        #: Expected list payloads by request key, for answers the gateway's
        #: TTL response cache serves (it is not invalidated by writes).
        self.list_seen: dict[tuple, tuple] = {}
        self.stale_list_hits = 0
        self.external_as_internal = 0
        self.truth.replay(inputs.preload_postings, inputs.preload_reactions, inputs.preload_urls)
        self._sync_store()
        self._refresh_tags()

    # ------------------------------------------------------------ bookkeeping

    def _fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(reason)

    def _verify(self, name: str, args: tuple, op: bool = True) -> bool:
        """Run check ``name``; a wrong output fails the operation (``op``)
        or, for an end-of-run check, the run."""
        with self._span("bench.check"):
            reason = getattr(checks, f"check_{name}")(*args)
        if reason is not None:
            if op:
                self._fail(reason)
            else:
                self.end_errors.append(reason)
            return False
        self.cases[name] = args
        return True

    def _span(self, name: str, tag: str | None = None):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name, tag)

    def _sync_store(self) -> None:
        """Learn ids and indexed text of newly stored articles (untimed)."""
        for article in self.platform.articles():
            if article.url not in self.ids:
                self.ids[article.url] = article.article_id
                self.oracle.add(article.url, article.title, article.text)

    def _refresh_tags(self) -> None:
        with self._span("bench.check"):
            self.tagged = {a.url for a in self.platform.articles() if TOPIC in a.topics}
            labelled = {u for u in self.truth.urls if self.inputs.articles[u].topic_key == TOPIC}
        if self._verify("tags", (self.tagged, labelled)):
            self.tag_mismatches = len(self.tagged ^ labelled)

    # --------------------------------------------------------------- requests

    def request(self, route: str, params: dict, metric: str | None = None):
        """One front-door request; returns the payload, or None on an error."""
        self.attempted += 1
        tag = f"req-{self.attempted}"
        with self._span("op.request", tag):
            start = perf_counter()
            response = self.front.handle(route, params, tenant=next(self.tenants))
            elapsed = perf_counter() - start
        if not response.ok:
            self._fail(f"{route} -> {response.status} {response.error}")
            return None
        self.serve_s += elapsed
        self.requests += 1
        self.samples[route].append(elapsed * 1e3)
        if metric is not None:
            self.samples[metric].append(elapsed * 1e3)
        return response.payload

    def read_article(self, url: str, by: str) -> None:
        generated = self.inputs.articles[url]
        if by == "articles.get":
            payload = self.request(by, {"article_id": self.ids[url]}, "read")
        else:
            payload = self.request(by, {"url": url}, "read")
        if payload is not None:
            self._verify("article", (payload, generated))

    def list_outlet(self, outlet: str) -> None:
        key = (outlet, LIST_LIMIT)
        hits_before = self._cache_hits()
        payload = self.request("articles.list", {"outlet_domain": outlet, "limit": LIST_LIMIT}, "read")
        if payload is None:
            return
        want = (self.truth.newest(outlet, LIST_LIMIT), len(self.truth.by_outlet.get(outlet, [])))
        if self._cache_hits() > hits_before and key in self.list_seen:
            if self.list_seen[key] != want:
                self.stale_list_hits += 1
            want = self.list_seen[key]
        else:
            self.list_seen[key] = want
        self._verify("list", (payload, *want))

    def _cache_hits(self) -> float:
        return sum(self.front.shard(n).cache.hits for n in self.front.shard_names())

    def search(self, url: str, n_terms: int) -> None:
        """Search the ``n_terms`` longest words of the article's title (in
        title order): the kind of term a reader types, and one whose posting
        list is short, so samples do not swing with the luck of a stop word."""
        words = checks.tokens(self.inputs.articles[url].article.title)
        longest = sorted(range(len(words)), key=lambda i: -len(words[i]))[:n_terms]
        query = " ".join(words[i] for i in sorted(longest))
        payload = self.request("articles.search", {"query": query, "limit": SEARCH_LIMIT}, "search")
        if payload is not None:
            with self._span("bench.check"):
                scores = self.oracle.scores(query)
            self._verify("search", (payload, scores, SEARCH_LIMIT))

    def evaluate(self, url: str) -> None:
        payload = self.request("indicators.evaluate", {"article_id": self.ids[url]}, "assess")
        if payload is not None:
            truth = self.truth
            generated = self.inputs.articles[url]
            self._verify("assessment", (
                payload, generated, truth.posts_per_url[url], truth.reactions_per_url[url],
            ))
            self.external_as_internal += checks.external_as_internal(payload, generated)

    def insights(self) -> None:
        """``insights.topic`` on a window never requested before, so the
        gateway computes it instead of answering from its cache."""
        first = self.inputs.scenario.window_start
        start = first + timedelta(days=self.rng.randrange(31))
        end = start + timedelta(days=self.rng.randrange(14, 29), minutes=next(self.windows))
        params = {"topic": TOPIC, "window_start": start.isoformat(), "window_end": end.isoformat()}
        payload = self.request("insights.topic", params, "insights")
        if payload is not None:
            with self._span("bench.check"):
                samples = self.truth.distributions(self.tagged)
            self._verify("insights", (payload, samples, len(self.truth.urls), len(self.tagged), (start, end)))

    def analytics(self) -> None:
        """The warehouse §4.2 panel: per-rating-class summary and daily counts."""
        self.attempted += 1
        with self._span("op.analytics", f"analytics-{self.attempted}"):
            start = perf_counter()
            analytics = self.platform.warehouse_analytics()
            summary = analytics.rating_class_summary(self.inputs.ratings, TOPIC)
            daily = analytics.daily_article_counts()
            self.samples["analytics"].append((perf_counter() - start) * 1e3)
        with self._span("bench.check"):
            want_classes = self.truth.class_totals(self.tagged)
            want_daily = self.truth.daily_counts()
        if self._verify("class_summary", (summary, want_classes)):
            self._verify("daily_counts", (daily, want_daily))

    # ------------------------------------------------------------------ writes

    def replay(self, batch: Batch) -> None:
        """One write batch: produce -> process_stream -> process_cdc; the
        batch is visible when process_cdc returns."""
        self.attempted += 1
        platform = self.platform
        with self._span("op.batch", f"batch-{self.attempted}"):
            start = perf_counter()
            platform.ingest_posting_events(batch.postings)
            platform.ingest_reaction_events(batch.reactions)
            platform.process_stream()
            platform.process_cdc()
            elapsed = perf_counter() - start
        self.samples["visible"].append(elapsed * 1e3)
        self.events += batch.events
        self.event_s += elapsed
        with self._span("bench.check"):
            self.truth.replay(batch.postings, batch.reactions, batch.new_urls)
            self._sync_store()
        self.check_rows()

    def daily_jobs(self, timed: bool = True) -> None:
        """The end-of-day jobs: segmentation, a CDC drain, compaction; their
        wall time counts towards ``events_per_s`` when ``timed``."""
        self.attempted += 1
        platform = self.platform
        with self._span("op.daily", f"daily-{self.attempted}"):
            start = perf_counter()
            platform.assign_topics()
            platform.process_cdc()
            platform.run_warehouse_compaction()
            if timed:
                self.event_s += perf_counter() - start
        self._refresh_tags()
        self.check_rows()

    def check_rows(self) -> None:
        with self._span("bench.check"):
            names = ("articles", "posts", "reactions")
            rdbms = {n: self.platform.database.table(n).row_count() for n in names}
            warehouse = {n: self.platform.warehouse.table(n).row_count() for n in names}
        self._verify("row_counts", (rdbms, warehouse, self.truth.row_counts()))

    def check_per_article(self) -> None:
        """The per-article reaction counts and link ratios behind the insight samples."""
        with self._span("bench.check"):
            reactions = self.platform.reactions_per_article(TOPIC)
            ratios = self.platform.scientific_ratio_per_article(TOPIC)
        self._verify("per_article", (reactions, ratios, self.ids, self.truth, self.tagged), op=False)

    # ----------------------------------------------------------------- results

    def metrics(self) -> dict[str, float]:
        def p50(name: str) -> float:
            return statistics.median(self.samples[name]) if self.samples[name] else float("nan")

        return {
            "events_per_s": self.events / self.event_s if self.event_s else float("nan"),
            "visible_p50_ms": p50("visible"),
            "requests_per_s": self.requests / self.serve_s if self.serve_s else float("nan"),
            "read_p50_ms": p50("read"),
            "search_p50_ms": p50("search"),
            "assess_p50_ms": p50("assess"),
            "insights_p50_ms": p50("insights"),
            "analytics_p50_ms": p50("analytics"),
        }

    def route_shares(self) -> dict[str, float]:
        """Each route's share of the time spent serving requests."""
        total = self.serve_s or 1.0
        return {
            route: round(sum(values) / 1e3 / total, 4)
            for route, values in sorted(self.samples.items())
            if "." in route
        }


# ---------------------------------------------------------------- workloads

def rounds(workload: str, seconds: float) -> int:
    """Ingest rounds or dashboard cycles in a run of ``seconds``."""
    return max(1, math.ceil(seconds / ROUND_S[workload]))


def feed_batches(workload: str, seconds: float) -> int:
    """Write batches a run of ``seconds`` replays: the feed it needs."""
    per_round = ROUND_BATCHES if workload == "ingest" else DASHBOARD_CYCLE_BATCHES
    return rounds(workload, seconds) * per_round


def run_ingest(run: Run, seconds: float) -> None:
    """Whole rounds of write batches, each new article probed right after
    its batch lands, and the daily jobs after each round."""
    batches = run.inputs.batches
    new_articles = 0
    for first in range(0, rounds("ingest", seconds) * ROUND_BATCHES, ROUND_BATCHES):
        for batch in batches[first:first + ROUND_BATCHES]:
            run.replay(batch)
            for url in batch.new_urls:
                run.read_article(url, "articles.by_url")
                run.read_article(url, "articles.get")
                run.list_outlet(run.inputs.articles[url].article.outlet_domain)
                run.evaluate(url)
                run.search(url, 1)
                new_articles += 1
                if new_articles % INGEST_REFRESH == 0:
                    run.insights()
                    run.analytics()
        run.daily_jobs()


def run_dashboard(run: Run, seconds: float) -> None:
    """Cycles of the seeded request mix; each half cycle is followed by one
    write batch, and each cycle by one analytics read.  A day boundary
    passes at the end: the daily jobs run once after the last cycle, their
    time kept out of ``events_per_s`` so that one multi-second sample does
    not weigh on a rate made of a hundred short batches."""
    batches = iter(run.inputs.batches)
    searches = itertools.count()
    rng = run.rng
    outlets = sorted(run.inputs.ratings)
    cycle = [route for route, n in DASHBOARD_CYCLE.items() for _ in range(n)]
    every = len(cycle) // DASHBOARD_CYCLE_BATCHES
    for _ in range(rounds("dashboard", seconds)):
        rng.shuffle(cycle)
        for index, route in enumerate(cycle, 1):
            url = rng.choice(run.truth.urls)
            if route == "insights.topic":
                run.insights()
            elif route == "indicators.evaluate":
                run.evaluate(url)
            elif route == "articles.search":
                run.search(url, 1 if next(searches) % 3 else 2)
            elif route == "articles.list":
                run.list_outlet(rng.choice(outlets))
            else:
                run.read_article(url, route)
            if index % every == 0:
                run.replay(next(batches))
        run.analytics()
    run.daily_jobs(timed=False)


WORKLOADS = {"ingest": run_ingest, "dashboard": run_dashboard}
