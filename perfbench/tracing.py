"""In-memory spans around the calls into each platform layer (traced runs only).

The benchmark's own code wraps the public entry points of each layer; the
platform itself is not changed.  A span is ``[name, start, end, parent, tag]``
with times in ``perf_counter`` seconds; ``tag`` is the id of the batch or
request the span belongs to (inherited from the root span).  A layer's self
time is its spans' time minus the time of their direct children, so the self
times of all layers plus the time outside any span add up to the wall time of
the timed phase.  Calls made by the benchmark's own checks open no layer
spans: their time is the ``bench.check`` span's self time.
"""

from __future__ import annotations

import gc
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import repro.core.indicators.context as context_module
from repro.core.analytics import WarehouseAnalytics
from repro.storage.rdbms.query import Query

CHECK = "bench.check"

#: Per-layer metrics: span name -> metric name of its self time.
LAYER_TIMES = {
    "streaming.process": "streaming.process_ms",
    "web.scrape": "web.scrape_ms",
    "rdbms.upsert": "rdbms.upsert_ms",
    "rdbms.query": "rdbms.query_ms",
    "segmentation.assign": "segmentation.assign_ms",
    "cdc.process": "cdc.process_ms",
    "cdc.publish": "cdc.publish_ms",
    "cdc.apply": "cdc.apply_ms",
    "dfs.write": "dfs.write_ms",
    "warehouse.compact": "warehouse.compact_ms",
    "rollups.refresh": "rollups.refresh_ms",
    "fts.index": "fts.index_ms",
    "fts.table_add": "fts.table_add_ms",
    "fts.search": "fts.search_ms",
    "insights.topic": "insights.topic_ms",
    "insights.reactions": "insights.reactions_ms",
    "insights.sci_ratio": "insights.sci_ratio_ms",
    "assess.evaluate": "assess.evaluate_ms",
    "assess.fetch": "assess.fetch_ms",
    "analytics.profiles": "analytics.profiles_ms",
    "gateway.handle": "gateway.handle_ms",
    "serving.front": "serving.front_ms",
    "runtime.gc": "runtime.gc_pause_ms",
}
#: Per-layer counts: metric name -> span whose calls it counts (or None for
#: counts the wrappers accumulate).
LAYER_COUNTS = {
    "web.scrapes": "web.scrape",
    "rdbms.upserts": "rdbms.upsert",
    "rdbms.wal_records": None,
    "rdbms.full_scans": None,
    "segmentation.rows_rewritten": None,
    "cdc.published": None,
    "cdc.applied_rows": None,
    "warehouse.manifest_bytes": None,
    "warehouse.block_bytes": None,
    "fts.write_bytes": None,
    "warehouse.blocks_read": None,
    "warehouse.bytes_read": None,
    "insights.html_parses": None,
    "gateway.cache_hits": None,
    "gateway.cache_misses": None,
    "serving.coalesced": None,
    "runtime.gc_gen2": None,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self._undo: list = []
        self._gc_span: int | None = None

    # ----------------------------------------------------------------- spans

    def begin(self, name: str, tag: str | None = None) -> int:
        record = [name, 0.0, 0.0, -1, tag]
        if self.stack:
            parent = self.stack[-1]
            record[3] = parent
            record[4] = self.spans[parent][4]
        index = len(self.spans)
        self.spans.append(record)
        self.stack.append(index)
        self.active[name] += 1
        record[1] = perf_counter()
        return index

    def end(self, index: int) -> None:
        record = self.spans[index]
        record[2] = perf_counter()
        self.stack.pop()
        self.active[record[0]] -= 1

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        index = self.begin(name, tag)
        try:
            yield
        finally:
            self.end(index)

    # ---------------------------------------------------------- instrumenting

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a spanned call.  ``before(args)`` returns
        a state handed to ``after(result, args, state)``, which may add counts.
        Undone by :meth:`restore`."""
        original = getattr(owner, attr)
        own = isinstance(owner, type) or attr in vars(owner)

        def traced(*args, **kwargs):
            if self.active[CHECK]:
                return original(*args, **kwargs)
            state = before(args) if before is not None else None
            index = self.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(result, args, state)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original if own else None))

    def count_calls(self, owner, attr: str, counter: str, inside: str) -> None:
        """Count calls of ``owner.attr`` made while an ``inside`` span is open."""
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            if self.active[inside] and not self.active[CHECK]:
                self.counts[counter] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._undo.append((owner, attr, original))

    def _gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_span = self.begin("runtime.gc")
            if info["generation"] == 2:
                self.counts["runtime.gc_gen2"] += 1
        elif self._gc_span is not None:
            self.end(self._gc_span)
            self._gc_span = None

    def restore(self) -> None:
        if self._gc in gc.callbacks:
            gc.callbacks.remove(self._gc)
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # --------------------------------------------------------------- results

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _tag in self.spans:
            duration = end - start
            out[name] += duration
            if parent >= 0:
                out[self.spans[parent][0]] -= duration
        return dict(out)

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "tag"], "spans": self.spans}, fh)


def instrument(tracer: Tracer, platform, front) -> None:
    """Wrap the calls into each layer of ``platform`` and its front door."""
    counts = tracer.counts
    wrap = tracer.wrap

    def add(counter, value_of):
        def after(result, args, state):
            counts[counter] += value_of(result, args, state)
        return after

    def wal_delta(counter):
        return {
            "before": lambda args: platform.database.wal_lsn(),
            "after": add(counter, lambda r, a, lsn: platform.database.wal_lsn() - lsn),
        }

    def write_bytes(result, args, state):
        """Bytes written to the DFS, by owner: the warehouse's manifests and
        blocks under ``/warehouse/``, the search index's files under ``/fts/``."""
        path, data = args[0], args[1]
        if path.startswith("/fts/"):
            counts["fts.write_bytes"] += len(data)
        elif path.startswith("/warehouse/"):
            kind = "manifest" if path.endswith("/_manifest.json") else "block"
            counts[f"warehouse.{kind}_bytes"] += len(data)

    def full_scans(args):
        return args[0]._table.planner_metrics.plans_by_path.get("full-scan", 0)

    wrap(platform, "process_stream", "streaming.process")
    wrap(platform.scraper, "scrape", "web.scrape")
    wrap(platform.database, "upsert", "rdbms.upsert")
    wrap(Query, "execute", "rdbms.query", before=full_scans, after=add(
        "rdbms.full_scans", lambda r, a, n: full_scans(a) - n))
    wrap(platform, "assign_topics", "segmentation.assign", **wal_delta("segmentation.rows_rewritten"))
    wrap(platform, "process_cdc", "cdc.process")
    wrap(platform.cdc_publisher, "publish", "cdc.publish", after=add("cdc.published", lambda r, a, s: r))
    wrap(platform.cdc_applier, "apply", "cdc.apply", after=add("cdc.applied_rows", lambda r, a, s: r.rows))
    wrap(platform.dfs, "write_file", "dfs.write", after=write_bytes)
    wrap(platform, "run_warehouse_compaction", "warehouse.compact")
    wrap(platform.migration, "refresh_standing_rollups", "rollups.refresh")
    wrap(platform.fts_indexer, "run", "fts.index")
    wrap(platform.database.table("articles").fts_index, "add_row", "fts.table_add")
    wrap(platform.fts_index, "search", "fts.search")
    wrap(platform, "topic_insights", "insights.topic")
    wrap(platform, "reactions_per_article", "insights.reactions")
    wrap(platform, "scientific_ratio_per_article", "insights.sci_ratio")
    tracer.count_calls(context_module, "parse_html", "insights.html_parses", "insights.sci_ratio")
    wrap(platform.evaluation, "evaluate_article", "assess.evaluate")
    wrap(platform, "posts_for_article", "assess.fetch")
    wrap(platform, "reactions_for_posts", "assess.fetch")
    wrap(WarehouseAnalytics, "outlet_activity_profiles", "analytics.profiles")
    for name in front.shard_names():
        wrap(front.shard(name), "handle", "gateway.handle")
    wrap(front, "handle", "serving.front")
    gc.callbacks.append(tracer._gc)


def snapshot(platform, front) -> Counter:
    """Counters the platform keeps itself, read at the start and end of the phase."""
    shards = [front.shard(name) for name in front.shard_names()]
    coalescer = front.coalescer.stats()["coalesced"] if front.coalescer is not None else 0
    return Counter({
        "rdbms.wal_records": platform.database.wal_lsn(),
        "warehouse.blocks_read": platform.dfs.read_count,
        "warehouse.bytes_read": platform.dfs.bytes_read,
        "gateway.cache_hits": sum(s.cache.hits for s in shards),
        "gateway.cache_misses": sum(s.cache.misses for s in shards),
        "serving.coalesced": coalescer,
    })


def layer_metrics(tracer: Tracer, start: Counter, end: Counter, wall_s: float, ops: int):
    """Per-layer metrics per attempted operation, and the split of the phase's
    wall time into self times (ms and share)."""
    selfs = tracer.self_times()
    calls = Counter(record[0] for record in tracer.spans)
    counts = Counter(tracer.counts)
    for key in start.keys() | end.keys():
        counts[key] += end[key] - start[key]
    metrics = {}
    for span, metric in LAYER_TIMES.items():
        metrics[metric] = (selfs.get(span, 0.0) * 1e3 / ops, "ms/op")
    for metric, span in LAYER_COUNTS.items():
        value = calls[span] if span is not None else counts[metric]
        metrics[metric] = (value / ops, "count/op")
    own = sum(v for k, v in selfs.items() if k.startswith(("op.", "bench.")))
    metrics["bench.own_ms"] = (own * 1e3 / ops, "ms/op")
    covered = sum(selfs.values())
    split = {name: round(selfs[name] * 1e3, 1) for name in sorted(selfs, key=selfs.get, reverse=True)}
    split["(outside any span)"] = round((wall_s - covered) * 1e3, 1)
    return metrics, {"wall_ms": round(wall_s * 1e3, 1), "covered": round(covered / wall_s, 4), "self_ms": split}
