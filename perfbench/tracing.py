"""Per-layer spans for the traced run, recorded from outside the program.

:meth:`Tracer.install` wraps the public functions at each layer boundary
(auth, quota, decode, the fleet engine, the result cache, the engine
and its refiner, the circuit solver and parser, the store, the stream
engine) so every call records a span ``(name, start, end, pid, thread,
request id)``.  Nothing under ``src/`` changes: the wrappers are
installed on the imported modules and classes, and :meth:`uninstall`
puts the originals back.

Spans are kept in memory and written out once, at the end of the run.
Worker processes of the fleet pool inherit the wrappers when they fork;
they append their spans to one file per process, which the parent reads
back after each batch.

:func:`attribute` turns the flat span list into self times.  A span's
parent is the innermost span of the same thread that contains it; a
server-side span with no such parent belongs to the client request that
carries its request id; a worker-process span belongs to the root span
(the batch) whose interval contains it.  Self time is a span's duration
minus the union of its children's intervals.  The engine's own stage
spans (``?trace=1`` / ``tracing=True``) refine ``core.diagnose`` into
its seven stages.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import json
import os
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Request id of the work running in this thread or asyncio task.
REQUEST_ID: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "perfbench_request_id", default=None
)

#: The engine's pipeline stages, in order (children of its "diagnose" span).
STAGES = ("nominal", "seed", "propagate", "classify", "nogoods", "candidates", "score")

#: Store methods timed per call; each becomes ``store.<name>_ms`` and ``_count``.
STORE_CALLS = {
    "cache_get": "store.cache_get",
    "cache_put": "store.cache_put",
    "quota_debit": "store.quota_debit",
    "record_history": "store.history",
    "merge_experience": "store.experience_merge",
    "checkpoint": "store.checkpoint",
}

Span = Tuple[str, float, float, int, int, Optional[str]]  # name, start, end, pid, tid, rid


class Tracer:
    """Records spans from wrappers around the program's public functions."""

    def __init__(self, spill_dir: Path) -> None:
        self.spans: List[Span] = []
        #: request id (or job unit) -> the engine's own span tree.
        self.traces: Dict[str, Dict] = {}
        #: (reused prefix, recomputed, total) per stream tick.
        self.ticks: List[Tuple[int, int, int]] = []
        #: sqlite write transactions seen on a watched store connection.
        self.write_transactions = 0
        self._pid = os.getpid()
        self._spill_dir = spill_dir
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def record(self, name: str, start: float, end: float, rid: Optional[str] = None) -> None:
        if rid is None:
            rid = REQUEST_ID.get()
        self.spans.append((name, start, end, os.getpid(), threading.get_ident(), rid))

    def _timed(self, name: str) -> Callable:
        def make(original: Callable) -> Callable:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    self.record(name, start, perf_counter())

            return wrapper

        return make

    def _patch(self, owner: object, attr: str, make: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        from repro.circuit import simulate
        from repro.core import diagnosis, knowledge, learning
        from repro.server import app
        from repro.service import cache, jobs, pool
        from repro.store import db, quota, tenants
        from repro.stream import detector, incremental, snapshot

        timed = self._timed
        self._patch(app, "read_request", self._adopt_request_id)
        self._patch(tenants.TenantRegistry, "resolve", timed("server.auth"))
        self._patch(quota.TokenBucketQuota, "check", timed("server.quota"))
        self._patch(app, "job_from_spec", timed("service.decode"))
        self._patch(
            jobs.DiagnosisJob,
            "content_hash",
            lambda prop: property(timed("service.decode")(prop.fget)),
        )
        self._patch(jobs, "parse_netlist", timed("circuit.parse"))
        self._patch(pool.FleetEngine, "run_job", self._run_job)
        self._patch(pool, "execute_job", self._execute_job)
        self._patch(cache.ResultCache, "get", timed("service.cache_get"))
        self._patch(learning.ExperienceBase, "merge", timed("service.experience_merge"))
        self._patch(diagnosis.Flames, "diagnose", timed("core.diagnose"))
        self._patch(knowledge.KnowledgeBase, "refine", timed("core.refine"))
        self._patch(simulate.DCSolver, "solve", timed("circuit.solve"))
        for method, name in STORE_CALLS.items():
            self._patch(db.DiagnosisStore, method, timed(name))
        self._patch(incremental.IncrementalDiagnosisEngine, "diagnose", self._tick)
        self._patch(snapshot.SnapshotBuilder, "ingest", timed("stream.ingest"))
        self._patch(detector.DriftDetector, "observe", timed("stream.ingest"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def watch_writes(self, store) -> Callable[[], None]:
        """Count write transactions on ``store``'s connection; returns the undo.

        The store exposes no write counter, so this reads its connection
        attribute; every write path opens with ``BEGIN``.
        """
        conn = store._conn

        def on_statement(statement: str) -> None:
            if statement.lstrip().upper().startswith("BEGIN"):
                self.write_transactions += 1

        conn.set_trace_callback(on_statement)
        return lambda: conn.set_trace_callback(None)

    # ------------------------------------------------------------------
    # Wrappers that also carry request ids across threads and processes
    # ------------------------------------------------------------------
    def _adopt_request_id(self, original: Callable) -> Callable:
        """The server's request parser: tag the connection task with the id."""

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            request = await original(*args, **kwargs)
            if request is not None:
                REQUEST_ID.set(request.headers.get("x-request-id"))
            return request

        return wrapper

    def _run_job(self, original: Callable) -> Callable:
        """``FleetEngine.run_job``: its executor thread takes the request's id."""

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            ctx = kwargs.get("ctx", args[2] if len(args) > 2 else None)
            token = REQUEST_ID.set(ctx.trace_id if ctx is not None else REQUEST_ID.get())
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.record("service.run_job", start, perf_counter())
                REQUEST_ID.reset(token)

        return wrapper

    def _execute_job(self, original: Callable) -> Callable:
        """The job body; in a pool worker it spills its spans when done."""

        @functools.wraps(original)
        def wrapper(job, *args, **kwargs):
            token = REQUEST_ID.set(REQUEST_ID.get() or job.unit)
            start = perf_counter()
            try:
                return original(job, *args, **kwargs)
            finally:
                self.record("service.execute", start, perf_counter())
                REQUEST_ID.reset(token)
                if os.getpid() != self._pid:
                    self._spill()

        return wrapper

    def _tick(self, original: Callable) -> Callable:
        """``IncrementalDiagnosisEngine.diagnose``: also keep its tick stats."""

        @functools.wraps(original)
        def wrapper(engine, *args, **kwargs):
            start = perf_counter()
            try:
                return original(engine, *args, **kwargs)
            finally:
                self.record("stream.tick", start, perf_counter())
                stats = engine.last_stats
                if stats is not None:
                    self.ticks.append((stats.reused_prefix, stats.recomputed, stats.total))

        return wrapper

    # ------------------------------------------------------------------
    # Worker-process spans
    # ------------------------------------------------------------------
    def _spill(self) -> None:
        pid = os.getpid()
        mine = [s for s in self.spans if s[3] == pid]
        self.spans.clear()
        with open(self._spill_dir / f"spans-{pid}.jsonl", "a") as handle:
            for span in mine:
                handle.write(json.dumps(span) + "\n")

    def collect_spills(self) -> None:
        """Fold the spans worker processes wrote into this tracer."""
        for path in sorted(self._spill_dir.glob("spans-*.jsonl")):
            with open(path) as handle:
                for line in handle:
                    name, start, end, pid, tid, rid = json.loads(line)
                    self.spans.append((name, start, end, pid, tid, rid))
            path.unlink()

    def dump(self, path: Path, parents: List[Optional[int]]) -> None:
        """Write every span, with its parent's index, as JSON lines."""
        with open(path, "w") as handle:
            for index, (span, parent) in enumerate(zip(self.spans, parents)):
                name, start, end, pid, tid, rid = span
                handle.write(
                    json.dumps(
                        {
                            "i": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request_id": rid,
                            "pid": pid,
                            "thread": tid,
                        }
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------
@dataclass
class Attribution:
    """Self time per span name, over the spans under the root spans."""

    self_s: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    durations: Dict[str, List[float]] = field(default_factory=lambda: defaultdict(list))
    parents: List[Optional[int]] = field(default_factory=list)
    root_self_s: float = 0.0
    root_total_s: float = 0.0


def _union(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    covered, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def _stage_seconds(trace: Dict) -> Optional[Dict[str, float]]:
    for span in trace.get("spans", []):
        if span.get("name") == "diagnose":
            return {c["name"]: float(c["seconds"]) for c in span.get("children", [])}
    return None


def attribute(tracer: Tracer, roots: Iterable[str]) -> Attribution:
    """Parent every span, then total self time per name under the roots."""
    spans = tracer.spans
    roots = set(roots)
    parents: List[Optional[int]] = [None] * len(spans)

    by_thread: Dict[Tuple[int, int], List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        by_thread[(span[3], span[4])].append(index)
    for indices in by_thread.values():
        indices.sort(key=lambda i: (spans[i][1], -spans[i][2]))
        stack: List[int] = []
        for index in indices:
            while stack and spans[stack[-1]][2] < spans[index][2]:
                stack.pop()
            if stack:
                parents[index] = stack[-1]
            stack.append(index)

    root_ids = sorted((i for i, s in enumerate(spans) if s[0] in roots), key=lambda i: spans[i][1])
    root_starts = [spans[i][1] for i in root_ids]
    root_by_rid = {spans[i][5]: i for i in root_ids if spans[i][5] is not None}
    for index, span in enumerate(spans):
        if parents[index] is not None or span[0] in roots:
            continue
        if span[5] in root_by_rid:
            parents[index] = root_by_rid[span[5]]
            continue
        # A pool worker's span belongs to the batch whose interval holds it.
        at = bisect.bisect_right(root_starts, span[1]) - 1
        if at >= 0:
            root = root_ids[at]
            if spans[root][3] != span[3] and span[2] <= spans[root][2]:
                parents[index] = root

    def under_root(index: int) -> bool:
        while index is not None:
            if spans[index][0] in roots:
                return True
            index = parents[index]
        return False

    children: Dict[int, List[int]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent is not None:
            children[parent].append(index)

    result = Attribution(parents=parents)
    for index, (name, start, end, _pid, _tid, rid) in enumerate(spans):
        result.durations[name].append(end - start)
        if not under_root(index):
            continue
        kids = children.get(index, [])
        own = (end - start) - _union(((spans[k][1], spans[k][2]) for k in kids), start, end)
        if name in roots:
            result.root_self_s += own
            result.root_total_s += end - start
        stages = _stage_seconds(tracer.traces.get(rid, {})) if name == "core.diagnose" else None
        if stages:
            # The pipeline solves circuits only in its nominal stage, so the
            # solver spans under "diagnose" are carved out of that stage.
            solved = sum(spans[k][2] - spans[k][1] for k in kids if spans[k][0] == "circuit.solve")
            own = (end - start) - sum(stages.values())
            for stage in STAGES:
                seconds = stages.get(stage, 0.0)
                if stage == "nominal":
                    seconds -= solved
                result.self_s[f"core.{stage}"] += max(seconds, 0.0)
        result.self_s[name] += max(own, 0.0)
    return result
