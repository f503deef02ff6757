"""warm-tenant: an open loop of cache hits for one API-keyed tenant.

A store-armed in-process server serves a skewed (Zipf) hot set of
primed content that is three times larger than its memory LRU, so a
steady share of hits is read back from sqlite.  Every request
authenticates, debits a quota that never runs dry, looks the result up,
and appends a history row; a few carry ``confirm`` and also merge
experience.  ``/metrics`` is scraped on a fixed cadence and the store's
maintenance loop checkpoints several times a run.  No request reaches
the engine: every one is a hit.

Requests are due on a fixed schedule (an open loop) and are timed from
when they were due, so a stall also delays the requests behind it.
"""

from __future__ import annotations

import itertools
import os
import random
import threading
import time
from time import perf_counter

from common import Measurement, ServerThread, client, interleaved_corpus, request_error, scenario_spec

ROOTS = ("request",)
#: Requests per second: 30% of the hit capacity measured on 2 CPUs (520/s),
#: so that the host's speed swings leave the loop well short of saturation.
RATE = 150.0
#: A request answered later than this after it was due misses the SLO.
LATENCY_LIMIT_MS = 25.0
#: Memory LRU entries in front of the store, and the primed hot set.
CACHE_SIZE = 8
HOT_SET = 24
#: Zipf exponent of the request mix over the hot set.
SKEW = 1.0
#: Share of requests that confirm a repair (and so write experience).
CONFIRM_SHARE = 0.03
SCRAPE_EVERY_S = 0.5
CHECKPOINT_INTERVAL_S = 1.0
#: Requests per quota interval: never reached, but debited on every request.
QUOTA = 10**9
#: The hot set skips intermittent scenarios: this path never runs the
#: engine, and those are the only scenarios that are slow to generate.
HOT_CLASSES = ("single-hard", "single-drift", "multi-fault", "tempco-drift", "tolerance-stackup")


class WarmTenant:
    def __init__(self, seed: int, seconds: float, work) -> None:
        self.seed = seed
        self.work = work
        self.connections = len(os.sched_getaffinity(0))
        self.server = None

    def setup(self, part: int, parts: int) -> None:
        """A fresh store, tenant and server, primed with the hot set."""
        from repro.server import ServerConfig
        from repro.store import DiagnosisStore

        self.close()
        seed = self.seed
        path = self.work / f"store-{part}.sqlite"
        with DiagnosisStore(path) as store:
            self.api_key = store.provision_tenant("bench", quota_limit=QUOTA, quota_interval=1.0)
        self.server = ServerThread(
            ServerConfig(
                host="127.0.0.1",
                port=0,
                store=str(path),
                cache_size=CACHE_SIZE,
                checkpoint_interval=CHECKPOINT_INTERVAL_S,
            )
        )
        self.clients = [client(self.server.port, self.api_key) for _ in range(self.connections)]
        corpus = interleaved_corpus(seed, -(-(HOT_SET + 1) // len(HOT_CLASSES)), HOT_CLASSES)
        hot, warmup = corpus[:HOT_SET], corpus[HOT_SET]
        self.specs = [scenario_spec(s) for s in hot]
        self.confirm_specs = [scenario_spec(s, confirm=True) for s in hot]
        # The cold answer for each item, recorded while priming.
        self.cold = []
        for spec in self.specs:
            reply = self.clients[0].diagnose(spec)
            if reply.get("status") not in ("ok", "degraded"):
                raise RuntimeError(f"priming {spec['unit']}: status {reply.get('status')!r}")
            self.cold.append(reply["diagnosis"])
        for _ in range(20):
            self.clients[0].diagnose(scenario_spec(warmup))
        self.rng = random.Random(seed)
        rank = list(range(HOT_SET))
        self.rng.shuffle(rank)
        self.weights = [0.0] * HOT_SET
        for position, item in enumerate(rank):
            self.weights[item] = 1.0 / (position + 1) ** SKEW
        self.batches = itertools.count()

    def measure(self, seconds: float, tracer=None) -> Measurement:
        from repro.server import ClientError

        batch = next(self.batches)
        count = int(seconds * RATE)
        scrape_every = int(SCRAPE_EVERY_S * RATE)
        items = self.rng.choices(range(HOT_SET), weights=self.weights, k=count)
        confirms = [self.rng.random() < CONFIRM_SHARE for _ in range(count)]
        slots = itertools.count()
        lock = threading.Lock()
        rows = []  # (slot, item, latency from due s, lag s, diagnosis or None, error)
        scrapes = []
        t0 = perf_counter() + 0.05

        def worker(cli) -> None:
            local, local_scrapes = [], []
            while True:
                slot = next(slots)
                if slot >= count:
                    break
                due = t0 + slot / RATE
                wait = due - perf_counter()
                if wait > 0:
                    time.sleep(wait)
                start = perf_counter()
                if slot % scrape_every == scrape_every // 2:
                    try:
                        cli.metrics()
                    except ClientError as exc:
                        local.append((slot, -1, 0.0, start - due, None, request_error(exc)))
                        continue
                    local_scrapes.append((start, perf_counter()))
                    continue
                item = items[slot]
                spec = self.confirm_specs[item] if confirms[slot] else self.specs[item]
                rid = f"warm-{self.seed}-{batch}-{slot}"
                try:
                    reply = cli.diagnose(spec, headers={"X-Request-Id": rid})
                    error = None
                except ClientError as exc:
                    reply, error = {}, request_error(exc)
                end = perf_counter()
                if tracer is not None:
                    tracer.record("request", start, end, rid)
                local.append((slot, item, end - due, start - due, reply, error))
            with lock:
                rows.extend(local)
                scrapes.extend(local_scrapes)

        if tracer is not None:
            before = self.clients[0].metrics()
            unwatch = tracer.watch_writes(self.server.server.store)
        threads = [threading.Thread(target=worker, args=(c,)) for c in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        m = Measurement()
        m.wall_s = max(perf_counter() - t0, 1e-9)
        if tracer is not None:
            unwatch()
            self._layers(m, before, self.clients[0].metrics(), tracer, count)
        within = 0
        lags = []
        for slot, item, latency, lag, reply, error in rows:
            lags.append(lag * 1e3)
            m.attempted += 1
            if error is not None:
                m.failed += 1
                m.check(False, f"slot {slot}: {error[0]}")
                m.extra["rejected"] = m.extra.get("rejected", 0) + (error[1] in (429, 503, 504))
                continue
            if item < 0:
                continue
            if reply.get("status") not in ("ok", "degraded"):
                m.failed += 1
                m.check(False, f"slot {slot}: status {reply.get('status')!r}")
                continue
            m.check(
                reply.get("diagnosis") == self.cold[item],
                f"slot {slot}: hit on {self.specs[item]['unit']} differs from its cold answer",
            )
            m.operations += 1
            m.latencies_ms.append(latency * 1e3)
            within += latency * 1e3 <= LATENCY_LIMIT_MS
        scheduled = sum(1 for row in rows if row[1] >= 0)
        m.extra["slo_ratio"] = within / max(scheduled, 1)
        m.extra["lags_ms"] = lags
        m.extra["scrape_ms"] = [(b - a) * 1e3 for a, b in scrapes]
        return m

    @staticmethod
    def _layers(m: Measurement, before: dict, after: dict, tracer, requests: int) -> None:
        """Cache tiers and store upkeep over the traced phase, from ``/metrics``."""

        def delta(section: str, key: str) -> float:
            return float((after[section] or {}).get(key, 0)) - float((before[section] or {}).get(key, 0))

        lookups = max(delta("cache", "hits") + delta("cache", "misses"), 1.0)
        m.layer["service.cache_mem_hit_ratio"] = delta("cache", "hits_mem") / lookups
        m.layer["service.cache_disk_hit_ratio"] = delta("cache", "hits_disk") / lookups
        m.layer["service.cache_miss_ratio"] = delta("cache", "misses") / lookups
        m.layer["store.maintenance_ticks"] = delta("lifecycle", "ticks")
        m.layer["store.writes_per_request"] = tracer.write_transactions / max(requests, 1)

    def finish(self, m: Measurement) -> None:
        pass

    def close(self) -> None:
        if self.server is not None:
            for cli in self.clients:
                cli.close()
            self.server.stop()
            self.server = None
