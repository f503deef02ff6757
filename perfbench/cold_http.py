"""cold-http: one closed-loop client, every request a cache miss.

Each request is a distinct corpus scenario (six fault classes x five
topology families, interleaved), sent as ``POST /v1/diagnose`` to an
in-process server with no store.  Nothing repeats, so every request
runs the full engine: nominal solve, propagate, classify, nogoods,
candidates, score and the knowledge-base refine.
"""

from __future__ import annotations

from time import perf_counter

from common import (
    Measurement,
    ServerThread,
    accuracy,
    client,
    core_counts,
    interleaved_corpus,
    request_error,
    scenario_spec,
    score,
)

ROOTS = ("request",)
#: Distinct scenarios per measured second; a run that uses them all ends early.
SCENARIOS_PER_SECOND = 12
#: Warm-up requests, one per class, on a corpus of another seed (outside
#: the measured set).
WARMUP_CLASSES = ("single-hard", "single-drift", "multi-fault")


class ColdHttp:
    def __init__(self, seed: int, seconds: float, work) -> None:
        self.seed = seed
        self.per_class = -(-int(SCENARIOS_PER_SECOND * seconds) // 6)
        self.scenarios = []
        self.server = None
        self.scores: dict = {}

    def setup(self, part: int, parts: int) -> None:
        """Generate this part's share of the inputs, then (re)start the server."""
        from repro.server import ServerConfig

        self.close()
        corpus_seed = parts * self.seed + part
        share = -(-self.per_class // parts)
        self.scenarios += [(corpus_seed, s) for s in interleaved_corpus(corpus_seed, share)]
        self.server = ServerThread(ServerConfig(host="127.0.0.1", port=0))
        self.client = client(self.server.port)
        for scenario in interleaved_corpus(-1 - self.seed, 1, WARMUP_CLASSES):
            self.client.diagnose(scenario_spec(scenario))
        self.pending = iter(self.scenarios)

    def measure(self, seconds: float, tracer=None) -> Measurement:
        from repro.server import ClientError

        m = Measurement()
        diagnoses = []
        started = perf_counter()
        deadline = started + seconds
        for corpus_seed, scenario in self.pending:
            if perf_counter() >= deadline:
                break
            rid = f"cold-{corpus_seed}-{scenario.id}"
            m.attempted += 1
            t0 = perf_counter()
            try:
                reply = self.client.diagnose(
                    scenario_spec(scenario),
                    trace=tracer is not None,
                    headers={"X-Request-Id": rid},
                )
            except ClientError as exc:
                m.failed += 1
                m.check(False, f"{scenario.id}: {request_error(exc)[0]}")
                continue
            t1 = perf_counter()
            if tracer is not None:
                tracer.record("request", t0, t1, rid)
                tracer.traces[rid] = reply.get("trace", {})
            if reply.get("status") not in ("ok", "degraded"):
                m.failed += 1
                m.check(False, f"{scenario.id}: status {reply.get('status')!r}")
                continue
            m.latencies_ms.append((t1 - t0) * 1e3)
            m.operations += 1
            diagnosis = reply["diagnosis"]
            score(corpus_seed, scenario, diagnosis, self.scores)
            diagnoses.append(diagnosis)
        m.wall_s = perf_counter() - started
        if tracer is not None:
            m.layer.update(core_counts(diagnoses))
        return m

    def finish(self, m: Measurement) -> None:
        accuracy(self.scores, m)

    def close(self) -> None:
        if self.server is not None:
            self.client.close()
            self.server.stop()
            self.server = None
