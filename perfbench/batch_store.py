"""batch-store: fresh corpus content through the process pool, store armed.

``FleetEngine.run_batch`` with ``executor="process"`` and one worker per
CPU diagnoses batches of scenarios it has never seen, confirming the
injected fault where there is exactly one.  It is the only path through
the process pool, and it uses the store for writes alone: every lookup
misses, and each job writes a cache row, a history row and, when
confirmed, experience.
"""

from __future__ import annotations

import os
from time import perf_counter

from common import Measurement, accuracy, core_counts, interleaved_corpus, scenario_spec, score

ROOTS = ("batch",)
#: Distinct scenarios per measured second; a run that uses them all ends early.
JOBS_PER_SECOND = 16
#: Jobs per batch, per worker.
BATCH_PER_WORKER = 12


class BatchStore:
    def __init__(self, seed: int, seconds: float, work) -> None:
        self.seed = seed
        self.work = work
        self.workers = len(os.sched_getaffinity(0))
        self.per_class = -(-int(JOBS_PER_SECOND * seconds) // 6)
        self.pending = []
        self.store = None
        self.scores: dict = {}

    def setup(self, part: int, parts: int) -> None:
        """Generate this part's share of the jobs, then open a fresh store and engine."""
        from repro.service import FleetEngine, job_from_spec
        from repro.store import DiagnosisStore

        self.close()
        corpus_seed = parts * self.seed + part
        share = -(-self.per_class // parts)
        self.pending += [
            (
                corpus_seed,
                scenario,
                job_from_spec(
                    scenario_spec(scenario, unit=f"{corpus_seed}/{scenario.id}", confirm=True)
                ),
            )
            for scenario in interleaved_corpus(corpus_seed, share)
        ]
        self.store = DiagnosisStore(self.work / f"batch-{part}.sqlite")
        self.engine = FleetEngine(workers=self.workers, executor="process", store=self.store)
        # One warm-up job per worker, from a corpus of another seed.
        warmup = interleaved_corpus(-1 - self.seed, self.workers, ("single-hard",))
        report = self.engine.run_batch([job_from_spec(scenario_spec(s)) for s in warmup])
        if not all(r.completed for r in report.results):
            raise RuntimeError("warm-up batch failed")

    def measure(self, seconds: float, tracer=None) -> Measurement:
        m = Measurement()
        size = BATCH_PER_WORKER * self.workers
        self.engine.tracing = tracer is not None
        diagnoses = []
        busy = overhead = 0.0
        batches = 0
        started = perf_counter()
        deadline = started + seconds
        while self.pending and perf_counter() < deadline:
            chunk, self.pending = self.pending[:size], self.pending[size:]
            t0 = perf_counter()
            report = self.engine.run_batch([job for _, _, job in chunk])
            t1 = perf_counter()
            batches += 1
            elapsed = sum(r.elapsed for r in report.results)
            busy += elapsed
            overhead += (t1 - t0) - elapsed / self.workers
            if tracer is not None:
                tracer.record("batch", t0, t1)
                tracer.collect_spills()
            for (corpus_seed, scenario, _), result in zip(chunk, report.results):
                m.attempted += 1
                if tracer is not None and result.trace:
                    tracer.traces[result.unit] = result.trace
                if not result.completed:
                    m.failed += 1
                    m.check(False, f"{scenario.id}: {result.status} {result.error[:120]}")
                    continue
                m.operations += 1
                m.latencies_ms.append(result.elapsed * 1e3)
                score(corpus_seed, scenario, result.diagnosis, self.scores)
                diagnoses.append(result.diagnosis)
        m.wall_s = perf_counter() - started
        self.engine.tracing = False
        if tracer is not None:
            m.layer["service.worker_busy_ratio"] = busy / max(m.wall_s * self.workers, 1e-9)
            m.layer["service.batch_overhead_s"] = overhead / max(batches, 1)
            m.layer.update(core_counts(diagnoses))
        return m

    def finish(self, m: Measurement) -> None:
        accuracy(self.scores, m)

    def close(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None
