"""stream-glitch: a watched ladder whose nets glitch under sub-gate noise.

An in-process :class:`StreamingSession`, built from ``StreamSpec``'s
defaults on a 4-section ladder, is fed seeded readings.  Every reading
carries Gaussian instrument noise below the 1 mV dirty gate, and one net
at a time glitches: it reads high for a few samples, then clean again,
and the glitch moves on to the next net.  The noise stays in.  Real
telemetry is noisy, and the incremental engine reuses a checkpoint only
for a reading that is exactly unchanged, so noise decides how much of
its chain a tick can reuse.
"""

from __future__ import annotations

import random
from time import perf_counter

from common import Measurement

ROOTS = ("tick",)
#: Ladder sections, one watched net each; the rest of the spec is default.
SECTIONS = 4
#: Instrument noise (volts, standard deviation), below the 1 mV dirty gate.
NOISE_V = 0.3e-3
#: How far a glitching net reads high (volts).
GLITCH_V = 0.3
#: Samples (one reading per net each) with the glitch present, then absent.
EPISODE = 6
QUIET = 6
WARMUP_EPISODES = 3


class GlitchSource:
    """Seeded readings; remembers when the session pulled the latest one."""

    def __init__(self, nominal, seed: str, deadline: float) -> None:
        self.nominal = nominal  # {net: volts} of the healthy unit
        self.rng = random.Random(seed)
        self.deadline = deadline
        self.pulled = 0.0
        self.count = 0
        self.done = False

    def __iter__(self):
        from repro.stream.sources import Reading

        # Every net glitches in turn, so each run sees the same mix of
        # glitch positions; the seed picks where the rotation starts.
        nets = list(self.nominal)
        episode = self.rng.randrange(len(nets))
        sample = 0
        while perf_counter() < self.deadline:
            glitching = nets[episode % len(nets)]
            for index in range(EPISODE + QUIET):
                for net, volts in self.nominal.items():
                    if net == glitching and index < EPISODE:
                        volts += GLITCH_V
                    reading = Reading(sample * 1e-3, net, volts + self.rng.gauss(0.0, NOISE_V))
                    self.count += 1
                    self.pulled = perf_counter()
                    yield reading
                sample += 1
            episode += 1
        self.done = True


class StreamGlitch:
    def __init__(self, seed: int, seconds: float, work) -> None:
        self.seed = seed
        self.phase = 0

    def setup(self, part: int, parts: int) -> None:
        """A fresh session, warmed up on another seed's stream."""
        from repro.circuit.simulate import DCSolver
        from repro.server.stream import StreamSpec
        from repro.service.telemetry import Telemetry

        self.spec = StreamSpec(size=SECTIONS)
        self.golden = self.spec.golden_circuit()
        op = DCSolver(self.golden).solve()
        self.nominal = {net: op.voltage(net) for net in self.spec.default_nets()}
        self.telemetry = Telemetry()
        self.session = self.spec.build_session(self.telemetry)
        builder = self.session.builder
        build = builder.build

        def keep_last():
            self.last_snapshot = build()
            return self.last_snapshot

        builder.build = keep_last  # the final ranking is checked against it
        warm = GlitchSource(self.nominal, f"warm-up/{self.seed}", float("inf"))
        readings = WARMUP_EPISODES * (EPISODE + QUIET) * SECTIONS
        self.session.source = (reading for _, reading in zip(range(readings), warm))
        for update in self.session.run():
            self.last_update = update
        self.session.always_diagnose_first = False

    def measure(self, seconds: float, tracer=None) -> Measurement:
        m = Measurement()
        self.phase += 1
        started = perf_counter()
        source = GlitchSource(self.nominal, f"{self.seed}/{self.phase}", started + seconds)
        self.session.source = source
        suppressed = self.telemetry.counter("stream_rediagnoses_suppressed")
        dirty = incremental = 0
        for update in self.session.run():
            received = perf_counter()
            self.last_update = update
            m.attempted += 1
            if update.interrupted:
                m.failed += 1
                m.check(False, f"tick {update.seq} was interrupted")
                continue
            if source.done:
                continue  # the drain tick after the source ends; no reading triggered it
            m.latencies_ms.append((received - source.pulled) * 1e3)
            dirty += len(update.dirty)
            incremental += update.incremental
            if tracer is not None:
                tracer.record("tick", source.pulled, received)
        m.wall_s = perf_counter() - started
        m.operations = source.count
        if tracer is not None:
            ticks = max(len(m.latencies_ms), 1)
            stats = tracer.ticks
            ingest = sum(s[2] - s[1] for s in tracer.spans if s[0] == "stream.ingest")
            m.layer.update(
                {
                    "stream.ticks": len(m.latencies_ms),
                    "stream.suppressed": self.telemetry.counter("stream_rediagnoses_suppressed")
                    - suppressed,
                    "stream.dirty_per_tick": dirty / ticks,
                    "stream.incremental_ratio": incremental / ticks,
                    "stream.recomputed_per_tick": sum(s[1] for s in stats) / max(len(stats), 1),
                    "stream.reused_prefix_ratio": sum(s[0] for s in stats)
                    / max(sum(s[2] for s in stats), 1),
                    "stream.ingest_us": ingest / max(source.count, 1) * 1e6,
                }
            )
        return m

    def finish(self, m: Measurement) -> None:
        """The final ranking must match a fresh engine on the final snapshot."""
        from repro.core.diagnosis import Flames, FlamesConfig
        from repro.stream.incremental import IncrementalDiagnosisEngine

        fresh = IncrementalDiagnosisEngine(Flames(self.golden, FlamesConfig(kernel=self.spec.kernel)))
        result = fresh.diagnose(self.last_snapshot.measurements)
        expected = tuple(result.ranked_components()[: self.spec.top])
        m.check(
            expected == self.last_update.ranking,
            f"final ranking {self.last_update.ranking} != fresh engine {expected}",
        )

    def close(self) -> None:
        pass
