"""Shared plumbing for the benchmark workloads.

Locates the checkout, puts its ``src`` tree on the import path, and
holds the small helpers every workload uses: the scratch directory,
percentiles, peak RSS, corpus-derived request specs, and the in-process
server thread.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import shutil
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program to measure)."""


def import_program() -> None:
    """Make ``repro`` importable from the checkout's own sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def work_dir(workload: str, seed: int) -> Path:
    """A fresh scratch directory inside the checkout for one run."""
    path = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def out_dir() -> Path:
    """Where runs leave their span dumps and cross-run accuracy records."""
    path = ROOT / ".bench_out"
    path.mkdir(exist_ok=True)
    return path


def percentile(values: List[float], q: float) -> float:
    """The corpus harness's percentile (0.0 for no values)."""
    from repro.corpus.metrics import percentile as _percentile

    return _percentile(values, q)


def peak_rss_mb(children: int = 0) -> float:
    """Peak RSS of this process plus ``children`` times the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children * child) / 1024.0


@dataclass
class Measurement:
    """What one measured phase of a workload produced."""

    latencies_ms: List[float] = field(default_factory=list)
    operations: int = 0  # completed operations (the throughput numerator)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    problems: List[str] = field(default_factory=list)  # failed correctness checks
    extra: Dict[str, object] = field(default_factory=dict)  # workload-specific results
    layer: Dict[str, float] = field(default_factory=dict)  # per-layer metrics, traced runs

    @property
    def throughput(self) -> float:
        return self.operations / self.wall_s if self.wall_s > 0 else 0.0

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.problems) < 20:
            self.problems.append(message)


# ----------------------------------------------------------------------
# Corpus-derived inputs
# ----------------------------------------------------------------------
def scenario_spec(scenario, unit: str = "", confirm: bool = False) -> Dict:
    """A ``POST /v1/diagnose`` job spec for one corpus scenario.

    ``unit`` labels the job (the scenario id by default); ``confirm`` attaches the injected fault as a verified repair when the
    scenario has exactly one defect (the only case where it is known).
    """
    spec: Dict = {
        "unit": unit or scenario.id,
        "netlist_text": scenario.netlist_text,
        "measurements": [
            {"point": point, "value": [m1, m2, alpha, beta]}
            for point, m1, m2, alpha, beta in scenario.measurements
        ],
    }
    if confirm and len(scenario.faults) == 1:
        fault = scenario.faults[0]
        spec["confirm"] = {"component": fault.component, "mode": fault.kind.value}
    return spec


def interleaved_corpus(seed: int, per_class: int, classes=None) -> List:
    """Corpus scenarios ordered so every prefix mixes classes and families.

    The generator emits class by class, and within a class it walks the
    five topology families round-robin; interleaving by index makes each
    run of ``len(classes) * 5`` consecutive scenarios cover every
    (class, family) pair once.
    """
    from repro.corpus.generator import generate_corpus

    manifest = generate_corpus(seed, per_class, classes=classes)
    by_class = manifest.by_class()
    order = [c for c in manifest.classes if c in by_class]
    return [by_class[c][i] for i in range(per_class) for c in order]


# ----------------------------------------------------------------------
# The in-process server
# ----------------------------------------------------------------------
class ServerThread:
    """A :class:`DiagnosisServer` serving from its own event-loop thread."""

    def __init__(self, config) -> None:
        from repro.server import DiagnosisServer

        self.loop = asyncio.new_event_loop()
        self.server: Optional[DiagnosisServer] = None
        self._error: Optional[BaseException] = None
        started = threading.Event()

        def main() -> None:
            asyncio.set_event_loop(self.loop)
            try:
                self.server = DiagnosisServer(config)
                self.loop.run_until_complete(self.server.start())
            except BaseException as exc:  # reported to the starting thread
                self._error = exc
                started.set()
                return
            started.set()
            self.loop.run_until_complete(self.server.serve())

        self.thread = threading.Thread(target=main, name="bench-server", daemon=True)
        self.thread.start()
        if not started.wait(60) or self._error is not None or self.server is None:
            raise SetupError(f"server did not start: {self._error!r}")

    @property
    def port(self) -> int:
        assert self.server is not None and self.server.port is not None
        return self.server.port

    def stop(self) -> None:
        if self.server is not None and self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.server.request_shutdown)
        self.thread.join(timeout=90)
        if self.thread.is_alive():
            raise RuntimeError("server thread did not stop")
        self.loop.close()


def client(port: int, api_key: str = ""):
    """A fail-fast client: a refused or failed request is a failure, not a retry."""
    from repro.server import DiagnosisClient

    return DiagnosisClient(port=port, retries=0, timeout=60.0, api_key=api_key)


def request_error(exc: BaseException) -> Tuple[str, int]:
    """A short description and HTTP status (0 = transport) of a failed request."""
    status = int(getattr(exc, "status", 0) or 0)
    return f"{type(exc).__name__}({status}): {exc}"[:200], status


# ----------------------------------------------------------------------
# Accuracy: scored per scenario, checked against earlier runs of the seed
# ----------------------------------------------------------------------
def score(corpus_seed: int, scenario, diagnosis: Dict, scores: Dict[str, List]) -> None:
    """Record the scenario's rank of true fault and hit@1 / hit@3."""
    from repro.corpus.metrics import rank_of_true_fault, scenario_hit

    scores[f"{corpus_seed}/{scenario.id}"] = [
        rank_of_true_fault(diagnosis, scenario.expected),
        scenario_hit(scenario.expected, diagnosis, 1),
        scenario_hit(scenario.expected, diagnosis, 3),
    ]


def core_counts(diagnoses: List[Dict]) -> Dict[str, float]:
    """Mean propagation steps, nogoods and candidates per diagnosis."""
    n = max(len(diagnoses), 1)
    return {
        "core.propagate_steps": sum(d["stats"].get("propagation_steps", 0) for d in diagnoses) / n,
        "core.nogoods": sum(d["stats"].get("nogoods", 0) for d in diagnoses) / n,
        "core.candidates": sum(len(d.get("candidates", [])) for d in diagnoses) / n,
    }


def accuracy(scores: Dict[str, List], m: "Measurement") -> None:
    """top-1/top-3 accuracy into ``m.extra``; fails ``m`` on a cross-run mismatch.

    Runs of one seed diagnose prefixes of the same corpora, so each
    scenario must score exactly as it did in every earlier run, on any
    workload, in this checkout.
    """
    if not scores:
        return
    m.extra["top1_acc"] = sum(1 for s in scores.values() if s[1]) / len(scores)
    m.extra["top3_acc"] = sum(1 for s in scores.values() if s[2]) / len(scores)
    path = out_dir() / "ranks.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    for sid, outcome in scores.items():
        m.check(
            known.get(sid, outcome) == outcome,
            f"{sid}: scored {outcome}, an earlier run scored {known.get(sid)}",
        )
    known.update(scores)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, path)
