"""Corpus accuracy/latency benchmark and the committed floor gate.

The pytest leg runs a small fixed corpus and regenerates the EXPERIMENTS.md accuracy table (rank-of-true-fault and
latency percentiles per scenario class).  The module entry point runs
the same recipe the CI smoke gate uses and, under
``REPRO_BENCH_STRICT=1``, enforces the committed accuracy floor:

    REPRO_BENCH_STRICT=1 PYTHONPATH=src python -m benchmarks.bench_corpus

CI keeps the cheap leg in the test matrix (`bench_corpus.py` via
pytest) and the floor gate in `scripts/corpus_smoke.py`; the strict
entry point is for paper-scale local runs (``--seed 7``-sized corpora).
"""

import json
import os
from pathlib import Path

from repro.corpus import check_floor, generate_corpus, run_corpus

FLOOR_PATH = Path(__file__).resolve().parent / "corpus_floor.json"

#: The CI smoke recipe — small enough for the bench leg, big enough to
#: cover every (class, family) pair at least once.
SEED = 101
PER_CLASS = 8


def format_table(report):
    lines = [f"  {'class':<20}{'n':>5}{'top1':>7}{'top3':>7}{'top5':>7}"
             f"{'mrank':>7}{'lowdeg':>8}{'p50ms':>8}{'p95ms':>8}"]
    classes = report.stats()
    ordered = sorted(c for c in classes if c != "overall") + ["overall"]
    for name in ordered:
        acc = classes[name].accuracy_dict()
        lat = classes[name].latency_dict()
        mean_rank = acc["mean_rank"]
        lines.append(
            f"  {name:<20}{acc['n']:>5}"
            f"{acc.get('top1', 0.0):>7.3f}{acc.get('top3', 0.0):>7.3f}"
            f"{acc.get('top5', 0.0):>7.3f}"
            f"{(f'{mean_rank:.2f}' if mean_rank is not None else '-'):>7}"
            f"{acc['low_degree_rate']:>8.3f}"
            f"{lat['p50_ms']:>8.1f}{lat['p95_ms']:>8.1f}"
        )
    return "\n".join(lines)


class TestCorpusAccuracy:
    def test_accuracy_table_and_floor(self, emit):
        # Smaller than the smoke gate: the bench leg shares a CI job
        # with every other benchmark, so it covers each class once per
        # family pair and leaves the full floor run to corpus_smoke.py.
        manifest = generate_corpus(SEED, 4)
        report = run_corpus(manifest, workers=2, executor="thread")
        emit("corpus-accuracy", format_table(report))

        classes = report.to_dict()["classes"]
        assert classes["overall"]["accuracy"]["failures"] == 0
        assert classes["intermittent"]["accuracy"]["low_degree_rate"] == 1.0
        assert classes["tolerance-stackup"]["accuracy"]["top1"] >= 0.75, (
            "stackup scenarios indicting certain culprits"
        )


def main():  # pragma: no cover - manual entry point
    import argparse

    parser = argparse.ArgumentParser(
        prog="bench_corpus",
        description="corpus accuracy/latency benchmark (CI smoke recipe)",
    )
    parser.add_argument(
        "--seed", type=int, default=SEED, help=f"corpus seed (default {SEED})"
    )
    parser.add_argument(
        "--per-class", dest="per_class", type=int, default=PER_CLASS,
        help=f"scenarios per class (default {PER_CLASS})",
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="worker pool width (default 4)"
    )
    parser.add_argument(
        "--json-out", default="",
        help="also write the full report as JSON here (e.g. BENCH_corpus.json)",
    )
    args = parser.parse_args()
    manifest = generate_corpus(args.seed, args.per_class)
    report = run_corpus(manifest, workers=args.workers)
    print(format_table(report))
    if args.json_out:
        payload = {
            "benchmark": "corpus",
            "seed": args.seed,
            "per_class": args.per_class,
            "report": report.to_dict(),
        }
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json_out}")
    if os.environ.get("REPRO_BENCH_STRICT"):
        floor = json.loads(FLOOR_PATH.read_text())
        breaches = check_floor(report, floor)
        for breach in breaches:
            print(f"FLOOR BREACH: {breach}")
        assert not breaches, f"{len(breaches)} floor breach(es)"
        print("strict gate ok: committed accuracy floor holds")


if __name__ == "__main__":  # pragma: no cover
    main()
