"""Micro-benchmarks of the FLAMES kernel pieces.

These time the substrates the paper's runtime claims rest on: fuzzy
interval arithmetic, Dc evaluation, ATMS label propagation, weighted
hitting sets, the DC simulator and one full diagnosis cycle — plus the
propagator's skips against the no-skip oracle (``tests/kernel/oracle.py``).
Two cases double as CI regression guards: ``test_*_speedup`` times
repeated-measurement workloads and fails when the skips drop below 2x on
the ladder; ``test_projection_work_ratio`` counts ``Constraint.project``
calls on cold amplifier diagnoses and fails when the engine needs more
than 0.6 of the oracle's.  Counts repeat exactly, unlike timings.

The module entry point runs both comparisons and can write a
machine-readable result for trend tracking:

    PYTHONPATH=src python -m benchmarks.bench_kernel --json-out BENCH_kernel.json
"""

import argparse
import json
import time

from repro.atms import ATMS, Environment, minimal_diagnoses
from repro.atms.assumptions import Assumption
from repro.atms.nogood import WeightedNogood
from repro.circuit import (
    DCSolver,
    Fault,
    FaultKind,
    apply_fault,
    probe_all,
    three_stage_amplifier,
)
from repro.circuit.constraints import ConstraintNetwork
from repro.circuit.generators import resistor_ladder
from repro.circuit.measurements import probe
from repro.core import Flames
from repro.core.predict import predict_nominal
from repro.core.propagation import FuzzyPropagator
from repro.fuzzy import FuzzyInterval, consistency, fuzzy_entropy
from tests.kernel.oracle import NoSkipPropagator, OracleFlames


class TestFuzzyArithmetic:
    def test_multiply_chain(self, benchmark):
        a = FuzzyInterval(3.0, 3.0, 0.05, 0.05)
        gains = [FuzzyInterval(g, g, 0.05, 0.05) for g in (1.0, 2.0, 3.0, 0.5)] * 5

        def chain():
            v = a
            for g in gains:
                v = v * g
            return v

        result = benchmark(chain)
        assert result.m1 > 0

    def test_consistency_degree(self, benchmark):
        measured = FuzzyInterval(1.05, 1.05, 0.02, 0.02)
        nominal = FuzzyInterval(1.0, 1.0, 0.08, 0.08)
        c = benchmark(consistency, measured, nominal)
        assert 0.0 <= c.degree <= 1.0

    def test_fuzzy_entropy_ten_components(self, benchmark):
        estimations = [FuzzyInterval(0.1 * i, 0.1 * i, 0.05, 0.05) for i in range(10)]
        ent = benchmark(fuzzy_entropy, estimations)
        assert ent.centroid >= 0.0


class TestATMSKernel:
    def _build(self, n):
        atms = ATMS()
        assumptions = [atms.create_assumption(f"A{i}") for i in range(n)]
        previous = None
        for i, a in enumerate(assumptions):
            node = atms.create_node(f"x{i}")
            ants = [a] if previous is None else [a, previous]
            atms.justify(f"j{i}", ants, node)
            previous = node
        return atms, assumptions

    def test_label_propagation_chain(self, benchmark):
        def run():
            atms, _ = self._build(30)
            return atms.stats()["label_environments"]

        assert benchmark(run) > 0

    def test_nogood_retraction(self, benchmark):
        def run():
            atms, assumptions = self._build(20)
            atms.declare_nogood("n", assumptions[:2])
            return len(atms.minimal_nogoods())

        assert benchmark(run) == 1

    def test_weighted_hitting_sets(self, benchmark):
        names = [Assumption(f"c{i}", f"c{i}") for i in range(10)]
        nogoods = [
            WeightedNogood(Environment(frozenset(names[i : i + 3])), 1.0 - 0.05 * i)
            for i in range(7)
        ]
        diagnoses = benchmark(minimal_diagnoses, nogoods)
        assert diagnoses


class TestSimulatorAndEngine:
    def test_dc_solve_three_stage(self, benchmark):
        golden = three_stage_amplifier()
        op = benchmark(lambda: DCSolver(golden).solve())
        assert op.device_states["T2"] == "active"

    def test_prediction_unit(self, benchmark):
        from repro.core.predict import predict_nominal

        golden = three_stage_amplifier()
        predictions = benchmark.pedantic(
            predict_nominal, args=(golden,), rounds=3, iterations=1
        )
        assert "V(vs)" in predictions

    def test_full_diagnosis_cycle(self, benchmark):
        golden = three_stage_amplifier()
        engine = Flames(golden)
        engine.predictions()  # warm the cache: time the diagnosis itself
        op = DCSolver(apply_fault(golden, Fault(FaultKind.SHORT, "R2"))).solve()
        measurements = probe_all(op, ["vs", "v2", "v1"], imprecision=0.02)
        result = benchmark.pedantic(
            engine.diagnose, args=(measurements,), rounds=3, iterations=1
        )
        assert not result.is_consistent


def _measurement_stream(circuit, probes):
    """A persistent propagator fed one measurement at a time (fault-shop
    cadence: predictions first, then probe / run / probe / run ...)."""
    op = DCSolver(circuit).solve()
    nets = [n for n in sorted(op.voltages) if n != "0"][:probes]
    network = ConstraintNetwork(circuit, False)
    nominal = predict_nominal(circuit)

    def run(propagator_cls):
        prop = propagator_cls(network)
        for name, pred in nominal.items():
            if name in network.variables:
                prop.set_value(name, pred.value, pred.support, source="prediction")
        prop.run()
        for net in nets:
            m = probe(op, net, 0.02)
            prop.set_value(m.point, m.value)
            prop.run()
        return prop

    return run


def _time(fn, *args, repeats=2):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


class TestKernelComparison:
    """The propagator's skips (change tick, repeat combo, input-pool
    memo) against the no-skip oracle.

    The speedup assertion is deliberately far below the typical figure
    (~7x on the ladder) so it trips on real regressions — skips worth
    less than 2x on their flagship workload are a bug — without
    flaking on machine noise.
    """

    def test_repeated_measurement_speedup(self, emit):
        rows = run_comparison()
        table = ["propagator skips — repeated-measurement propagation",
                 f"{'workload':<26} {'no-skip':>10} {'skip':>9} {'speedup':>8}"]
        for row in rows:
            table.append(
                f"{row['workload']:<26} {row['no_skip_ms']:>8.0f}ms "
                f"{row['skip_ms']:>7.0f}ms {row['speedup']:>7.2f}x"
            )
        emit("kernel-comparison", "\n".join(table))
        ladder = rows[0]
        assert ladder["speedup"] >= 2.0, (
            f"propagator skips regressed: only {ladder['speedup']:.2f}x "
            f"on {ladder['workload']}"
        )


class TestProjectionWork:
    """Projections the engine computes, as a share of the oracle's.

    The repeat-combo skip drops every projection whose constraint,
    target, activation environment and input values were all seen
    before; on a cold diagnosis that is most of them (about 0.4-0.5 of
    the oracle's count remain).  The gate is deterministic.
    """

    def test_projection_work_ratio(self, emit):
        rows = run_projection_counts()
        emit("projection-work", format_projection_counts(rows))
        for row in rows:
            assert row["ratio"] <= 0.6, (
                f"repeat-combo skip regressed: {row['workload']} computes "
                f"{row['ratio']:.2f} of the oracle's projections"
            )


class TestTracingOverhead:
    """Span collection must cost (almost) nothing when off, little when on.

    Tracing off shares one no-op handle per ``RunContext.span`` call, so
    the traced-vs-untraced gap on a full diagnosis cycle is bounded at
    5% (plus a small absolute epsilon so sub-millisecond noise cannot
    trip the guard on a fast machine).
    """

    def test_span_overhead_within_5_percent(self, emit):
        from repro.runtime import RunContext

        golden = three_stage_amplifier()
        engine = Flames(golden)
        engine.predictions()
        op = DCSolver(apply_fault(golden, Fault(FaultKind.SHORT, "R2"))).solve()
        measurements = probe_all(op, ["vs", "v2", "v1"], imprecision=0.02)

        def run(tracing):
            ctx = RunContext(tracing=tracing)
            return engine.diagnose(measurements, ctx=ctx)

        run(True)  # warm everything once before timing
        base = _time(run, False, repeats=5)
        traced = _time(run, True, repeats=5)
        emit(
            "tracing-overhead",
            "span-collection overhead — full diagnosis cycle\n"
            f"{'tracing off':<14} {base * 1000:>8.2f}ms\n"
            f"{'tracing on':<14} {traced * 1000:>8.2f}ms\n"
            f"{'overhead':<14} {(traced / base - 1) * 100:>7.1f}%",
        )
        assert traced <= base * 1.05 + 0.002, (
            f"tracing overhead too high: {base * 1000:.2f}ms -> "
            f"{traced * 1000:.2f}ms ({(traced / base - 1) * 100:.1f}%)"
        )


class TestATMSGrowth:
    def test_growth_sweep(self, benchmark, emit):
        from repro.experiments.atms_growth import format_atms_growth, run_atms_growth

        rows = benchmark.pedantic(
            run_atms_growth, kwargs={"conflict_counts": (2, 4, 6, 8)},
            rounds=1, iterations=1,
        )
        assert rows[-1].diagnoses_all == 256
        emit("atms-growth", format_atms_growth(rows))


def run_comparison(repeats=2):
    """The skips-vs-oracle rows as plain data (shared by pytest, CLI, JSON)."""
    rows = []
    for label, circuit, probes in (
        ("ladder-40 x12 probes", resistor_ladder(40), 12),
        ("three-stage x6 probes", three_stage_amplifier(), 6),
    ):
        run = _measurement_stream(circuit, probes)
        run(FuzzyPropagator)  # touch everything once so both timings are warm
        oracle = _time(run, NoSkipPropagator, repeats=repeats)
        skip = _time(run, FuzzyPropagator, repeats=repeats)
        rows.append(
            {
                "workload": label,
                "no_skip_ms": round(oracle * 1000, 3),
                "skip_ms": round(skip * 1000, 3),
                "speedup": round(oracle / skip, 3),
            }
        )
    return rows


def _count_projections(engine_cls, circuit, measurements):
    """``Constraint.project`` calls one cold diagnosis makes."""
    engine = engine_cls(circuit)
    calls = [0]
    for constraint in engine.network.constraints:
        def counted(target, values, _project=constraint.project):
            calls[0] += 1
            return _project(target, values)

        constraint.project = counted
    engine.diagnose(measurements)
    return calls[0]


def run_projection_counts():
    """Projection counts, engine vs oracle, on the cold amplifier faults."""
    rows = []
    for label, fault in (
        ("amp-short-r2", Fault(FaultKind.SHORT, "R2")),
        ("amp-open-r5", Fault(FaultKind.OPEN, "R5")),
    ):
        golden = three_stage_amplifier()
        op = DCSolver(apply_fault(golden, fault)).solve()
        measurements = probe_all(op, ["vs", "v1", "v2", "n1", "n2"], imprecision=0.02)
        oracle = _count_projections(OracleFlames, golden, measurements)
        engine = _count_projections(Flames, golden, measurements)
        rows.append(
            {
                "workload": label,
                "oracle_projections": oracle,
                "projections": engine,
                "ratio": round(engine / oracle, 3),
            }
        )
    return rows


def format_projection_counts(rows):
    lines = ["projection work — cold diagnosis, engine vs no-skip oracle",
             f"{'workload':<14} {'oracle':>8} {'engine':>8} {'ratio':>6}"]
    for row in rows:
        lines.append(
            f"{row['workload']:<14} {row['oracle_projections']:>8} "
            f"{row['projections']:>8} {row['ratio']:>6.2f}"
        )
    return "\n".join(lines)


def main():  # pragma: no cover - manual entry point
    parser = argparse.ArgumentParser(
        prog="bench_kernel",
        description="propagator skips vs the no-skip oracle: repeated-"
        "measurement timings and cold-diagnosis projection counts",
    )
    parser.add_argument(
        "--repeats", type=int, default=2,
        help="timing repetitions per workload, best-of (default 2)",
    )
    parser.add_argument(
        "--json-out", default="",
        help="also write the rows as JSON here (e.g. BENCH_kernel.json)",
    )
    args = parser.parse_args()
    rows = run_comparison(repeats=args.repeats)
    print("propagator skips — repeated-measurement propagation")
    print(f"{'workload':<26} {'no-skip':>10} {'skip':>9} {'speedup':>8}")
    for row in rows:
        print(
            f"{row['workload']:<26} {row['no_skip_ms']:>8.0f}ms "
            f"{row['skip_ms']:>7.0f}ms {row['speedup']:>7.2f}x"
        )
    work = run_projection_counts()
    print(format_projection_counts(work))
    if args.json_out:
        payload = {
            "benchmark": "kernel",
            "repeats": args.repeats,
            "rows": rows,
            "projection_rows": work,
        }
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json_out}")


if __name__ == "__main__":  # pragma: no cover
    main()
