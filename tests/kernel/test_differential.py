"""Differential harness: the change-tick skip must be a no-op.

Every scenario (library circuit x fault mode) runs through the engine
and through the no-skip oracle (:mod:`tests.kernel.oracle`), and the
*entire* diagnosis — ranked candidates, suspicion degrees, weighted
nogoods, consistencies, propagation step counts — must agree to 1e-9.
A second battery drives a persistent propagator with measurements added
one at a time, the workload the skip pays off on, and checks the
incremental fixpoint against the oracle after every single run.  A third
runs the streaming engine's checkpoint/restore chain against the oracle.
"""

import math

import pytest

from repro.circuit.faults import Fault, FaultKind, apply_fault
from repro.circuit.generators import resistor_ladder
from repro.circuit.library import (
    amplifier_cascade,
    diode_resistor_circuit,
    three_stage_amplifier,
)
from repro.circuit.measurements import Measurement, probe, probe_all
from repro.circuit.constraints import ConstraintNetwork
from repro.circuit.simulate import DCSolver
from repro.core.diagnosis import Flames
from repro.core.predict import predict_nominal
from repro.core.propagation import FuzzyPropagator
from repro.fuzzy import FuzzyInterval
from repro.runtime import RunContext
from repro.stream.incremental import IncrementalDiagnosisEngine
from tests.kernel.oracle import NoSkipPropagator, OracleFlames

TOL = 1e-9

SCENARIOS = [
    ("cascade-healthy", amplifier_cascade, None, ["a", "b", "c", "d"]),
    (
        "cascade-gain-drift",
        amplifier_cascade,
        Fault(FaultKind.PARAM, "amp2", "gain", 0.2),
        ["a", "b", "c", "d"],
    ),
    (
        "diode-short-r1",
        diode_resistor_circuit,
        Fault(FaultKind.SHORT, "r1"),
        ["vin", "n1", "n2"],
    ),
    (
        "diode-open-d1",
        diode_resistor_circuit,
        Fault(FaultKind.OPEN, "d1"),
        ["vin", "n1", "n2"],
    ),
    (
        "amp-short-r2",
        three_stage_amplifier,
        Fault(FaultKind.SHORT, "R2"),
        ["vs", "v1", "v2", "n1", "n2"],
    ),
    (
        "amp-open-r5",
        three_stage_amplifier,
        Fault(FaultKind.OPEN, "R5"),
        ["vs", "v1", "v2", "n1", "n2"],
    ),
]


def _diagnose(maker, fault, nets, engine_cls):
    golden = maker()
    faulty = apply_fault(golden, fault) if fault else golden
    op = DCSolver(faulty).solve()
    measurements = probe_all(op, nets, imprecision=0.02)
    return engine_cls(golden).diagnose(measurements)


def _nogood_key(ng):
    return (tuple(sorted(a.datum for a in ng.environment)), ng.degree)


@pytest.mark.parametrize(
    "maker,fault,nets", [s[1:] for s in SCENARIOS], ids=[s[0] for s in SCENARIOS]
)
class TestDiagnosisDifferential:
    def test_identical_diagnosis(self, maker, fault, nets):
        ref = _diagnose(maker, fault, nets, OracleFlames)
        fast = _diagnose(maker, fault, nets, Flames)

        assert ref.is_consistent == fast.is_consistent

        ranked_ref = ref.ranked_components()
        ranked_fast = fast.ranked_components()
        assert [c for c, _ in ranked_ref] == [c for c, _ in ranked_fast]
        for (_, dr), (_, df) in zip(ranked_ref, ranked_fast):
            assert math.isclose(dr, df, rel_tol=0, abs_tol=TOL)

        ng_ref = sorted(map(_nogood_key, ref.nogoods))
        ng_fast = sorted(map(_nogood_key, fast.nogoods))
        assert [k[0] for k in ng_ref] == [k[0] for k in ng_fast]
        for (_, dr), (_, df) in zip(ng_ref, ng_fast):
            assert math.isclose(dr, df, rel_tol=0, abs_tol=TOL)

        diag_ref = [(tuple(sorted(d.components)), d.degree) for d in ref.diagnoses]
        diag_fast = [(tuple(sorted(d.components)), d.degree) for d in fast.diagnoses]
        assert [k for k, _ in diag_ref] == [k for k, _ in diag_fast]
        for (_, dr), (_, df) in zip(diag_ref, diag_fast):
            assert math.isclose(dr, df, rel_tol=0, abs_tol=TOL)

        assert set(ref.consistencies) == set(fast.consistencies)
        for point in ref.consistencies:
            assert math.isclose(
                ref.consistencies[point].signed,
                fast.consistencies[point].signed,
                rel_tol=0,
                abs_tol=TOL,
            )

    def test_identical_propagation_trace(self, maker, fault, nets):
        """The skip drops provable no-ops but never reorders work, so
        even the step count and conflict log must match exactly."""
        ref = _diagnose(maker, fault, nets, OracleFlames)
        fast = _diagnose(maker, fault, nets, Flames)
        assert ref.propagation.steps == fast.propagation.steps
        assert ref.propagation.quiescent == fast.propagation.quiescent
        assert len(ref.conflicts) == len(fast.conflicts)
        for cr, cf in zip(ref.conflicts, fast.conflicts):
            assert cr.variable == cf.variable
            assert cr.environment == cf.environment
            assert cr.direction == cf.direction
            assert math.isclose(cr.degree, cf.degree, rel_tol=0, abs_tol=TOL)


def _incremental_states(circuit, faulty, nets, propagator_cls):
    """Drive one persistent propagator, snapshotting after every run."""
    op = DCSolver(faulty).solve()
    network = ConstraintNetwork(circuit, False)
    prop = propagator_cls(network)
    for name, pred in predict_nominal(circuit).items():
        if name in network.variables:
            prop.set_value(name, pred.value, pred.support, source="prediction")
    snapshots = []

    def snap():
        conflicts = sorted(
            (c.variable, c.environment, round(c.degree, 9), c.direction)
            for c in prop.conflicts
        )
        estimates = {
            n: (iv.as_tuple() if iv is not None else None)
            for n, iv in prop.estimates().items()
        }
        snapshots.append((conflicts, estimates))

    prop.run()
    snap()
    for net in nets:
        m = probe(op, net, 0.02)
        prop.set_value(m.point, m.value)
        prop.run()
        snap()
    return snapshots


def _assert_same_partial(ref, fast):
    """Engine and oracle (possibly partial) results must agree exactly."""
    assert ref.propagation.steps == fast.propagation.steps
    assert ref.propagation.quiescent == fast.propagation.quiescent
    assert ref.propagation.interrupted == fast.propagation.interrupted
    ranked_ref = ref.ranked_components()
    ranked_fast = fast.ranked_components()
    assert [c for c, _ in ranked_ref] == [c for c, _ in ranked_fast]
    for (_, dr), (_, df) in zip(ranked_ref, ranked_fast):
        assert math.isclose(dr, df, rel_tol=0, abs_tol=TOL)
    assert sorted(map(_nogood_key, ref.nogoods)) == sorted(map(_nogood_key, fast.nogoods))
    diag_ref = [(tuple(sorted(d.components)), d.degree) for d in ref.diagnoses]
    diag_fast = [(tuple(sorted(d.components)), d.degree) for d in fast.diagnoses]
    assert diag_ref == diag_fast
    assert len(ref.conflicts) == len(fast.conflicts)
    for cr, cf in zip(ref.conflicts, fast.conflicts):
        assert cr.variable == cf.variable
        assert cr.environment == cf.environment


class TestInterruptionDifferential:
    """Expiring mid-propagation must leave *identical partial semantics*
    with and without the skip.

    Budgets are charged once per work-list pop and both propagators
    process the identical work list (pinned by the step-count assertions
    above), so a step budget — or a deterministic fake clock advanced
    per check — cuts both runs at exactly the same pop.  The partial result must
    still be well-formed: ranked, classified, serialisable, flagged.
    """

    def _ladder_scenario(self):
        maker = lambda: resistor_ladder(16)
        fault = Fault(FaultKind.OPEN, "Rp3")
        faulty = apply_fault(maker(), fault)
        op = DCSolver(faulty).solve()
        nets = [n for n in sorted(op.voltages) if n != "0"][:8]
        measurements = probe_all(op, nets, imprecision=0.02)
        return maker, measurements

    def _run(self, maker, measurements, engine_cls, ctx):
        return engine_cls(maker()).diagnose(measurements, ctx=ctx)

    def test_step_budget_interrupts_both_kernels_identically(self):
        maker, measurements = self._ladder_scenario()
        full = self._run(maker, measurements, OracleFlames, None)
        assert full.propagation.quiescent and not full.interrupted
        budget = full.propagation.steps // 2
        assert budget > 0, "scenario too small to interrupt mid-propagation"

        results = {}
        for engine_cls in (OracleFlames, Flames):
            ctx = RunContext(step_budget=budget)
            result = self._run(maker, measurements, engine_cls, ctx)
            assert result.interrupted
            assert ctx.stop_reason == "step-budget"
            assert result.propagation.interrupted
            assert not result.propagation.quiescent
            results[engine_cls] = result
        ref, fast = results[OracleFlames], results[Flames]
        # The budget is charged *before* each pop, so exactly budget-1
        # pops execute — deterministically, with or without the skip.
        assert ref.propagation.steps == budget - 1
        _assert_same_partial(ref, fast)
        # Partial really is partial: fewer steps than the full run.
        assert ref.propagation.steps < full.propagation.steps

    def test_fake_clock_deadline_interrupts_both_kernels_identically(self):
        maker, measurements = self._ladder_scenario()

        def make_clock():
            now = [0.0]

            def clock():
                now[0] += 0.001  # every check advances one millisecond
                return now[0]

            return clock

        results = {}
        for engine_cls in (OracleFlames, Flames):
            ctx = RunContext.with_timeout(0.05, clock=make_clock())
            result = self._run(maker, measurements, engine_cls, ctx)
            assert result.interrupted
            assert ctx.stop_reason == "deadline"
            results[engine_cls] = result
        _assert_same_partial(results[OracleFlames], results[Flames])


class TestIncrementalDifferential:
    """One measurement at a time against a persistent propagator —
    the incremental path must track the oracle at every step."""

    @pytest.mark.parametrize(
        "maker,fault",
        [
            (three_stage_amplifier, Fault(FaultKind.SHORT, "R2")),
            (lambda: resistor_ladder(12), Fault(FaultKind.OPEN, "Rp3")),
        ],
        ids=["amp-short-r2", "ladder12-open-r3"],
    )
    def test_stepwise_equivalence(self, maker, fault):
        golden = maker()
        faulty = apply_fault(golden, fault)
        op = DCSolver(faulty).solve()
        nets = [n for n in sorted(op.voltages) if n != "0"][:6]
        ref = _incremental_states(golden, faulty, nets, NoSkipPropagator)
        fast = _incremental_states(golden, faulty, nets, FuzzyPropagator)
        assert len(ref) == len(fast)
        for i, (r, f) in enumerate(zip(ref, fast)):
            assert r[0] == f[0], f"conflict log diverged after run {i}"
            assert r[1] == f[1], f"estimates diverged after run {i}"


    def test_guard_environment_change_matches_oracle(self):
        """Reverse-biasing d1 re-fires its guarded leak bound with the
        same (empty) input combination under a new activation
        environment; the repeat-combo skip must not mistake the second
        firing for the first."""
        network = ConstraintNetwork(diode_resistor_circuit(), nominal_modes={"d1": "on"})
        fast, ref = FuzzyPropagator(network), NoSkipPropagator(network)
        readings = [
            ("V(n1)", FuzzyInterval.number(1.0, 0.01)),
            ("V(n2)", FuzzyInterval.number(2.0, 0.01)),
            ("V(vin)", FuzzyInterval.crisp(3.25)),
        ]
        assert fast.run().steps == ref.run().steps
        for point, value in readings:
            fast.set_value(point, value)
            ref.set_value(point, value)
            assert fast.run().steps == ref.run().steps
            assert fast.conflicts == ref.conflicts, f"conflicts diverged after {point}"
            for name in network.variables:
                assert fast.values(name) == ref.values(name), (point, name)


class TestStreamDifferential:
    """The streaming engine restores chain checkpoints — firing stamps
    included — and runs only the dirty suffix.  Its answer must equal the
    no-skip oracle replaying the same snapshot in the same order."""

    def test_restored_chain_matches_oracle_replay(self):
        golden = resistor_ladder(8)
        nets = [f"n{i}" for i in range(1, 9)]
        healthy = probe_all(DCSolver(golden).solve(), nets, imprecision=0.05)
        faulty_op = DCSolver(apply_fault(golden, Fault(FaultKind.SHORT, "Rp4"))).solve()
        drifted = {m.point: m for m in probe_all(faulty_op, nets, imprecision=0.05)}

        warm = IncrementalDiagnosisEngine(Flames(golden))
        warm.diagnose(healthy)
        snapshots = []
        for point, scale in (("V(n4)", 1.0), ("V(n4)", 1.01), ("V(n6)", 1.0)):
            volts = drifted[point].value.centroid * scale
            base = snapshots[-1] if snapshots else healthy
            snapshots.append([
                Measurement(m.point, FuzzyInterval.number(volts, 0.05))
                if m.point == point else m
                for m in base
            ])
        for snapshot in snapshots:
            result = warm.diagnose(snapshot)
            assert warm.last_stats.reused_prefix > 0, "the chain must restore a prefix"

            oracle = IncrementalDiagnosisEngine(OracleFlames(golden))
            by_point = {m.point: m for m in snapshot}
            replay = oracle.diagnose([by_point[p] for p in warm.order])

            assert not result.is_consistent
            assert result.ranked_components() == replay.ranked_components()
            assert sorted(map(_nogood_key, result.nogoods)) == sorted(
                map(_nogood_key, replay.nogoods)
            )
            assert [d.components for d in result.diagnoses] == [
                d.components for d in replay.diagnoses
            ]
