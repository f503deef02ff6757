"""Tests for the fuzzy propagation engine."""

import pytest

from repro.circuit import (
    Circuit,
    ConstraintNetwork,
    GROUND,
    Measurement,
    Resistor,
    VoltageSource,
    amplifier_cascade,
    diode_resistor_circuit,
)
from repro.core.propagation import FuzzyPropagator, PropagatorConfig
from repro.fuzzy import FuzzyInterval


def divider_network(tolerance=0.05):
    ckt = Circuit("div")
    ckt.add(VoltageSource("Vin", 10.0, p="top", n=GROUND))
    ckt.add(Resistor("Rt", 1e3, tolerance, a="top", b="mid"))
    ckt.add(Resistor("Rb", 1e3, tolerance, a="mid", b=GROUND))
    return ConstraintNetwork(ckt)


class TestSeeding:
    def test_ground_is_premise(self):
        p = FuzzyPropagator(divider_network())
        (entry,) = p.values("V(0)")
        assert entry.source == "premise"
        assert entry.interval.is_crisp_number

    def test_other_variables_start_at_seed(self):
        p = FuzzyPropagator(divider_network())
        (entry,) = p.values("V(mid)")
        assert entry.is_seed
        assert entry.interval.support == (-60.0, 60.0)

    def test_reset_restores_seeds(self):
        p = FuzzyPropagator(divider_network())
        p.set_value("V(mid)", FuzzyInterval.crisp(5.0))
        p.run()
        p.reset()
        assert len(p.values("V(mid)")) == 1

    def test_unknown_variable_rejected(self):
        p = FuzzyPropagator(divider_network())
        with pytest.raises(KeyError):
            p.set_value("V(nowhere)", FuzzyInterval.crisp(0.0))


class TestForwardPropagation:
    def test_source_pins_top_node(self):
        p = FuzzyPropagator(divider_network())
        p.run()
        best = p.best("V(top)")
        assert best.interval.core == (10.0, 10.0)
        assert best.environment == frozenset({"Vin"})

    def test_measured_value_drives_derivations(self):
        p = FuzzyPropagator(divider_network())
        p.set_value("V(mid)", FuzzyInterval.crisp(5.0))
        p.run()
        current = p.best("I(Rb)")
        assert current.interval.centroid == pytest.approx(5e-3, rel=0.1)
        assert "Rb" in current.environment

    def test_quiescence(self):
        p = FuzzyPropagator(divider_network())
        result = p.run()
        assert result.quiescent
        # Re-running without new information is an immediate no-op pass.
        again = p.run()
        assert again.quiescent

    def test_derived_values_sound_for_healthy_circuit(self):
        """Every derived entry must contain the true operating point."""
        from repro.circuit import DCSolver
        from repro.core.predict import variable_values

        network = divider_network()
        truth = variable_values(
            network.circuit, DCSolver(network.circuit).solve()
        )
        p = FuzzyPropagator(network)
        p.run()
        for name, true_value in truth.items():
            for entry in p.values(name):
                lo, hi = entry.interval.support
                assert lo - 1e-6 <= true_value <= hi + 1e-6, (name, entry)

    def test_cascade_propagates_through_gains(self):
        network = ConstraintNetwork(amplifier_cascade())
        p = FuzzyPropagator(network)
        p.run()
        d = p.best("V(d)")
        assert d.interval.centroid == pytest.approx(9.0, rel=0.05)


class TestConflictDetection:
    def test_conflicting_measurement_reported(self):
        conflicts = []
        p = FuzzyPropagator(divider_network(), on_conflict=conflicts.append)
        p.set_value("V(mid)", FuzzyInterval.number(8.0, 0.01))
        p.run()
        assert conflicts
        strongest = max(conflicts, key=lambda c: c.degree)
        assert strongest.degree > 0.5
        assert strongest.environment  # blames components, not the data

    def test_consistent_measurement_quiet(self):
        conflicts = []
        p = FuzzyPropagator(divider_network(), on_conflict=conflicts.append)
        p.set_value("V(mid)", FuzzyInterval.number(5.0, 0.05))
        p.run()
        assert all(c.degree < 0.2 for c in conflicts)

    def test_conflicts_deduplicated(self):
        p = FuzzyPropagator(divider_network())
        p.set_value("V(mid)", FuzzyInterval.number(8.0, 0.01))
        p.run()
        keys = {
            (c.variable, c.environment, round(c.degree, 2), c.direction)
            for c in p.conflicts
        }
        assert len(keys) == len(p.conflicts)

    def test_figure5_conflict_degrees(self):
        network = ConstraintNetwork(
            diode_resistor_circuit(), nominal_modes={"d1": "on"}
        )
        conflicts = []
        p = FuzzyPropagator(network, on_conflict=conflicts.append)
        p.set_value("V(vin)", FuzzyInterval.crisp(3.25))
        p.set_value("V(n1)", FuzzyInterval.crisp(2.2))
        p.set_value("V(n2)", FuzzyInterval.crisp(2.0))
        p.run()
        by_env = {}
        for c in conflicts:
            key = frozenset(c.environment)
            by_env[key] = max(by_env.get(key, 0.0), c.degree)
        assert by_env.get(frozenset({"r1", "d1"})) == pytest.approx(0.5)
        assert by_env.get(frozenset({"r2", "d1"})) == pytest.approx(1.0)


class TestTermination:
    def test_step_cap_respected(self):
        config = PropagatorConfig(max_steps=5)
        p = FuzzyPropagator(divider_network(), config=config)
        result = p.run()
        assert result.steps <= 5

    def test_immutable_entries_never_merge(self):
        p = FuzzyPropagator(divider_network())
        p.set_value("V(mid)", FuzzyInterval.number(5.0, 0.02))
        p.run()
        measured = [v for v in p.values("V(mid)") if v.is_measurement]
        assert len(measured) == 1
        assert measured[0].interval.is_close(FuzzyInterval.number(5.0, 0.02))

    def test_identical_projection_skipped(self):
        p = FuzzyPropagator(divider_network())
        first = p.run().steps
        # Nothing changed: the queue drains with one visit per constraint.
        second = p.run().steps
        assert second <= len(p.network.constraints)
        assert first >= second

    def test_value_cap_enforced(self):
        config = PropagatorConfig(max_values_per_variable=3)
        p = FuzzyPropagator(divider_network(), config=config)
        p.set_value("V(mid)", FuzzyInterval.number(5.0, 0.02))
        p.run()
        for name in p.network.variables:
            mutable = [
                v
                for v in p.values(name)
                if v.source not in ("measurement", "premise", "prediction")
            ]
            assert len(mutable) <= 3


class TestSeedTaintProvenance:
    """Seed-descended widths are ignorance, not evidence (see values.py)."""

    def test_seed_flag_set_on_seeds(self):
        p = FuzzyPropagator(divider_network())
        (entry,) = p.values("V(mid)")
        assert entry.from_seed

    def test_projections_from_seeds_are_tainted(self):
        p = FuzzyPropagator(divider_network())
        p.run()
        # Some derived entries descend from seeds (e.g. currents computed
        # from the seeded mid-node voltage before measurements arrive).
        tainted = [
            v
            for name in p.network.variables
            for v in p.values(name)
            if v.from_seed and not v.is_seed
        ]
        assert tainted

    def test_measurement_chains_are_untainted(self):
        p = FuzzyPropagator(divider_network())
        p.set_value("V(mid)", FuzzyInterval.crisp(5.0))
        p.run()
        currents = [v for v in p.values("I(Rb)") if not v.is_seed]
        assert any(not v.from_seed for v in currents)

    def test_tainted_values_never_conflict(self):
        conflicts = []
        p = FuzzyPropagator(divider_network(), on_conflict=conflicts.append)
        p.set_value("V(mid)", FuzzyInterval.number(8.0, 0.01))
        p.run()
        for conflict in conflicts:
            assert not conflict.newer.from_seed
            assert not conflict.older.from_seed

    def test_intersection_with_untainted_clears_taint(self):
        from repro.core.values import FuzzyValue

        tainted = FuzzyValue(
            FuzzyInterval(0.0, 10.0), frozenset({"a"}), 1.0, "c", from_seed=True
        )
        clean = FuzzyValue(
            FuzzyInterval(4.0, 6.0), frozenset({"a"}), 1.0, "c", from_seed=False
        )
        # The merge rule: from_seed = existing.from_seed and new.from_seed.
        assert (tainted.from_seed and clean.from_seed) is False


def _amplifier_readings(fault):
    """A three-stage amplifier network and a faulty board's readings."""
    from repro.circuit import DCSolver, Fault, FaultKind, apply_fault, three_stage_amplifier
    from repro.circuit.measurements import probe

    golden = three_stage_amplifier()
    op = DCSolver(apply_fault(golden, Fault(FaultKind.SHORT, fault))).solve()
    readings = {net: probe(op, net, 0.02) for net in ("vs", "v1", "v2", "n1", "n2")}
    return ConstraintNetwork(golden), readings


def _observed(p, result):
    """Everything a caller can see: stored values, conflicts, steps."""
    values = {name: p.values(name) for name in p.network.variables}
    return values, p.conflicts, result.steps, result.quiescent


class TestMemoInvalidation:
    """The repeat-combo and input-pool memos are only valid against the
    stores they were built on: ``restore`` and ``reset`` must drop them,
    and a restored or reset propagator must match a fresh replay."""

    @staticmethod
    def _amplifier_case():
        network, readings = _amplifier_readings("R2")
        return network, [readings["v1"]], [readings["v2"]]

    @staticmethod
    def _diode_case():
        # Both readings reverse-bias d1, so each run newly activates the
        # guarded leak bound: after the restore it must fire again.
        network = ConstraintNetwork(diode_resistor_circuit(), nominal_modes={"d1": "on"})
        first = [
            Measurement("V(n1)", FuzzyInterval.number(1.0, 0.01)),
            Measurement("V(n2)", FuzzyInterval.number(2.0, 0.01)),
        ]
        second = [
            Measurement("V(n1)", FuzzyInterval.number(1.1, 0.01)),
            Measurement("V(n2)", FuzzyInterval.number(2.0, 0.01)),
        ]
        return network, first, second

    @pytest.mark.parametrize("case", ["_amplifier_case", "_diode_case"])
    def test_restore_matches_fresh_replay(self, case):
        network, first, second = getattr(self, case)()

        p = FuzzyPropagator(network)
        p.run()
        state = p.checkpoint()
        for m in first:
            p.set_value(m.point, m.value)
        p.run()
        p.restore(state)
        for m in second:
            p.set_value(m.point, m.value)
        resumed = _observed(p, p.run())

        fresh = FuzzyPropagator(network)
        fresh.run()
        for m in second:
            fresh.set_value(m.point, m.value)
        assert resumed == _observed(fresh, fresh.run())

    def test_checkpoint_survives_reset(self):
        network, readings = _amplifier_readings("R5")
        probes = [readings[net] for net in ("vs", "n1", "n2")]

        p = FuzzyPropagator(network)
        p.set_value(probes[0].point, probes[0].value)
        p.run()
        state = p.checkpoint()
        p.reset()
        p.restore(state)
        for m in probes[1:]:
            p.set_value(m.point, m.value)
        resumed = _observed(p, p.run())

        fresh = FuzzyPropagator(network)
        fresh.set_value(probes[0].point, probes[0].value)
        fresh.run()
        for m in probes[1:]:
            fresh.set_value(m.point, m.value)
        assert resumed == _observed(fresh, fresh.run())
        # The counter outlives reset(): restored and new values never
        # share a serial, so no stale combo can alias a new one.
        serials = [v.serial for name in network.variables for v in p.values(name)]
        assert len(set(serials)) == len(serials)

    def test_reset_matches_fresh_run(self):
        network, readings = _amplifier_readings("R2")
        p = FuzzyPropagator(network)
        p.set_value(readings["v1"].point, readings["v1"].value)
        p.run()
        p.reset()
        p.set_value(readings["n2"].point, readings["n2"].value)
        again = _observed(p, p.run())

        fresh = FuzzyPropagator(network)
        fresh.set_value(readings["n2"].point, readings["n2"].value)
        assert again == _observed(fresh, fresh.run())

    def test_serial_ignored_by_equality_hash_and_repr(self):
        from repro.core.values import FuzzyValue

        a = FuzzyValue(FuzzyInterval(1.0, 2.0), frozenset({"R1"}), 1.0, "c", serial=3)
        b = FuzzyValue(FuzzyInterval(1.0, 2.0), frozenset({"R1"}), 1.0, "c", serial=9)
        assert a == b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert "serial" not in repr(FuzzyValue(FuzzyInterval(1.0, 2.0), serial=5))

    def test_every_stored_value_has_a_unique_serial(self):
        network, readings = _amplifier_readings("R2")
        p = FuzzyPropagator(network)
        p.set_value(readings["v1"].point, readings["v1"].value)
        p.run()
        serials = [v.serial for name in network.variables for v in p.values(name)]
        assert 0 not in serials
        assert len(set(serials)) == len(serials)
