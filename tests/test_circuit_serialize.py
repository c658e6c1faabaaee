"""Circuit artifact serialization: round-trips, rejection, accounting.

The batch engine ships circuits compiled in worker processes back to the
parent as versioned binary payloads, so the codec must preserve every
question a circuit answers — bit for bit — and must reject anything it
cannot trust (wrong version, corruption, wrong instance).
"""

from __future__ import annotations

import random

import pytest

from repro.compile.backend import (
    CompletionCircuit,
    ValuationCircuit,
    artifact_from_bytes,
)
from repro.compile.serialize import (
    CircuitFormatError,
    FORMAT_VERSION,
    Reader,
    Writer,
    dumps_circuit,
    frame,
    loads_circuit,
    unframe,
)
from repro.core.query import Atom, BCQ
from repro.workloads.generators import (
    random_incomplete_db,
    scaling_hard_comp_instance,
    scaling_hard_val_instance,
)


def _weights_for(db, salt=0):
    return {
        null: {
            value: 1 + (index + position + salt) % 4
            for position, value in enumerate(
                sorted(db.domain_of(null), key=repr)
            )
        }
        for index, null in enumerate(db.nulls)
    }


class TestVarints:
    def test_uint_roundtrip_includes_bigints(self):
        writer = Writer()
        values = [0, 1, 127, 128, 300, 2**31, 2**64 + 17, 3**200]
        for value in values:
            writer.uint(value)
        reader = Reader(writer.getvalue())
        assert [reader.uint() for _ in values] == values
        reader.expect_end()

    def test_signed_roundtrip(self):
        writer = Writer()
        values = [0, -1, 1, -2, 2, 12345, -12345, -(2**70), 2**70]
        for value in values:
            writer.int(value)
        reader = Reader(writer.getvalue())
        assert [reader.int() for _ in values] == values

    def test_truncated_varint_rejected(self):
        with pytest.raises(CircuitFormatError, match="truncated"):
            Reader(b"\xff").uint()

    def test_trailing_bytes_rejected(self):
        reader = Reader(b"\x01\x02")
        reader.uint()
        with pytest.raises(CircuitFormatError, match="trailing"):
            reader.expect_end()


class TestFraming:
    def test_bad_magic(self):
        payload = frame(b"GOOD", b"body")
        with pytest.raises(CircuitFormatError, match="magic"):
            unframe(payload, b"EVIL")

    def test_version_mismatch_rejected(self):
        payload = frame(b"GOOD", b"body", version=FORMAT_VERSION + 1)
        with pytest.raises(CircuitFormatError, match="version"):
            unframe(payload, b"GOOD")

    def test_corrupted_body_rejected(self):
        payload = bytearray(frame(b"GOOD", b"body-bytes"))
        payload[-1] ^= 0xFF
        with pytest.raises(CircuitFormatError, match="checksum"):
            unframe(bytes(payload), b"GOOD")

    def test_short_payload_rejected(self):
        with pytest.raises(CircuitFormatError, match="shorter"):
            unframe(b"GO", b"GOOD")


class TestDDNNFRoundtrip:
    def _circuits(self):
        for size in (6, 8, 10):
            db, query = scaling_hard_val_instance(size, seed=size)
            yield ValuationCircuit(db, query).circuit

    def test_counts_and_structure_preserved(self):
        for circuit in self._circuits():
            data = circuit.to_bytes()
            restored = type(circuit).from_bytes(data)
            assert restored.count() == circuit.count()
            assert restored.num_nodes == circuit.num_nodes
            assert restored.num_edges == circuit.num_edges
            assert restored.countable == circuit.countable
            assert restored.root == circuit.root
            assert restored.num_variables == circuit.num_variables
            # A second serialization of the restored circuit is identical.
            assert restored.to_bytes() == data

    def test_evaluate_and_literal_counts_preserved(self):
        rng = random.Random(5)
        for circuit in self._circuits():
            restored = type(circuit).from_bytes(circuit.to_bytes())
            weights = {
                variable: (rng.randrange(4), rng.randrange(1, 4))
                for variable in sorted(circuit.countable)
            }
            assert restored.evaluate(weights) == circuit.evaluate(weights)
            assert restored.literal_counts(weights) == circuit.literal_counts(
                weights
            )

    def test_sampler_determinism(self):
        for circuit in self._circuits():
            restored = type(circuit).from_bytes(circuit.to_bytes())
            original = circuit.sampler()
            rehydrated = restored.sampler()
            assert rehydrated.total == original.total
            for seed in range(5):
                assert rehydrated.sample(
                    random.Random(seed)
                ) == original.sample(random.Random(seed))

    def test_tampered_node_table_rejected(self):
        circuit = next(iter(self._circuits()))
        data = bytearray(circuit.to_bytes())
        data[20] ^= 0x55  # body byte: crc must catch it
        with pytest.raises(CircuitFormatError):
            loads_circuit(bytes(data))

    def test_zero_delta_in_countable_list_rejected(self):
        # A CRC-valid payload whose countable list starts at variable 0
        # (first delta 0) must be rejected by structural validation.
        from repro.compile.serialize import CIRCUIT_MAGIC

        writer = Writer()
        writer.uint(2)  # num_variables
        writer.uint(1)  # root -> the TRUE constant
        writer.uint(2)  # two countable entries...
        writer.uint(0)  # ...the first with delta 0 (variable 0)
        writer.uint(1)
        writer.uint(2)  # node table: FALSE, TRUE
        writer.uint(0)
        writer.uint(1)
        with pytest.raises(CircuitFormatError, match="ascending"):
            loads_circuit(frame(CIRCUIT_MAGIC, writer.getvalue()))

    def test_version_bump_rejected_before_body(self):
        circuit = next(iter(self._circuits()))
        data = bytearray(circuit.to_bytes())
        data[4] = 0x63  # version field of the frame header
        with pytest.raises(CircuitFormatError, match="version 99"):
            loads_circuit(bytes(data))


class TestValuationCircuitRoundtrip:
    def _instances(self):
        for size in (8, 10, 12):
            yield scaling_hard_val_instance(size, seed=size + 1)
        query = BCQ([Atom("R", ["x", "y"]), Atom("S", ["y"])])
        for seed in range(4):
            db = random_incomplete_db(
                {"R": 2, "S": 1}, seed=seed, num_nulls=4, domain_size=3
            )
            yield db, query

    def test_every_question_preserved(self):
        for db, query in self._instances():
            compiled = ValuationCircuit(db, query)
            restored = ValuationCircuit.from_bytes(compiled.to_bytes(), db)
            weights = _weights_for(db)
            assert restored.count() == compiled.count()
            assert restored.total_valuations == compiled.total_valuations
            assert restored.weighted_count() == compiled.weighted_count()
            assert restored.weighted_count(weights) == compiled.weighted_count(
                weights
            )
            if compiled.count():
                assert restored.marginals(weights) == compiled.marginals(
                    weights
                )
                for seed in range(3):
                    assert restored.sample_valuation(
                        seed=seed, weights=weights
                    ) == compiled.sample_valuation(seed=seed, weights=weights)

    def test_statistics_preserved(self):
        db, query = scaling_hard_val_instance(9, seed=3)
        compiled = ValuationCircuit(db, query)
        restored = ValuationCircuit.from_bytes(compiled.to_bytes(), db)
        assert restored.num_matches == compiled.num_matches
        assert restored.num_clauses == compiled.num_clauses
        assert restored.heuristic_width == compiled.heuristic_width
        assert restored.cache_entries == compiled.cache_entries
        assert restored.components_split == compiled.components_split

    def test_accounting_symmetric(self):
        db, query = scaling_hard_val_instance(9, seed=3)
        compiled = ValuationCircuit(db, query)
        data = compiled.to_bytes()
        restored = ValuationCircuit.from_bytes(data, db)
        # Resident accounting is identical for a local compile and its
        # rehydrated twin (the wire form is compact, the object is not).
        assert restored.memory_bytes() == compiled.memory_bytes()
        assert restored.memory_bytes() >= len(data)

    def test_wrong_database_rejected(self):
        db, query = scaling_hard_val_instance(8, seed=1)
        other_db, _ = scaling_hard_val_instance(9, seed=2)
        data = ValuationCircuit(db, query).to_bytes()
        with pytest.raises(CircuitFormatError):
            ValuationCircuit.from_bytes(data, other_db)


class TestCompletionCircuitRoundtrip:
    def test_every_question_preserved(self):
        for size in (5, 6, 7):
            db, query = scaling_hard_comp_instance(size, seed=size)
            compiled = CompletionCircuit(db, query)
            restored = CompletionCircuit.from_bytes(compiled.to_bytes(), db)
            assert restored.count() == compiled.count()
            if compiled.count():
                assert restored.fact_marginals() == compiled.fact_marginals()
                for seed in range(3):
                    assert restored.sample_completion(
                        seed=seed
                    ) == compiled.sample_completion(seed=seed)

    def test_no_query_instance(self):
        db, _query = scaling_hard_comp_instance(5, seed=9)
        compiled = CompletionCircuit(db, None)
        restored = CompletionCircuit.from_bytes(compiled.to_bytes(), db)
        assert restored.count() == compiled.count()

    def test_wrong_database_rejected(self):
        db, query = scaling_hard_comp_instance(5, seed=1)
        other_db, _ = scaling_hard_comp_instance(6, seed=2)
        data = CompletionCircuit(db, query).to_bytes()
        with pytest.raises(CircuitFormatError):
            CompletionCircuit.from_bytes(data, other_db)


class TestArtifactDispatch:
    def test_dispatch_on_magic(self):
        db, query = scaling_hard_val_instance(8, seed=4)
        valuation = ValuationCircuit(db, query)
        assert isinstance(
            artifact_from_bytes(valuation.to_bytes(), db), ValuationCircuit
        )
        cdb, cquery = scaling_hard_comp_instance(5, seed=4)
        completion = CompletionCircuit(cdb, cquery)
        assert isinstance(
            artifact_from_bytes(completion.to_bytes(), cdb), CompletionCircuit
        )

    def test_garbage_rejected(self):
        db, _ = scaling_hard_val_instance(8, seed=4)
        with pytest.raises(CircuitFormatError, match="magic"):
            artifact_from_bytes(b"JUNKJUNKJUNKJUNK", db)

    def test_both_kinds_round_trip_byte_for_byte(self):
        db, query = scaling_hard_val_instance(8, seed=1)
        cdb, cquery = scaling_hard_comp_instance(6, seed=2)
        for kind, instance, q in (
            (ValuationCircuit, db, query),
            (CompletionCircuit, cdb, cquery),
            (CompletionCircuit, cdb, None),
        ):
            compiled = kind(instance, q)
            data = compiled.to_bytes()
            restored = artifact_from_bytes(data, instance)
            assert type(restored) is kind
            assert restored.count() == compiled.count()
            assert restored.to_bytes() == data

    def test_conditioned_artifact_refuses_to_serialize(self):
        # Conditioning keeps the parent's variable universe; rehydration
        # rebuilds the child's own, so no instance would accept the
        # payload.  to_bytes fails at the source instead.
        from repro.db.deltas import ResolveNull, RestrictDomain

        db, query = scaling_hard_val_instance(8, seed=1)
        null = db.nulls[0]
        domain = sorted(db.domain_of(null))
        parent = ValuationCircuit(db, query)
        for delta in (
            ResolveNull(null, domain[0]),
            RestrictDomain(null, frozenset(domain[:2])),
        ):
            with pytest.raises(ValueError, match="conditioned artifact"):
                parent.condition(delta).to_bytes()

    def test_bare_circuit_payload_is_not_a_wrapper(self):
        db, query = scaling_hard_val_instance(8, seed=4)
        bare = dumps_circuit(ValuationCircuit(db, query).circuit)
        with pytest.raises(CircuitFormatError):
            artifact_from_bytes(bare, db)
