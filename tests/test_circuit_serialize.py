"""Circuit artifact serialization: round trips, refusals, accounting.

No engine path ships a circuit, but an artifact can still be written to
bytes and rebuilt from them, so the codec must preserve every question an
artifact answers — bit for bit — and must refuse anything it cannot trust
(another version, corruption, a malformed program, another instance)
with :class:`CircuitFormatError`, checking the instance before it builds
a circuit.
"""

from __future__ import annotations

import random
import zlib
from collections import Counter

import pytest

from repro.compile import circuit as circuit_module
from repro.compile.backend import (
    CompletionCircuit,
    ValuationCircuit,
    artifact_from_bytes,
)
from repro.compile.circuit import (
    KIND_DECISION,
    KIND_FALSE,
    KIND_PRODUCT,
    KIND_TRUE,
)
from repro.compile.serialize import (
    CircuitFormatError,
    FORMAT_VERSION,
    frame,
    loads,
    unframe,
)
from repro.core.query import Atom, BCQ
from repro.db.fact import Fact
from repro.db.incomplete import IncompleteDatabase
from repro.db.terms import Null
from repro.workloads.generators import (
    random_incomplete_db,
    scaling_hard_comp_instance,
    scaling_hard_val_instance,
)
from tests.circuit_oracles import program_digest


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


def _rechecksum(payload: bytes) -> bytes:
    """``payload`` with its frame's crc32 recomputed over its body."""
    body = payload[10:]
    return payload[:6] + zlib.crc32(body).to_bytes(4, "little") + body


def _decoded(artifact):
    """The :class:`~repro.compile.serialize.Payload` of ``artifact``."""
    kind = type(artifact)
    return loads(artifact.to_bytes(), kind.magic, len(kind.header) + 5)


def _encoded(kind, payload) -> bytes:
    """A payload's bytes, laid out as the codec lays them out."""
    return frame(kind.magic, [
        *payload.header, payload.num_variables, payload.root,
        len(payload.countable), *payload.countable,
        len(payload.code), *payload.code,
    ])


class TestFrame:
    def test_ints_round_trip_includes_bigints(self):
        values = [
            0, 1, -1, 63, 64, -64, -65, 127, 128, 300, 2**31, 2**64 + 17,
            -(2**70), 2**70, 3**200,
        ]
        assert unframe(frame(b"GOOD", values), b"GOOD") == values

    def test_truncated_varint_rejected(self):
        payload = _rechecksum(frame(b"GOOD", [300])[:-1])
        with pytest.raises(CircuitFormatError, match="truncated"):
            unframe(payload, b"GOOD")

    def test_bad_magic(self):
        payload = frame(b"GOOD", [1, 2])
        with pytest.raises(CircuitFormatError, match="magic"):
            unframe(payload, b"EVIL")

    def test_version_mismatch_rejected(self):
        for version in (1, FORMAT_VERSION + 1):
            payload = bytearray(frame(b"GOOD", [1, 2]))
            payload[4:6] = version.to_bytes(2, "little")
            with pytest.raises(CircuitFormatError, match="version %d" % version):
                unframe(bytes(payload), b"GOOD")

    def test_corrupted_body_rejected(self):
        payload = bytearray(frame(b"GOOD", [1, 2, 3]))
        payload[-1] ^= 0x7F
        with pytest.raises(CircuitFormatError, match="checksum"):
            unframe(bytes(payload), b"GOOD")

    def test_short_payload_rejected(self):
        with pytest.raises(CircuitFormatError, match="shorter"):
            unframe(b"GO", b"GOOD")


class TestDDNNFRoundtrip:
    """Each circuit through its artifact's round trip."""

    def _pairs(self):
        for size in (6, 8, 10):
            db, query = scaling_hard_val_instance(size, seed=size)
            compiled = ValuationCircuit(db, query)
            restored = ValuationCircuit.from_bytes(compiled.to_bytes(), db)
            yield compiled.circuit, restored.circuit

    def test_counts_and_structure_preserved(self):
        for circuit, restored in self._pairs():
            assert restored.count() == circuit.count()
            assert restored.num_nodes == circuit.num_nodes
            assert restored.num_edges == circuit.num_edges
            assert restored.countable == circuit.countable
            assert restored.root == circuit.root
            assert restored.num_variables == circuit.num_variables
            assert restored._program.code == circuit._program.code
            assert restored._program.offsets == circuit._program.offsets
            assert program_digest(restored) == program_digest(circuit)

    def test_evaluate_and_literal_counts_preserved(self):
        rng = random.Random(5)
        for circuit, restored in self._pairs():
            weights = {
                variable: (rng.randrange(4), rng.randrange(1, 4))
                for variable in sorted(circuit.countable)
            }
            assert restored.evaluate(weights) == circuit.evaluate(weights)
            assert restored.literal_counts(weights) == circuit.literal_counts(
                weights
            )

    def test_sampler_determinism(self):
        for circuit, restored in self._pairs():
            original = circuit.sampler()
            rehydrated = restored.sampler()
            assert rehydrated.total == original.total
            for seed in range(5):
                assert rehydrated.sample(
                    random.Random(seed)
                ) == original.sample(random.Random(seed))

    def test_tampered_node_table_rejected(self):
        db, query = scaling_hard_val_instance(6, seed=6)
        data = bytearray(ValuationCircuit(db, query).to_bytes())
        data[-3] ^= 0x55  # body byte: crc must catch it
        with pytest.raises(CircuitFormatError, match="checksum"):
            ValuationCircuit.from_bytes(bytes(data), db)

    def test_version_bump_rejected_before_body(self):
        db, query = scaling_hard_val_instance(6, seed=6)
        data = bytearray(ValuationCircuit(db, query).to_bytes())
        data[4] = 0x63  # version field of the frame header
        with pytest.raises(CircuitFormatError, match="version 99"):
            ValuationCircuit.from_bytes(bytes(data), db)


class TestRefusals:
    """Every refusal of a framed, checksummed payload that a mutation
    could reach: each raises :class:`CircuitFormatError`."""

    @pytest.fixture(scope="class")
    def case(self):
        db, query = scaling_hard_val_instance(6, seed=6)
        return db, _decoded(ValuationCircuit(db, query))

    def _refused(self, case, match, **fields):
        db, payload = case
        data = _encoded(ValuationCircuit, payload._replace(**fields))
        with pytest.raises(CircuitFormatError, match=match):
            ValuationCircuit.from_bytes(data, db)

    def test_the_hand_program_loads(self, case):
        # The tests below break hand programs like this one in one place.
        db, payload = case
        # Node 2 decides variable 1 and frees variable 2 in both branches.
        code = [KIND_FALSE, KIND_TRUE, KIND_DECISION, 2, 1, 1, 1, 2, 1, 1, -1, 1, 2, 1]
        restored = ValuationCircuit.from_bytes(
            _encoded(ValuationCircuit, payload._replace(code=code, root=2)), db
        )
        assert restored.circuit.num_nodes == 3
        assert restored.circuit.count() == 4

    def test_unknown_node_kind(self, case):
        self._refused(case, "unknown node kind", code=[0, 1, 7], root=1)

    def test_child_not_before_parent(self, case):
        for code in ([0, 1, KIND_PRODUCT, 1, 2], [0, 1, KIND_PRODUCT, 2, 1, 3]):
            self._refused(case, "does not come before", code=code, root=2)
        self._refused(
            case, "does not come before",
            code=[0, 1, KIND_DECISION, 1, 1, 1, 0, 2], root=2,
        )
        self._refused(
            case, "does not come before",
            code=[0, 1, KIND_PRODUCT, 1, -1], root=2,
        )

    def test_literal_zero_or_past_the_variables(self, case):
        n = case[1].num_variables
        for literal in (0, n + 1, -(n + 1)):
            self._refused(
                case, "literal outside",
                code=[0, 1, KIND_DECISION, 1, 1, literal, 0, 1], root=2,
            )

    def test_freed_variable_out_of_range(self, case):
        n = case[1].num_variables
        for variable in (0, -1, n + 1):
            self._refused(
                case, "freed variable outside",
                code=[0, 1, KIND_DECISION, 1, 0, 1, variable, 1], root=2,
            )

    def test_root_out_of_range(self, case):
        for root in (2, 10**9):
            self._refused(case, "root", code=[KIND_FALSE, KIND_TRUE], root=root)

    def test_negative_or_overlong_lengths(self, case):
        for code in (
            [0, 1, KIND_PRODUCT, -1],
            [0, 1, KIND_DECISION, -1],
            [0, 1, KIND_DECISION, 1, -2, 1, 0, 1],
            [0, 1, KIND_DECISION, 1, 1, 1, -1, 1],
            [0, 1, KIND_PRODUCT, 5, 1],
            [0, 1, KIND_DECISION, 2, 0, 0, 1],
        ):
            self._refused(case, "truncated|branches", code=code, root=2)

    def test_countable_list_not_strictly_ascending_from_1(self, case):
        n = case[1].num_variables
        for countable in ([0, 1], [1, 1], [2, 1], [1, n + 1], [-1]):
            self._refused(case, "ascending", countable=countable)

    def test_negative_header_field(self, case):
        header = list(case[1].header)
        header[0] = -1
        self._refused(case, "negative", header=header)
        self._refused(case, "negative", root=-1)

    def test_truncation(self, case):
        db, payload = case
        data = _encoded(ValuationCircuit, payload)
        for cut in (11, 14, 20, len(data) - 1):
            with pytest.raises(CircuitFormatError, match="truncated"):
                ValuationCircuit.from_bytes(_rechecksum(data[:cut]), db)

    def test_trailing_bytes(self, case):
        db, payload = case
        data = _rechecksum(_encoded(ValuationCircuit, payload) + b"\x00\x02")
        with pytest.raises(CircuitFormatError, match="2 trailing"):
            ValuationCircuit.from_bytes(data, db)

    def test_short_payload_and_bad_magic(self, case):
        db, payload = case
        with pytest.raises(CircuitFormatError, match="shorter"):
            ValuationCircuit.from_bytes(b"RVAL\x02\x00", db)
        data = _encoded(CompletionCircuit, payload)
        with pytest.raises(CircuitFormatError, match="magic"):
            ValuationCircuit.from_bytes(data, db)

    def test_version_1_payload(self, case):
        db, payload = case
        data = bytearray(_encoded(ValuationCircuit, payload))
        data[4:6] = (1).to_bytes(2, "little")
        with pytest.raises(CircuitFormatError, match="version 1 "):
            ValuationCircuit.from_bytes(bytes(data), db)


class TestInstanceCheckedFirst:
    """A payload is compared with its instance before any program is
    built, so a payload of another instance sizes no allocation."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        init = circuit_module._Program.__init__

        def spy(program, *args, **kwargs):
            calls.append(args)
            init(program, *args, **kwargs)

        monkeypatch.setattr(circuit_module._Program, "__init__", spy)
        return calls

    def _refused(self, kind, data, db, built, match="wrong instance|total"):
        with pytest.raises(CircuitFormatError, match=match):
            kind.from_bytes(data, db)
        assert built == []

    def test_valuation_payloads(self, built):
        db, query = scaling_hard_val_instance(6, seed=1)
        other, _ = scaling_hard_val_instance(7, seed=2)
        payload = _decoded(ValuationCircuit(db, query))
        built.clear()
        self._refused(ValuationCircuit, _encoded(ValuationCircuit, payload), other, built)
        # Few bytes declaring 2 * 10**8 variables: refused unallocated.
        huge = payload._replace(
            num_variables=2 * 10**8, countable=[], code=[0, 1], root=1,
        )
        self._refused(ValuationCircuit, _encoded(ValuationCircuit, huge), db, built)
        # A full count counts over every choice variable.
        self._refused(
            ValuationCircuit,
            _encoded(ValuationCircuit, payload._replace(countable=payload.countable[1:])),
            db, built,
        )
        header = list(payload.header)
        header[1] += 1  # the total valuation count
        self._refused(
            ValuationCircuit,
            _encoded(ValuationCircuit, payload._replace(header=header)),
            db, built,
        )
        ValuationCircuit.from_bytes(_encoded(ValuationCircuit, payload), db)
        assert len(built) == 1

    def test_completion_payloads(self, built):
        db, query = scaling_hard_comp_instance(5, seed=1)
        other, _ = scaling_hard_comp_instance(6, seed=2)
        payload = _decoded(CompletionCircuit(db, query))
        built.clear()
        self._refused(CompletionCircuit, _encoded(CompletionCircuit, payload), other, built)
        floor = payload.countable[-1]  # the choice-plus-fact count
        self._refused(
            CompletionCircuit,
            _encoded(CompletionCircuit, payload._replace(num_variables=floor - 1)),
            db, built, match="ascending",
        )
        self._refused(
            CompletionCircuit,
            _encoded(CompletionCircuit, payload._replace(
                countable=payload.countable[:-1])),
            db, built,
        )
        CompletionCircuit.from_bytes(_encoded(CompletionCircuit, payload), db)
        assert len(built) == 1


class TestFuzz:
    def test_mutated_payloads_are_refused_or_answer(self):
        """Overwritten, truncated and inserted bytes under a recomputed
        checksum: each payload is refused, or it loads and answers."""
        rng = random.Random(39)
        vdb, vquery = scaling_hard_val_instance(5, seed=1)
        cdb, cquery = scaling_hard_comp_instance(5, seed=1)
        completion = CompletionCircuit(cdb, cquery)
        cases = [
            (ValuationCircuit(vdb, vquery), vdb, _weights_for(vdb)),
            (completion, cdb, {
                fact: 2 + index
                for index, fact in enumerate(completion._variables.facts())
            }),
        ]
        outcomes: Counter = Counter()
        for index in range(1000):
            artifact, db, weights = cases[index % 2]
            data = bytearray(artifact.to_bytes())
            mode = rng.randrange(3)
            if mode == 0:
                for _ in range(rng.randint(1, 3)):
                    data[rng.randrange(10, len(data))] = rng.randrange(256)
            elif mode == 1:
                del data[rng.randrange(10, len(data)):]
            else:
                for _ in range(rng.randint(1, 4)):
                    data.insert(rng.randrange(10, len(data) + 1), rng.randrange(256))
            try:
                restored = type(artifact).from_bytes(_rechecksum(bytes(data)), db)
            except CircuitFormatError:
                outcomes["refused"] += 1
                continue
            restored.count()
            restored.circuit.count()
            restored.weighted_count(weights)
            restored.circuit.literal_counts()
            outcomes["loaded"] += 1
        assert sum(outcomes.values()) == 1000
        assert outcomes["refused"] > 900


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

    def test_count_past_2_to_the_64_survives(self):
        nulls = [Null("n%d" % i) for i in range(50)]
        db = IncompleteDatabase(
            [Fact("R", [null]) for null in nulls],
            dom={null: ["%s%d" % (null.label, j) for j in range(3)]
                 for null in nulls},
        )
        compiled = CompletionCircuit(db, None)
        assert compiled.count() == 3**50 > 2**64
        restored = CompletionCircuit.from_bytes(compiled.to_bytes(), db)
        assert restored.count() == restored.circuit.count() == 3**50

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
            with pytest.raises(ValueError, match="conditioned artifact.*pinned"):
                parent.condition(delta).to_bytes()

    def test_one_kind_is_not_the_other(self):
        db, query = scaling_hard_val_instance(8, seed=4)
        data = ValuationCircuit(db, query).to_bytes()
        with pytest.raises(CircuitFormatError, match="magic"):
            CompletionCircuit.from_bytes(data, db)
