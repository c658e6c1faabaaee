"""Versioned binary serialization of d-DNNF circuit artifacts.

A compiled circuit can be written to bytes and rebuilt from them
(``to_bytes``/``from_bytes`` on the artifacts,
:func:`repro.compile.backend.artifact_from_bytes`).  The batch engine does
not ship circuits — each stays in the process that compiled it — so the
codec serves callers that store or move an artifact themselves, and a
payload must be compact, self-describing and tamper-evident.  This module
is the codec layer:

* **framing** — every payload is ``magic (4 bytes) | version (u16 LE) |
  crc32 of the body (u32 LE) | body``.  :func:`unframe` rejects wrong
  magic, unknown versions and corrupted bodies with
  :class:`CircuitFormatError` *before* any body byte is interpreted;
* **varints** — all integers are LEB128 varints (signed values zigzag
  first), so the node table costs one to two bytes per small id and the
  exact big-int counts of the wrappers serialize without truncation;
* **node table** — :func:`dumps_circuit` writes the
  :class:`~repro.compile.circuit.DDNNF` node array in its native
  topological order (children strictly before parents), and
  :func:`loads_circuit` re-validates that order, so a rehydrated circuit
  is safe for the iterative linear passes without any re-sorting.

The wrapper artifacts (:class:`~repro.compile.backend.ValuationCircuit` /
:class:`~repro.compile.backend.CompletionCircuit`) embed a circuit payload
plus their scalar state; their variable maps are *not* serialized — they
are reconstructed deterministically from the instance the parent already
holds, which keeps the format free of pickled Python objects.
"""

from __future__ import annotations

import zlib

from repro.compile.circuit import (
    DDNNF,
    KIND_DECISION,
    KIND_FALSE,
    KIND_PRODUCT,
    KIND_TRUE,
)

#: Current version of every circuit payload this module writes.
FORMAT_VERSION = 1

#: Frame magic of a bare d-DNNF payload.
CIRCUIT_MAGIC = b"RDNF"


class CircuitFormatError(ValueError):
    """A circuit payload that cannot be trusted: wrong magic, unknown
    version, checksum mismatch, or a malformed node table."""


# ---------------------------------------------------------------------------
# varint primitives
# ---------------------------------------------------------------------------


class Writer:
    """Appends varint-coded values to a growing body buffer."""

    __slots__ = ("_body",)

    def __init__(self) -> None:
        self._body = bytearray()

    def uint(self, value: int) -> None:
        """One unsigned LEB128 varint (arbitrary-precision)."""
        if 0 <= value < 0x80:
            # Node ids, literals and lengths are almost always one byte;
            # the fast path matters because a circuit artifact is a few
            # hundred thousand of these back to back.
            self._body.append(value)
            return
        if value < 0:
            raise ValueError("uint() takes a nonnegative value")
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                self._body.append(byte | 0x80)
            else:
                self._body.append(byte)
                return

    def int(self, value: int) -> None:
        """One signed varint (zigzag then LEB128)."""
        self.uint(_zigzag(value))

    def blob(self, data: bytes) -> None:
        """A length-prefixed byte string."""
        self.uint(len(data))
        self._body.extend(data)

    def getvalue(self) -> bytes:
        return bytes(self._body)


def _zigzag(value: int) -> int:
    # Arbitrary-precision zigzag: nonnegative -> even, negative -> odd.
    return (value << 1) if value >= 0 else ((-value) << 1) - 1


class Reader:
    """Consumes varint-coded values from a body buffer, bounds-checked."""

    __slots__ = ("_body", "_pos")

    def __init__(self, body: bytes) -> None:
        self._body = body
        self._pos = 0

    def uint(self) -> int:
        body = self._body
        position = self._pos
        if position >= len(body):
            raise CircuitFormatError("truncated payload: varint runs off the end")
        byte = body[position]
        if not byte & 0x80:  # single-byte fast path (the common case)
            self._pos = position + 1
            return byte
        result = 0
        shift = 0
        while True:
            if position >= len(body):
                raise CircuitFormatError("truncated payload: varint runs off the end")
            byte = body[position]
            position += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                self._pos = position
                return result
            shift += 7

    def int(self) -> int:
        encoded = self.uint()
        return (encoded >> 1) if encoded & 1 == 0 else -((encoded + 1) >> 1)

    def blob(self) -> bytes:
        length = self.uint()
        if self._pos + length > len(self._body):
            raise CircuitFormatError("truncated payload: blob runs off the end")
        data = self._body[self._pos:self._pos + length]
        self._pos += length
        return data

    def expect_end(self) -> None:
        if self._pos != len(self._body):
            raise CircuitFormatError(
                "%d trailing bytes after the payload" % (len(self._body) - self._pos)
            )


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------


def frame(magic: bytes, body: bytes, version: int = FORMAT_VERSION) -> bytes:
    """Wrap a body in the ``magic | version | crc32 | body`` frame."""
    if len(magic) != 4:
        raise ValueError("frame magic must be exactly 4 bytes")
    header = magic + version.to_bytes(2, "little")
    checksum = zlib.crc32(body) & 0xFFFFFFFF
    return header + checksum.to_bytes(4, "little") + body


def unframe(data: bytes, magic: bytes, version: int = FORMAT_VERSION) -> bytes:
    """Validate a frame and return its body, or raise :class:`CircuitFormatError`.

    Checks run cheapest-first: length, magic, version, then the crc32 of
    the body — so a version bump is reported as such rather than as a
    checksum failure.
    """
    if len(data) < 10:
        raise CircuitFormatError("payload shorter than the 10-byte frame header")
    if data[:4] != magic:
        raise CircuitFormatError(
            "bad magic %r (expected %r)" % (bytes(data[:4]), magic)
        )
    found = int.from_bytes(data[4:6], "little")
    if found != version:
        raise CircuitFormatError(
            "unsupported format version %d (this build reads version %d)"
            % (found, version)
        )
    checksum = int.from_bytes(data[6:10], "little")
    body = data[10:]
    if zlib.crc32(body) & 0xFFFFFFFF != checksum:
        raise CircuitFormatError("checksum mismatch: payload corrupted in transit")
    return body


# ---------------------------------------------------------------------------
# the d-DNNF node table
# ---------------------------------------------------------------------------

def write_circuit_body(writer: Writer, circuit: DDNNF) -> None:
    """Append a circuit's node table to an open body (no framing).

    The circuit's flat int program is walked in place — its kind codes
    are the wire's kind codes, so serialization is one sequential pass.
    ``ValueError`` on a pinned circuit.
    """
    if circuit._pins is not None:
        raise ValueError(
            "cannot serialize a pinned circuit: it holds its parent's "
            "program, unpinned"
        )
    program = circuit._program
    writer.uint(circuit.num_variables)
    writer.uint(circuit.root)
    countable = sorted(circuit.countable)
    writer.uint(len(countable))
    previous = 0
    for variable in countable:
        writer.uint(variable - previous)  # delta-coded ascending list
        previous = variable
    code = program.code
    offsets = program.offsets
    writer.uint(len(offsets))
    for offset in offsets:
        kind = code[offset]
        writer.uint(kind)
        if kind == KIND_PRODUCT:
            length = code[offset + 1]
            writer.uint(length)
            for cursor in range(offset + 2, offset + 2 + length):
                writer.uint(code[cursor])
        elif kind == KIND_DECISION:
            nbranches = code[offset + 1]
            writer.uint(nbranches)
            cursor = offset + 2
            for _ in range(nbranches):
                nlits = code[cursor]
                cursor += 1
                writer.uint(nlits)
                for position in range(cursor, cursor + nlits):
                    writer.int(code[position])
                cursor += nlits
                nfree = code[cursor]
                cursor += 1
                writer.uint(nfree)
                for position in range(cursor, cursor + nfree):
                    writer.uint(code[position])
                cursor += nfree
                writer.uint(code[cursor])
                cursor += 1


def read_circuit_body(reader: Reader) -> DDNNF:
    """Parse and *validate* a circuit node table from an open body.

    Validation guarantees the invariants every linear pass relies on:
    children precede parents, the root exists, literals name variables in
    range.  A payload that passes the frame checksum but violates these
    (a bug, not line noise) still raises :class:`CircuitFormatError`.
    The parse writes straight into the flat int program the passes
    execute.
    """
    num_variables = reader.uint()
    root = reader.uint()
    countable_size = reader.uint()
    countable = []
    previous = 0
    for _ in range(countable_size):
        delta = reader.uint()
        if delta == 0:
            # The list is strictly ascending from a floor of 1, so every
            # delta is positive; a zero delta would smuggle in variable 0
            # or a duplicate entry past the checksum.
            raise CircuitFormatError(
                "countable list is not strictly ascending from 1"
            )
        previous += delta
        countable.append(previous)
    if countable and countable[-1] > num_variables:
        raise CircuitFormatError(
            "countable variable %d outside 1..%d" % (countable[-1], num_variables)
        )
    num_nodes = reader.uint()
    code: list[int] = []
    offsets: list[int] = []
    for index in range(num_nodes):
        kind = reader.uint()
        offsets.append(len(code))
        if kind == KIND_FALSE or kind == KIND_TRUE:
            code.append(kind)
            continue
        if kind == KIND_PRODUCT:
            length = reader.uint()
            code.append(kind)
            code.append(length)
            for _ in range(length):
                child = reader.uint()
                if child >= index:
                    raise CircuitFormatError(
                        "node %d references child %d: not topologically ordered"
                        % (index, child)
                    )
                code.append(child)
            continue
        if kind != KIND_DECISION:
            raise CircuitFormatError("unknown node kind code %d" % kind)
        nbranches = reader.uint()
        code.append(kind)
        code.append(nbranches)
        for _ in range(nbranches):
            nlits = reader.uint()
            code.append(nlits)
            for _ in range(nlits):
                literal = reader.int()
                if literal == 0 or abs(literal) > num_variables:
                    raise CircuitFormatError(
                        "branch literal %d outside the variable range" % literal
                    )
                code.append(literal)
            nfree = reader.uint()
            code.append(nfree)
            for _ in range(nfree):
                variable = reader.uint()
                if not 1 <= variable <= num_variables:
                    raise CircuitFormatError(
                        "freed variable %d outside the variable range" % variable
                    )
                code.append(variable)
            child = reader.uint()
            if child >= index:
                raise CircuitFormatError(
                    "node %d references child %d: not topologically ordered"
                    % (index, child)
                )
            code.append(child)
    if not 0 <= root < num_nodes:
        raise CircuitFormatError("root %d outside the %d-node table" % (root, num_nodes))
    return DDNNF(
        code,
        offsets,
        root=root,
        num_variables=num_variables,
        countable=countable,
    )


def dumps_circuit(circuit: DDNNF) -> bytes:
    """Serialize a bare :class:`DDNNF` to its framed binary form."""
    writer = Writer()
    write_circuit_body(writer, circuit)
    return frame(CIRCUIT_MAGIC, writer.getvalue())


def loads_circuit(data: bytes) -> DDNNF:
    """Rehydrate a bare :class:`DDNNF` from :func:`dumps_circuit` output."""
    reader = Reader(unframe(data, CIRCUIT_MAGIC))
    circuit = read_circuit_body(reader)
    reader.expect_end()
    return circuit


__all__ = [
    "CIRCUIT_MAGIC",
    "CircuitFormatError",
    "FORMAT_VERSION",
    "Reader",
    "Writer",
    "dumps_circuit",
    "frame",
    "loads_circuit",
    "read_circuit_body",
    "unframe",
    "write_circuit_body",
]
