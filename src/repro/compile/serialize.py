"""Versioned binary codec of the compiled circuit artifacts.

An artifact (``to_bytes``/``from_bytes`` on
:class:`~repro.compile.backend.ValuationCircuit` and
:class:`~repro.compile.backend.CompletionCircuit`,
:func:`~repro.compile.backend.artifact_from_bytes`) travels as one frame,
``magic (4 bytes) | version (u16 LE) | crc32 of the body (u32 LE) |
body``.  The body is a list of ints, each one zigzag LEB128 varint, so the
exact big-int counts travel whole: the artifact's header ints, its
circuit's ``num_variables`` and ``root``, the countable variables (a
length, then the variables ascending), and the program's ``code`` list as
it stands (a length, then the ints; :mod:`repro.compile.circuit` describes
the layout).  :class:`~repro.compile.ddnnf_trace.TraceBuilder` lays
``code`` out node by node, children first, so the writer walks no node.

Reading runs in three steps, so that a payload is checked against its
instance before any circuit is built: :func:`loads` refuses a wrong magic,
another version or a corrupted body before it decodes a byte, then a
truncated, overlong or malformed header; the artifact compares the header
with its instance; :meth:`Payload.circuit` rebuilds the node offsets in
one walk over the code, refusing anything the passes could not run on.
Every refusal is a :class:`CircuitFormatError`.  No Python object is
pickled: the artifact rebuilds its variable map from the instance.
"""

from __future__ import annotations

import zlib
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from repro.compile.circuit import (
    DDNNF,
    KIND_DECISION,
    KIND_FALSE,
    KIND_PRODUCT,
    KIND_TRUE,
)

#: The version of every payload this module writes, and the one it reads.
FORMAT_VERSION = 2


class CircuitFormatError(ValueError):
    """A payload that cannot be trusted: wrong magic, another version, a
    checksum mismatch, a malformed body, or another instance's artifact."""


def frame(magic: bytes, ints: Iterable[int]) -> bytes:
    """``ints`` as the body of a ``magic`` frame, each a zigzag varint."""
    body = bytearray()
    for value in ints:
        value = value << 1 if value >= 0 else ~(value << 1)
        while value > 0x7F:
            body.append(value & 0x7F | 0x80)
            value >>= 7
        body.append(value)
    checksum = zlib.crc32(body).to_bytes(4, "little")
    return magic + FORMAT_VERSION.to_bytes(2, "little") + checksum + body


def unframe(data: bytes, magic: bytes) -> list[int]:
    """The ints of a ``magic`` frame, or :class:`CircuitFormatError`.

    Checks run cheapest first: length, magic, version, then the crc32 of
    the body, so another version is reported as such rather than as a
    checksum failure.
    """
    if len(data) < 10:
        raise CircuitFormatError("payload shorter than the 10-byte frame header")
    if data[:4] != magic:
        raise CircuitFormatError(
            "bad magic %r (expected %r)" % (bytes(data[:4]), magic)
        )
    version = int.from_bytes(data[4:6], "little")
    if version != FORMAT_VERSION:
        raise CircuitFormatError(
            "unsupported format version %d (this build reads version %d)"
            % (version, FORMAT_VERSION)
        )
    body = data[10:]
    if zlib.crc32(body) != int.from_bytes(data[6:10], "little"):
        raise CircuitFormatError("checksum mismatch: payload corrupted in transit")
    ints: list[int] = []
    value = shift = 0
    for byte in body:
        value |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            ints.append(~(value >> 1) if value & 1 else value >> 1)
            value = shift = 0
    if shift:
        raise CircuitFormatError("truncated payload: a varint runs off the end")
    return ints


def _run(ints: list[int], at: int) -> tuple[list[int], int]:
    """The length-prefixed run at ``at`` and the index after it
    (``IndexError`` when ``at`` is past the end)."""
    length = ints[at]
    end = at + 1 + length
    if length < 0 or end > len(ints):
        raise CircuitFormatError(
            "truncated payload: a run of %d ints at %d" % (length, at)
        )
    return ints[at + 1:end], end


def dumps(magic: bytes, header: Sequence[int], circuit: DDNNF) -> bytes:
    """The payload of ``header`` and ``circuit``; :class:`ValueError` on a
    pinned circuit, which holds its parent's program."""
    if circuit._pins is not None:
        raise ValueError(
            "cannot serialize a conditioned artifact: its circuit is pinned "
            "on its parent's program; compile the instance to ship it"
        )
    program = circuit._program
    countable = sorted(program.countable)
    return frame(magic, chain(
        header, (program.num_variables, program.root, len(countable)),
        countable, (len(program.code),), program.code,
    ))


class Payload(NamedTuple):
    """A decoded payload, checked as far as it can be without its instance."""

    header: list[int]
    num_variables: int
    root: int
    countable: list[int]
    code: list[int]

    def circuit(self) -> DDNNF:
        """The circuit, after one walk over the code that rebuilds the node
        offsets and refuses what no pass can run on: an unknown node kind,
        a child that does not come before its parent, a literal that is 0
        or names no variable, a freed variable out of range, a root
        outside the node table."""
        code, n = self.code, self.num_variables
        offsets: list[int] = []
        at = 0
        try:
            while at < len(code):
                node = len(offsets)
                offsets.append(at)
                kind = code[at]
                if kind == KIND_FALSE or kind == KIND_TRUE:
                    at += 1
                    continue
                if kind == KIND_PRODUCT:
                    children, at = _run(code, at + 1)
                elif kind == KIND_DECISION:
                    branches, at = code[at + 1], at + 2
                    if branches < 0:
                        raise CircuitFormatError(
                            "node %d has %d branches" % (node, branches)
                        )
                    children = []
                    for _ in range(branches):
                        literals, at = _run(code, at)
                        if literals and (0 in literals or max(map(abs, literals)) > n):
                            raise CircuitFormatError(
                                "node %d: a branch literal outside the "
                                "variable range 1..%d" % (node, n)
                            )
                        freed, at = _run(code, at)
                        if freed and not 1 <= min(freed) <= max(freed) <= n:
                            raise CircuitFormatError(
                                "node %d: a freed variable outside the "
                                "variable range 1..%d" % (node, n)
                            )
                        children.append(code[at])
                        at += 1
                else:
                    raise CircuitFormatError("unknown node kind code %d" % kind)
                if children and not 0 <= min(children) <= max(children) < node:
                    raise CircuitFormatError(
                        "node %d references a child that does not come "
                        "before it: not topologically ordered" % node
                    )
        except IndexError:
            raise CircuitFormatError(
                "truncated payload: node %d runs off the code" % (len(offsets) - 1)
            ) from None
        if not 0 <= self.root < len(offsets):
            raise CircuitFormatError(
                "root %d outside the %d-node table" % (self.root, len(offsets))
            )
        return DDNNF(code, offsets, self.root, n, self.countable)


def loads(data: bytes, magic: bytes, size: int) -> Payload:
    """Decode a ``magic`` payload whose header holds ``size`` ints."""
    ints = unframe(data, magic)
    try:
        countable, at = _run(ints, size + 2)
        code, end = _run(ints, at)
    except IndexError:
        raise CircuitFormatError(
            "truncated payload: the body ends inside the header"
        ) from None
    if end != len(ints):
        raise CircuitFormatError(
            "%d trailing ints after the program" % (len(ints) - end)
        )
    if min(ints[:size + 2]) < 0:
        raise CircuitFormatError("a negative header field")
    num_variables, root = ints[size:size + 2]
    if any(low >= high for low, high in zip([0, *countable], countable)) or (
        countable and countable[-1] > num_variables
    ):
        raise CircuitFormatError(
            "countable list is not strictly ascending from 1 within 1..%d"
            % num_variables
        )
    return Payload(ints[:size], num_variables, root, countable, code)


__all__ = [
    "CircuitFormatError",
    "FORMAT_VERSION",
    "Payload",
    "dumps",
    "frame",
    "loads",
    "unframe",
]
