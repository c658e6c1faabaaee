"""Cross-job memoization keyed on canonical instance fingerprints.

Two stores live side by side:

* the **answer memo** — ``fingerprint -> (count, resolved method)`` pairs,
  one per distinct *question*.  Answers are exact and content-addressed,
  and tiny, so the memo is unbounded and an answer stays when the circuit
  that produced it is evicted;
* the **circuit slot** — ``instance fingerprint -> compiled circuit``
  (:class:`~repro.compile.backend.ValuationCircuit` /
  :class:`~repro.compile.backend.CompletionCircuit`), one per distinct
  *instance*.  Circuits are the expensive artifacts a process reuses
  across question modes (count, weighted count, marginals, samples), and
  the only part of the cache whose memory matters: every stored circuit
  is accounted at its estimated byte size, and an optional
  ``max_circuit_bytes`` bound evicts least-recently-used circuits.  A
  circuit conditioned from a cached ancestor is an ordinary entry (its
  program shares nothing with the ancestor's), so it is evicted on its
  own; :meth:`CountCache.get_ancestor_circuit` walks a child's ancestor
  chain so a fingerprint miss can still be answered by conditioning a
  cached ancestor (tallied as ``parent_chain_hits``).

``stats()`` reports both; ``repro-count batch --cache-mb`` is the CLI
surface of the byte bound.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Sequence


class CountCache:
    """Answer memo plus byte-bounded circuit store, with statistics."""

    def __init__(self, max_circuit_bytes: int | None = None) -> None:
        if max_circuit_bytes is not None and max_circuit_bytes < 0:
            raise ValueError("max_circuit_bytes must be >= 0 (or None)")
        self._entries: dict[str, tuple[Any, str]] = {}
        self._max_circuit_bytes = max_circuit_bytes
        # instance fingerprint -> (circuit, bytes); LRU order.
        self._circuits: OrderedDict[str, tuple[Any, int]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.circuit_hits = 0
        self.circuit_misses = 0
        self.circuit_evictions = 0
        self.circuit_bytes = 0
        self.parent_chain_hits = 0

    # -- answer memo -------------------------------------------------------

    def get(self, fingerprint: str) -> tuple[Any, str] | None:
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(self, fingerprint: str, count: Any, method: str) -> None:
        """Memoize one answer."""
        self._entries[fingerprint] = (count, method)

    # -- circuit slot ------------------------------------------------------

    def has_circuit(self, instance: str) -> bool:
        """Whether a circuit is cached, without touching LRU order or
        hit/miss statistics (the engine's dispatch planning peek)."""
        return instance in self._circuits

    def get_circuit(self, instance: str) -> Any | None:
        """The compiled circuit for an instance fingerprint, if cached."""
        cached = self._circuits.get(instance)
        if cached is None:
            self.circuit_misses += 1
            return None
        self._circuits.move_to_end(instance)
        self.circuit_hits += 1
        return cached[0]

    def get_ancestor_circuit(
        self, ancestry: Sequence[str]
    ) -> tuple[str, Any] | None:
        """First cached circuit along a delta ancestor chain.

        ``ancestry`` lists instance fingerprints nearest-ancestor first
        (parent, grandparent, ...).  A hit counts as a ``parent_chain``
        hit — the incremental layer then conditions the returned
        circuit along the missing delta suffix instead of recompiling.
        """
        for fingerprint in ancestry:
            cached = self._circuits.get(fingerprint)
            if cached is not None:
                self._circuits.move_to_end(fingerprint)
                self.parent_chain_hits += 1
                return fingerprint, cached[0]
        return None

    def put_circuit(self, instance: str, circuit: Any) -> None:
        """Store a compiled circuit, evicting LRU circuits past the bound.

        The circuit must expose ``memory_bytes()``.  A circuit alone
        larger than the bound is not stored at all (storing it would only
        evict everything else and then itself).
        """
        size = int(circuit.memory_bytes())
        bound = self._max_circuit_bytes
        if bound is not None and size > bound:
            return
        previous = self._circuits.pop(instance, None)
        if previous is not None:
            self.circuit_bytes -= previous[1]
        self._circuits[instance] = (circuit, size)
        self.circuit_bytes += size
        # The new circuit is last and fits alone, so it is never evicted.
        while bound is not None and self.circuit_bytes > bound:
            _oldest, (_circuit, evicted) = self._circuits.popitem(last=False)
            self.circuit_bytes -= evicted
            self.circuit_evictions += 1

    # -- statistics --------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Fraction of memo lookups answered from cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, Any]:
        """One JSON-ready snapshot of both stores."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "circuits": len(self._circuits),
            "circuit_bytes": self.circuit_bytes,
            "circuit_hits": self.circuit_hits,
            "circuit_misses": self.circuit_misses,
            "circuit_evictions": self.circuit_evictions,
            "parent_chain_hits": self.parent_chain_hits,
            "max_circuit_bytes": self._max_circuit_bytes,
        }

    def clear(self) -> None:
        self._entries.clear()
        self._circuits.clear()
        self.hits = 0
        self.misses = 0
        self.circuit_hits = 0
        self.circuit_misses = 0
        self.circuit_evictions = 0
        self.circuit_bytes = 0
        self.parent_chain_hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def __repr__(self) -> str:
        return "CountCache(%d entries, %d hits, %d misses, %d circuits, %d circuit bytes)" % (
            len(self._entries),
            self.hits,
            self.misses,
            len(self._circuits),
            self.circuit_bytes,
        )
