"""Cross-job memoization keyed on canonical instance fingerprints.

Three stores live side by side:

* the **answer memo** — ``fingerprint -> (count, resolved method)`` pairs,
  one per distinct *question*.  Answers are tiny, so the memo is
  unbounded except through the circuits its entries link to;
* the **circuit slot** — ``instance fingerprint -> compiled circuit``
  (:class:`~repro.compile.backend.ValuationCircuit` /
  :class:`~repro.compile.backend.CompletionCircuit`), one per distinct
  *instance*.  Circuits are the expensive artifacts the batch engine
  reuses across question modes (count, weighted count, marginals,
  samples), and the only part of the cache whose memory matters: every
  stored circuit is accounted at its estimated byte size, and an optional
  ``max_circuit_bytes`` bound evicts least-recently-used circuits —
  **together with every memo entry derived from them**, so a bounded
  cache never serves an answer whose provenance it already dropped.
  Circuits derived from a cached parent by delta conditioning record the
  parent link: evicting a parent drops its derived children too (a
  conditioned circuit shares structure and provenance with its parent),
  and :meth:`CountCache.get_ancestor_circuit` walks a child's ancestor
  chain so a fingerprint miss can still be answered by conditioning a
  cached ancestor (tallied as ``parent_chain_hits``);
* the **component store** — an LRU of at most
  :data:`DEFAULT_MAX_COMPONENTS` compiled clause-component programs keyed
  by :func:`~repro.compile.lineage.component_key`.
  Insert/delete deltas recompile only the components their clauses
  touched; everything else splices from here.

``stats()`` reports all three; ``repro-count batch --cache-mb`` is the
CLI surface of the byte bound.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Sequence

#: Bound of the clause-component program store (entries).
DEFAULT_MAX_COMPONENTS = 512


class CountCache:
    """Answer memo plus byte-bounded circuit store, with statistics."""

    def __init__(self, max_circuit_bytes: int | None = None) -> None:
        if max_circuit_bytes is not None and max_circuit_bytes < 0:
            raise ValueError("max_circuit_bytes must be >= 0 (or None)")
        self._entries: dict[str, tuple[Any, str]] = {}
        self._max_circuit_bytes = max_circuit_bytes
        # instance fingerprint -> (circuit, bytes); LRU order.
        self._circuits: OrderedDict[str, tuple[Any, int]] = OrderedDict()
        # links for joint eviction: memo entry <-> owning instance.
        self._entry_instance: dict[str, str] = {}
        self._instance_entries: dict[str, set[str]] = {}
        # delta provenance links: child instance <-> parent instance.
        self._circuit_parent: dict[str, str] = {}
        self._circuit_children: dict[str, set[str]] = {}
        # clause-component programs: component key -> program entry.
        self._components: OrderedDict[tuple, dict] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.circuit_hits = 0
        self.circuit_misses = 0
        self.circuit_evictions = 0
        self.circuit_bytes = 0
        self.worker_circuits = 0
        self.parent_chain_hits = 0
        self.component_hits = 0
        self.component_misses = 0

    # -- answer memo -------------------------------------------------------

    def get(self, fingerprint: str) -> tuple[Any, str] | None:
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def put(
        self,
        fingerprint: str,
        count: Any,
        method: str,
        instance: str | None = None,
    ) -> None:
        """Memoize one answer; ``instance`` ties it to a cached circuit.

        Linked answers are dropped when their circuit is evicted, and an
        answer whose circuit is already gone (evicted mid-batch, or too
        large for the bound in the first place) is not memoized at all —
        the bound on circuit memory is also a bound on how much derived
        state the cache may serve, and the two stores move together.
        """
        if instance is not None and instance not in self._circuits:
            self._entries.pop(fingerprint, None)
            self._unlink_entry(fingerprint)
            return
        self._entries[fingerprint] = (count, method)
        self._unlink_entry(fingerprint)
        if instance is not None:
            self._entry_instance[fingerprint] = instance
            self._instance_entries.setdefault(instance, set()).add(fingerprint)

    def _unlink_entry(self, fingerprint: str) -> None:
        instance = self._entry_instance.pop(fingerprint, None)
        if instance is not None:
            siblings = self._instance_entries.get(instance)
            if siblings is not None:
                siblings.discard(fingerprint)
                if not siblings:
                    del self._instance_entries[instance]

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
        hit — the incremental layer then applies the missing delta
        suffix to the returned circuit instead of recompiling.
        """
        for fingerprint in ancestry:
            cached = self._circuits.get(fingerprint)
            if cached is not None:
                self._circuits.move_to_end(fingerprint)
                self.parent_chain_hits += 1
                return fingerprint, cached[0]
        return None

    def put_circuit(
        self,
        instance: str,
        circuit: Any,
        from_worker: bool = False,
        parent: str | None = None,
    ) -> None:
        """Store a compiled circuit, evicting LRU circuits past the bound.

        The circuit must expose ``memory_bytes()``.  A circuit alone
        larger than the bound is not stored at all (storing it would only
        evict everything else and then itself).  Evicting a circuit also
        drops the memo entries linked to its instance — and, recursively,
        every circuit derived from it (``parent`` records that link when
        the incremental layer installs a conditioned/respliced child).
        ``from_worker`` marks an artifact compiled in a worker process
        and installed by the parent (tallied separately in :meth:`stats`).
        """
        size = int(circuit.memory_bytes())
        if (
            self._max_circuit_bytes is not None
            and size > self._max_circuit_bytes
        ):
            return
        previous = self._circuits.pop(instance, None)
        if previous is not None:
            self.circuit_bytes -= previous[1]
        self._circuits[instance] = (circuit, size)
        if parent is not None and parent in self._circuits:
            self._circuit_parent[instance] = parent
            self._circuit_children.setdefault(parent, set()).add(instance)
        if from_worker:
            self.worker_circuits += 1
        self.circuit_bytes += size
        if self._max_circuit_bytes is not None:
            while (
                self.circuit_bytes > self._max_circuit_bytes
                and len(self._circuits) > 1
            ):
                if not self._evict_oldest_circuit(keep=instance):
                    break

    def _evict_oldest_circuit(self, keep: str | None = None) -> bool:
        """Evict the oldest circuit tree not protecting ``keep``.

        ``keep`` and its ancestors are protected — evicting an ancestor
        would take the just-inserted child down with it.  Returns whether
        anything was evicted.
        """
        protected = set()
        node = keep
        while node is not None and node not in protected:
            protected.add(node)
            node = self._circuit_parent.get(node)
        for candidate in self._circuits:
            if candidate not in protected:
                self._drop_circuit_tree(candidate)
                return True
        return False

    def _drop_circuit_tree(self, instance: str) -> None:
        """Drop a circuit, its derived descendants, and linked answers."""
        stack = [instance]
        while stack:
            fingerprint = stack.pop()
            entry = self._circuits.pop(fingerprint, None)
            if entry is None:
                continue
            self.circuit_bytes -= entry[1]
            self.circuit_evictions += 1
            stack.extend(self._circuit_children.pop(fingerprint, ()))
            parent = self._circuit_parent.pop(fingerprint, None)
            if parent is not None:
                siblings = self._circuit_children.get(parent)
                if siblings is not None:
                    siblings.discard(fingerprint)
                    if not siblings:
                        del self._circuit_children[parent]
            for linked in self._instance_entries.pop(fingerprint, set()):
                self._entries.pop(linked, None)
                self._entry_instance.pop(linked, None)

    # -- component store ---------------------------------------------------

    def get_component(self, key: tuple) -> dict | None:
        """A cached clause-component program, LRU-touched on hit."""
        entry = self._components.get(key)
        if entry is None:
            self.component_misses += 1
            return None
        self._components.move_to_end(key)
        self.component_hits += 1
        return entry

    def put_component(self, key: tuple, entry: dict) -> None:
        """Store one compiled clause-component program (bounded LRU)."""
        self._components[key] = entry
        self._components.move_to_end(key)
        if len(self._components) > DEFAULT_MAX_COMPONENTS:
            self._components.popitem(last=False)

    # -- statistics --------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Fraction of memo lookups answered from cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, Any]:
        """One JSON-ready snapshot of all three stores."""
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
            "worker_circuits": self.worker_circuits,
            "parent_chain_hits": self.parent_chain_hits,
            "components": len(self._components),
            "component_hits": self.component_hits,
            "component_misses": self.component_misses,
            "max_circuit_bytes": self._max_circuit_bytes,
        }

    def clear(self) -> None:
        self._entries.clear()
        self._circuits.clear()
        self._entry_instance.clear()
        self._instance_entries.clear()
        self._circuit_parent.clear()
        self._circuit_children.clear()
        self._components.clear()
        self.hits = 0
        self.misses = 0
        self.circuit_hits = 0
        self.circuit_misses = 0
        self.circuit_evictions = 0
        self.circuit_bytes = 0
        self.worker_circuits = 0
        self.parent_chain_hits = 0
        self.component_hits = 0
        self.component_misses = 0

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
