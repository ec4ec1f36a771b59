"""The persistent QoR result cache: :class:`QoRCache` and its key.

A :class:`~repro.runtime.session.FlowSession` configured with
``qor_cache_path`` keeps every successful, fault-free
:class:`~repro.flow.result.FlowResult` on disk keyed by ``(profile name,
seed, canonical params hash)``, so repeated evaluations — online-loop
dedup, benchmark reruns, cross-validation folds — are free.  Writes are
atomic (temp file + ``os.replace``); corrupt entries degrade to cache
misses.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from typing import Dict, List, Optional, Union

from repro.flow.parameters import FlowParameters
from repro.flow.result import FlowResult
from repro.observability import get_registry, new_lock

# Version stamp baked into every cache key: bump when FlowResult layout or
# flow semantics change so stale entries can never masquerade as fresh runs.
QOR_CACHE_VERSION = 1


def qor_cache_key(design: Union[str, object], params: FlowParameters,
                  seed: int) -> str:
    """Canonical cache key: sha256 over (profile name, seed, flat params).

    ``FlowParameters.flat`` enumerates every knob as ``section.field ->
    float``; JSON with sorted keys and ``repr``-exact floats makes the
    digest independent of dict ordering and stable across processes.
    """
    from repro.netlist.profiles import get_profile

    profile = get_profile(design) if isinstance(design, str) else design
    payload = {
        "v": QOR_CACHE_VERSION,
        "design": profile.name,
        "seed": int(seed),
        "params": params.flat(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class QoRCache:
    """On-disk cache of successful :class:`FlowResult`\\ s.

    Layout: ``<path>/<key[:2]>/<key>.pkl`` (sharded so no directory grows
    unbounded).  Entries are written atomically via the checkpoint layer's
    ``atomic_pickle``; a concurrent reader sees either the full entry or a
    miss, never a torn file.  Unreadable entries are deleted and reported
    as misses — the cache can only ever cost a re-run, not correctness.

    Hit/miss/eviction counters are guarded by the observability registry's
    lock primitive (several threads may share one cache) and mirrored into
    the process-wide ``qor_cache_*_total`` counter families.
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = os.fspath(path)
        os.makedirs(self.path, exist_ok=True)
        self._lock = new_lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def _entry_path(self, key: str) -> str:
        return os.path.join(self.path, key[:2], key + ".pkl")

    def _count(self, outcome: str) -> None:
        with self._lock:
            if outcome == "hit":
                self.hits += 1
            elif outcome == "miss":
                self.misses += 1
            else:
                self.evictions += 1
        get_registry().counter(f"qor_cache_{outcome}s_total").inc()

    def get(self, design, params: FlowParameters, seed: int
            ) -> Optional[FlowResult]:
        """The cached result, or ``None`` (miss / corrupt entry)."""
        entry = self._entry_path(qor_cache_key(design, params, seed))
        try:
            with open(entry, "rb") as handle:
                result = pickle.load(handle)
        except FileNotFoundError:
            self._count("miss")
            return None
        except (OSError, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError):
            self._evict(entry)
            self._count("eviction")
            self._count("miss")
            return None
        if not isinstance(result, FlowResult):
            self._evict(entry)
            self._count("eviction")
            self._count("miss")
            return None
        self._count("hit")
        return result

    def put(self, design, params: FlowParameters, seed: int,
            result: FlowResult) -> None:
        """Atomically persist one successful result."""
        from repro.runtime.checkpoint import atomic_pickle

        entry = self._entry_path(qor_cache_key(design, params, seed))
        os.makedirs(os.path.dirname(entry), exist_ok=True)
        atomic_pickle(result, entry)

    @staticmethod
    def _evict(entry: str) -> None:
        try:
            os.remove(entry)
        except OSError:
            pass

    # ------------------------------------------------------------------
    def _entries(self) -> List[str]:
        found = []
        for shard in sorted(os.listdir(self.path)):
            shard_dir = os.path.join(self.path, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".pkl"):
                    found.append(os.path.join(shard_dir, name))
        return found

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for entry in self._entries():
            self._evict(entry)
            removed += 1
        return removed

    def info(self) -> Dict[str, object]:
        """Occupancy summary (mirrors ``netlist_cache_info``).

        Counter reads happen under the cache lock, so a snapshot taken
        while other threads serve hits/misses is internally consistent.
        """
        entries = self._entries()
        total = 0
        for entry in entries:
            try:
                total += os.path.getsize(entry)
            except OSError:
                pass
        with self._lock:
            hits, misses, evictions = self.hits, self.misses, self.evictions
        return {
            "path": self.path,
            "entries": len(entries),
            "bytes": total,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
        }
