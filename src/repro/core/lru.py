"""A small thread-safe bounded LRU cache.

Shared by the serving engine's tokenization cache and
:class:`repro.text.bpe.BPETokenizer`'s merge cache, both of which see
unbounded distinct keys under real traffic and previously grew without
limit. Eviction is least-recently-used; every access updates recency.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """Bounded mapping with LRU eviction and hit/miss accounting.

    ``get``/``put`` are O(1) and guarded by a lock, so one cache may be
    shared between the micro-batcher thread and synchronous callers.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __getstate__(self) -> dict[str, Any]:
        # Locks are process-local; a pickled cache (e.g. riding inside a
        # model pickled for a pool worker process) gets a fresh one.
        with self._lock:
            state = self.__dict__.copy()
            state["_data"] = self._data.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def stats(self) -> dict[str, int]:
        """Snapshot of size and access counters."""
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
