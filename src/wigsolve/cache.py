"""Process-wide caches of derived tables, bounded by the bytes they hold."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np


def _array_bytes(value) -> int:
    """Bytes of the numpy arrays held directly in value's attributes."""
    return sum(v.nbytes for v in vars(value).values() if isinstance(v, np.ndarray))


class ByteLRU:
    """Least-recently-used mapping whose values hold at most `max_bytes`.

    A hit makes an entry the most recent; an insertion evicts the least
    recent entries until the total fits, but always keeps the new one.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries: OrderedDict = OrderedDict()  # key -> (value, bytes)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        hit = self._entries.get(key)
        if hit is None:
            return None
        self._entries.move_to_end(key)
        return hit[0]

    def put(self, key, value) -> None:
        if key in self._entries:
            self.nbytes -= self._entries.pop(key)[1]
        size = _array_bytes(value)
        self._entries[key] = (value, size)
        self.nbytes += size
        while self.nbytes > self.max_bytes and len(self._entries) > 1:
            _, (_, evicted) = self._entries.popitem(last=False)
            self.nbytes -= evicted

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0
