"""Fixed-capacity ring buffers over multivariate monitoring records.

:class:`MatrixRingBuffer` holds a whole fleet of independent ring
buffers in a single ``(streams, capacity, features)`` array so that a
tick's worth of records — one per stream — appends in O(1) vectorized
work, and the most recent windows of many streams gather into one
``(B, window, features)`` batch for a micro-batched model forward.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MatrixRingBuffer"]


class MatrixRingBuffer:
    """A fleet of independent ring buffers in one preallocated array.

    Semantically ``streams`` independent ring buffers — each stream has
    its own head and size, because quarantined records never enter a
    stream's history and streams may join mid-flight — but the storage
    is one ``(streams, capacity, features)`` block, so the two serving
    hot paths are single vectorized operations:

    * :meth:`append_tick` writes one record per (masked) stream via a
      fancy-indexed assignment;
    * :meth:`last_windows` gathers the most recent ``window`` records of
      any subset of streams into a ``(B, window, features)`` batch with
      one gather, ready for a micro-batched model forward.
    """

    def __init__(self, streams: int, capacity: int, features: int) -> None:
        if streams < 1 or capacity < 1 or features < 1:
            raise ValueError(
                f"streams, capacity and features must be >= 1, "
                f"got {streams}, {capacity}, {features}"
            )
        self.streams = streams
        self.capacity = capacity
        self.features = features
        self._data = np.empty((streams, capacity, features))
        self._head = np.zeros(streams, dtype=np.int64)  # next write position
        self._size = np.zeros(streams, dtype=np.int64)

    @property
    def sizes(self) -> np.ndarray:
        """Per-stream fill levels (read-only view)."""
        out = self._size.view()
        out.flags.writeable = False
        return out

    def __len__(self) -> int:
        """Total records held across all streams."""
        return int(self._size.sum())

    def append_tick(self, records: np.ndarray, mask: np.ndarray | None = None) -> None:
        """Append one record per stream; ``mask`` selects which streams absorb."""
        records = np.asarray(records, float)
        if records.shape != (self.streams, self.features):
            raise ValueError(
                f"expected shape ({self.streams}, {self.features}), got {records.shape}"
            )
        if mask is None:
            idx = np.arange(self.streams)
        else:
            mask = np.asarray(mask, bool)
            if mask.shape != (self.streams,):
                raise ValueError(f"mask must have shape ({self.streams},), got {mask.shape}")
            idx = np.flatnonzero(mask)
            if idx.size == 0:
                return
        heads = self._head[idx]
        self._data[idx, heads] = records[idx]
        self._head[idx] = (heads + 1) % self.capacity
        self._size[idx] = np.minimum(self._size[idx] + 1, self.capacity)

    def last_windows(
        self, idx: np.ndarray, window: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Gather the most recent ``window`` records of streams ``idx``.

        Returns ``(len(idx), window, features)``, oldest first within
        each window. ``out`` (any float dtype) receives the gather when
        given.
        """
        idx = np.asarray(idx, dtype=np.int64)
        if window < 1 or np.any(self._size[idx] < window):
            raise ValueError(f"every requested stream needs >= {window} records")
        # one gather of whole records from the (streams * capacity, F) rows:
        # no intermediate fancy-index array, and straight into ``out``
        # (mode="wrap" skips the buffered bounds check of mode="raise":
        # ``_size[idx]`` above already rejected any stream outside the
        # fleet, and wrapping keeps numpy's meaning of a negative stream)
        flat = (idx * self.capacity)[:, None] + (
            self._head[idx][:, None] - window + np.arange(window)
        ) % self.capacity
        return np.take(
            self._data.reshape(-1, self.features), flat, axis=0, out=out, mode="wrap"
        )

    def view(self, stream: int) -> np.ndarray:
        """Chronologically ordered contents of one stream, oldest first (copy)."""
        size = int(self._size[stream])
        head = int(self._head[stream])
        if size < self.capacity:
            return self._data[stream, :size].copy()
        return np.roll(self._data[stream], -head, axis=0).copy()

    def filled_matrix(self) -> np.ndarray:
        """The raw ring with never-written slots masked to NaN (copy).

        Rows are **not** chronologically ordered — this is for
        order-insensitive reductions (quantiles, means) over every
        stream's retained history in one vectorized pass. A stream that
        has not wrapped has written exactly slots ``[0, size)``; a
        wrapped stream has written all of them.
        """
        out = self._data.copy()
        out[np.arange(self.capacity)[None, :] >= self._size[:, None]] = np.nan
        return out

    def clear(self) -> None:
        self._head[:] = 0
        self._size[:] = 0

    # -- checkpointing ---------------------------------------------------------

    def state_dict(self) -> dict:
        """Raw ring state (data + heads + sizes) for exact checkpoint/restore."""
        return {
            "streams": self.streams,
            "capacity": self.capacity,
            "features": self.features,
            "data": self._data.copy(),
            "head": self._head.copy(),
            "size": self._size.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        shape = (state["streams"], state["capacity"], state["features"])
        if shape != (self.streams, self.capacity, self.features):
            raise ValueError(
                f"buffer shape mismatch: have ({self.streams}, {self.capacity}, "
                f"{self.features}), checkpoint holds {shape}"
            )
        self._data[...] = state["data"]
        self._head[...] = state["head"]
        self._size[...] = state["size"]
