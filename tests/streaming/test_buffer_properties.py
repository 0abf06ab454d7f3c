"""Hypothesis property tests on the ring buffer, against a plain deque model."""

from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming import MatrixRingBuffer


def _fill(capacity, stream, features=1):
    """A one-stream ring and its reference model after appending ``stream``."""
    buf = MatrixRingBuffer(1, capacity, features)
    model = deque(maxlen=capacity)
    for v in stream:
        row = np.full(features, float(v))
        buf.append_tick(row[None, :])
        model.append(row)
    return buf, model


class TestBufferProperties:
    @given(
        st.integers(1, 16),
        st.lists(st.floats(-100, 100, allow_nan=False, width=64), min_size=0, max_size=80),
    )
    @settings(max_examples=100, deadline=None)
    def test_view_equals_tail_of_stream(self, capacity, stream):
        """After any append sequence, view() is the last ``capacity`` items."""
        buf, _ = _fill(capacity, stream)
        expected = np.asarray(stream[-capacity:], float)
        np.testing.assert_array_equal(buf.view(0)[:, 0], expected)

    @given(st.integers(1, 10), st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_size_never_exceeds_capacity(self, capacity, n):
        buf, model = _fill(capacity, range(n), features=2)
        assert int(buf.sizes[0]) == len(model) == min(n, capacity)

    @given(
        st.integers(2, 12),
        st.lists(st.floats(-10, 10, allow_nan=False, width=64), min_size=3, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_last_is_suffix_of_view(self, capacity, stream):
        buf, _ = _fill(capacity, stream)
        n = min(2, int(buf.sizes[0]))
        np.testing.assert_array_equal(buf.last_windows(np.array([0]), n)[0], buf.view(0)[-n:])

    @given(
        st.integers(2, 12),
        st.lists(st.floats(-10, 10, allow_nan=False, width=64), min_size=1, max_size=40),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_last_into_matches_view_suffix_for_all_n(self, capacity, stream, data):
        """The gather into a caller-owned buffer equals the model's tail at every wrap state."""
        buf, model = _fill(capacity, stream)
        n = data.draw(st.integers(1, len(model)))
        out = np.empty((1, n, 1))
        result = buf.last_windows(np.array([0]), n, out=out)
        assert result is out
        np.testing.assert_array_equal(out[0], np.array(model)[-n:])


class TestMatrixRingBufferProperties:
    @given(
        st.integers(1, 5),
        st.integers(2, 10),
        st.lists(
            st.lists(st.booleans(), min_size=1, max_size=5),
            min_size=0,
            max_size=30,
        ),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_each_stream_matches_a_rolling_buffer(self, streams, capacity, masks, data):
        """A masked tick sequence == per-stream bounded-deque appends."""
        fleet = MatrixRingBuffer(streams, capacity, 1)
        models = [deque(maxlen=capacity) for _ in range(streams)]
        rng = np.random.default_rng(0)
        for tick_mask in masks:
            mask = np.resize(np.asarray(tick_mask, bool), streams)
            records = rng.normal(size=(streams, 1))
            fleet.append_tick(records, mask=mask)
            for i in range(streams):
                if mask[i]:
                    models[i].append(records[i])
        for i, model in enumerate(models):
            expected = np.array(model).reshape(len(model), 1)
            np.testing.assert_array_equal(fleet.view(i), expected)
            assert int(fleet.sizes[i]) == len(model)
            if len(model) >= 1:
                w = data.draw(st.integers(1, len(model)))
                np.testing.assert_array_equal(
                    fleet.last_windows(np.array([i]), w)[0], expected[-w:]
                )

    @given(
        st.integers(1, 6),
        st.integers(2, 10),
        st.integers(1, 3),
        st.lists(st.lists(st.booleans(), min_size=1, max_size=6), min_size=1, max_size=40),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_out_gather_of_many_streams_matches_deques(
        self, streams, capacity, features, masks, data
    ):
        """``last_windows(idx, w, out=...)`` into a fleet-style batch == deque tails."""
        fleet = MatrixRingBuffer(streams, capacity, features)
        models = [deque(maxlen=capacity) for _ in range(streams)]
        rng = np.random.default_rng(1)
        for tick_mask in masks:
            mask = np.resize(np.asarray(tick_mask, bool), streams)
            records = rng.normal(size=(streams, features))
            fleet.append_tick(records, mask=mask)
            for i in np.flatnonzero(mask):
                models[i].append(records[i])
        sizes = np.array([len(m) for m in models])
        if sizes.max() == 0:
            return
        w = data.draw(st.integers(1, int(sizes.max())))
        idx = np.flatnonzero(sizes >= w)
        dtype = data.draw(st.sampled_from([np.float64, np.float32]))
        batch = np.full((streams, w, features), np.nan, dtype=dtype)  # the fleet's buffer
        result = fleet.last_windows(idx, w, out=batch[: len(idx)])
        assert result.base is batch or result is batch
        for row, i in enumerate(idx):
            expected = np.array(models[i])[-w:].astype(dtype)
            np.testing.assert_array_equal(batch[row], expected)
        assert np.isnan(batch[len(idx) :]).all()  # rows past the gather untouched
