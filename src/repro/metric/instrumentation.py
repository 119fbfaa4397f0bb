"""Distance-call accounting: measure what the indexes actually pay.

The paper's Sec. IV-G principles (sparse-focused, count-only,
using-index, small-radii-only) are all about *avoiding distance
evaluations*.  :class:`CountingMetricSpace` wraps any
:class:`~repro.metric.base.MetricSpace` and counts every scalar and
bulk evaluation flowing through it, so tests and ablations can assert
the savings instead of inferring them from wall-clock noise.

Example
-------
>>> import numpy as np
>>> from repro.metric.base import MetricSpace
>>> from repro.metric.instrumentation import CountingMetricSpace
>>> space = CountingMetricSpace(MetricSpace(np.random.default_rng(0).normal(size=(50, 2))))
>>> _ = space.distances(0, np.arange(50))
>>> space.counter.total
50
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.metric.base import MetricSpace


@dataclass
class DistanceCounter:
    """Tally of distance evaluations, split by call shape."""

    scalar_calls: int = 0  # distance(i, j) pairs
    bulk_pairs: int = 0  # pairs evaluated through bulk paths
    bulk_calls: int = 0  # number of bulk invocations
    seconds: float = 0.0  # wall time inside counted calls (timed proxies only)

    @property
    def total(self) -> int:
        """Total pairwise distance evaluations."""
        return self.scalar_calls + self.bulk_pairs

    def reset(self) -> None:
        """Zero all tallies."""
        self.scalar_calls = 0
        self.bulk_pairs = 0
        self.bulk_calls = 0
        self.seconds = 0.0

    def __repr__(self) -> str:
        return (
            f"DistanceCounter(total={self.total}, scalar={self.scalar_calls}, "
            f"bulk_pairs={self.bulk_pairs} over {self.bulk_calls} calls)"
        )


class CountingMetricSpace(MetricSpace):
    """A MetricSpace proxy that counts every distance evaluation.

    Behaves identically to the wrapped space (same data, same metric,
    same numeric results) while recording traffic in :attr:`counter`.
    Pass it anywhere a MetricSpace is accepted — ``build_index``,
    ``McCatch.fit``, the joins, or a served model's space.

    With ``timed=True`` the out-of-dataset paths (:meth:`distances_to`,
    :meth:`distances_to_many`, :meth:`paired_distances_to` and the
    compiled nearest walk's :meth:`credit_evaluations`, the last two
    being the serving score walk's) additionally accumulate their wall
    time into ``counter.seconds``; the default skips the clock reads
    entirely.
    An existing counter may be passed so several proxies (e.g. the
    spaces of successive hot-swapped model generations) share one
    monotonic tally.
    """

    def __init__(
        self,
        inner: MetricSpace,
        *,
        counter: DistanceCounter | None = None,
        timed: bool = False,
    ):
        # Reuse the inner space's validated state rather than re-validating.
        self.data = inner.data
        self.is_vector = inner.is_vector
        self._vm = inner._vm
        self.metric = inner.metric
        self._inner = inner
        self.counter = counter if counter is not None else DistanceCounter()
        self.timed = timed

    def distance(self, i: int, j: int) -> float:
        """Counted scalar distance (see :class:`MetricSpace`)."""
        self.counter.scalar_calls += 1
        return self._inner.distance(i, j)

    def distances(self, query_index, indices):
        """Counted bulk distances (see :class:`MetricSpace`)."""
        out = self._inner.distances(query_index, indices)
        self.counter.bulk_calls += 1
        self.counter.bulk_pairs += int(out.size)
        return out

    def distances_to(self, obj, indices):
        """Counted out-of-dataset distances (see :class:`MetricSpace`)."""
        t0 = time.perf_counter() if self.timed else 0.0
        out = self._inner.distances_to(obj, indices)
        if self.timed:
            self.counter.seconds += time.perf_counter() - t0
        self.counter.bulk_calls += 1
        self.counter.bulk_pairs += int(out.size)
        return out

    def distances_to_many(self, objs, indices):
        """Counted out-of-dataset block distances."""
        t0 = time.perf_counter() if self.timed else 0.0
        out = self._inner.distances_to_many(objs, indices)
        if self.timed:
            self.counter.seconds += time.perf_counter() - t0
        self.counter.bulk_calls += 1
        self.counter.bulk_pairs += int(out.size)
        return out

    def paired_distances_to(self, rows, indices):
        """Counted out-of-dataset row-aligned distances (the serving walk)."""
        t0 = time.perf_counter() if self.timed else 0.0
        out = self._inner.paired_distances_to(rows, indices)
        if self.timed:
            self.counter.seconds += time.perf_counter() - t0
        self.counter.bulk_calls += 1
        self.counter.bulk_pairs += int(out.size)
        return out

    def credit_evaluations(self, pairs: int, seconds: float) -> None:
        """Count distances evaluated in compiled code as one bulk call
        (their ``seconds`` too, when timed)."""
        if self.timed:
            self.counter.seconds += seconds
        self.counter.bulk_calls += 1
        self.counter.bulk_pairs += int(pairs)

    def paired_distances(self, left, right):
        """Counted row-aligned distances (see :class:`MetricSpace`)."""
        out = self._inner.paired_distances(left, right)
        self.counter.bulk_calls += 1
        self.counter.bulk_pairs += int(out.size)
        return out

    def distances_among(self, left, right):
        """Counted cross distances (see :class:`MetricSpace`)."""
        out = self._inner.distances_among(left, right)
        self.counter.bulk_calls += 1
        self.counter.bulk_pairs += int(out.size)
        return out

    def distance_matrix(self) -> np.ndarray:
        """Counted full matrix (see :class:`MetricSpace`)."""
        out = self._inner.distance_matrix()
        self.counter.bulk_calls += 1
        self.counter.bulk_pairs += int(out.size)
        return out

    def subset(self, indices) -> "CountingMetricSpace":
        """Subset shares this proxy's counter (total traffic attribution)."""
        return CountingMetricSpace(
            self._inner.subset(indices), counter=self.counter, timed=self.timed
        )
