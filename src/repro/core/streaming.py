"""Streaming McCatch: batched ingestion with amortized refits.

The paper's McCatch is a batch algorithm; fraud and intrusion feeds
(its motivating workloads, Sec. I) arrive continuously.  This
extension keeps the batch algorithm as the source of truth and wraps
it in the standard streaming recipe:

- **Geometric refits.**  A full McCatch refit runs whenever the data
  has grown by ``refit_factor`` since the last one.  Refitting at
  n, 1.5n, 2.25n, ... keeps the *total* work a constant factor of one
  final fit, so the subquadratic bound of Lemma 1 survives streaming.
- **Provisional scores in between.**  Until the next refit, each new
  element is scored against the current model: its distance ``g`` to
  the nearest current *inlier* is plugged into the paper's per-point
  score ``w = ⟨1 + g/r₁⟩`` (Alg. 4 line 22), and it is provisionally
  flagged when ``g ≥ d`` — the Cutoff's own semantics ("the minimum
  distance required between one microcluster and its nearest inlier").
- **Optional sliding window.**  With ``max_window`` set, only the most
  recent elements participate; older ones age out before the next
  refit.

After any :meth:`refit`, :attr:`result` is *identical* to running
:class:`~repro.core.mccatch.McCatch` on the current window from
scratch — streaming adds no approximation at refit points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.mccatch import McCatch, McCatchModel
from repro.core.result import McCatchResult
from repro.metric.base import MetricSpace


def _coerce_detector(detector) -> McCatch:
    """Normalize the ``detector`` argument to a McCatch instance.

    Accepts a McCatch, ``None`` (paper defaults), or anything the
    serving API resolves — a spec string or an estimator — as long as
    it describes McCatch: streaming refits run the full algorithm, so
    a baseline spec has nothing to refit with.
    """
    if detector is None:
        return McCatch()
    if isinstance(detector, McCatch):
        return detector
    from repro.api import make_estimator
    from repro.api.estimators import McCatchEstimator

    estimator = make_estimator(detector)
    if not isinstance(estimator, McCatchEstimator):
        raise TypeError(
            f"streaming requires a McCatch detector, got spec {estimator.spec!r}"
        )
    if estimator.metric is not None:
        raise TypeError(
            f"spec {estimator.spec!r} pins a fit metric; pass metric= to "
            "StreamingMcCatch instead"
        )
    return estimator.detector


@dataclass(frozen=True)
class StreamingUpdate:
    """What one :meth:`StreamingMcCatch.update` call produced.

    Attributes
    ----------
    n_new:
        Number of elements ingested by this call.
    n_seen:
        Total elements ingested so far (before any window eviction).
    refitted:
        True if this update triggered a full McCatch refit.
    provisional_scores:
        Per-new-element scores ``w = ⟨1 + g/r₁⟩``; on a refit these are
        the exact batch scores of the new elements instead.
    provisional_outliers:
        Window positions of new elements with ``g ≥ d`` (or, after a
        refit, the new elements the batch run flagged).
    """

    n_new: int
    n_seen: int
    refitted: bool
    provisional_scores: np.ndarray
    provisional_outliers: np.ndarray


class StreamingMcCatch:
    """Batched streaming wrapper around :class:`McCatch`.

    Parameters
    ----------
    detector:
        Configured McCatch instance (defaults to paper defaults), or a
        serving-API spec string / estimator for one
        (``"mccatch?a=15&engine=batched"``, see
        :func:`repro.api.make_estimator`) — streaming is a McCatch
        capability, so non-McCatch specs are rejected.
    metric:
        Distance function for nondimensional elements (as in
        :meth:`McCatch.fit`).
    refit_factor:
        Refit when the window has grown by this factor since the last
        refit (must be > 1; smaller = fresher model, more work).
    min_fit_size:
        Defer the first fit until this many elements arrived (McCatch
        needs some mass for a meaningful radius ladder).
    max_window:
        Sliding-window size; ``None`` keeps everything.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.streaming import StreamingMcCatch
    >>> rng = np.random.default_rng(0)
    >>> stream = StreamingMcCatch()
    >>> for _ in range(4):
    ...     _ = stream.update(rng.normal(0, 1, (100, 2)))
    >>> update = stream.update(np.array([[9.0, 9.0], [9.1, 9.0]]))
    >>> bool(update.provisional_outliers.size)
    True
    """

    def __init__(
        self,
        detector: McCatch | None = None,
        *,
        metric=None,
        refit_factor: float = 1.5,
        min_fit_size: int = 32,
        max_window: int | None = None,
    ):
        if refit_factor <= 1.0:
            raise ValueError(f"refit_factor must be > 1, got {refit_factor}")
        if min_fit_size < 2:
            raise ValueError(f"min_fit_size must be >= 2, got {min_fit_size}")
        if max_window is not None and max_window < min_fit_size:
            raise ValueError("max_window must be >= min_fit_size")
        self.detector = _coerce_detector(detector)
        self.metric = metric
        self.refit_factor = float(refit_factor)
        self.min_fit_size = int(min_fit_size)
        self.max_window = max_window
        self._window: list = []
        self._fit_window: list = []
        self._is_vector: bool | None = None
        self._n_seen = 0
        self._last_fit_size = 0
        self._result: McCatchResult | None = None
        self._model: McCatchModel | None = None  # lazy scoring view of _result

    # -- public API ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._window)

    @property
    def n_seen(self) -> int:
        """Total elements ingested (including any that aged out)."""
        return self._n_seen

    @property
    def result(self) -> McCatchResult | None:
        """The latest full McCatch result (None before the first fit).

        Indices in the result refer to positions in :attr:`window_data`
        *at the time of the last refit*; call :meth:`refit` for a
        result aligned with the current window.
        """
        return self._result

    @property
    def window_data(self):
        """The current window as an array (vector) or list (objects)."""
        if self._is_vector:
            return np.asarray(self._window, dtype=np.float64)
        return list(self._window)

    def update(self, batch) -> StreamingUpdate:
        """Ingest ``batch`` and return scores/flags for its elements."""
        rows = self._coerce_batch(batch)
        if not rows:
            return StreamingUpdate(0, self._n_seen, False, np.array([]), np.array([], dtype=np.intp))
        self._window.extend(rows)
        self._n_seen += len(rows)
        self._evict()

        must_fit = self._result is None and len(self._window) >= self.min_fit_size
        due = (
            self._result is not None
            and len(self._window) >= self.refit_factor * self._last_fit_size
        )
        if must_fit or due:
            self.refit()
            new_positions = np.arange(len(self._window) - len(rows), len(self._window))
            scores = self._result.point_scores[new_positions]
            flagged_set = set(int(i) for i in self._result.outlier_indices)
            flagged = np.array(
                [int(p) for p in new_positions if int(p) in flagged_set], dtype=np.intp
            )
            return StreamingUpdate(len(rows), self._n_seen, True, scores, flagged)

        if self._result is None:  # still warming up
            return StreamingUpdate(
                len(rows), self._n_seen, False,
                np.zeros(len(rows)), np.array([], dtype=np.intp),
            )
        scores, flagged_local = self._provisional(rows)
        offset = len(self._window) - len(rows)
        return StreamingUpdate(
            len(rows), self._n_seen, False, scores, flagged_local + offset
        )

    def refit(self) -> McCatchResult:
        """Run full McCatch on the current window now."""
        if len(self._window) < 2:
            raise RuntimeError("need at least 2 elements to fit")
        self._result = self.detector.fit(self.window_data, self.metric)
        self._last_fit_size = len(self._window)
        # Snapshot the fitted elements: provisional scoring must look up
        # the model's inliers even after window eviction shifts positions.
        self._fit_window = list(self._window)
        self._model = None  # rebuilt lazily against the new fit
        return self._result

    # -- internals -----------------------------------------------------------

    def _coerce_batch(self, batch) -> list:
        if isinstance(batch, (str, bytes)):
            raise TypeError(
                "update takes a batch of elements, got a bare "
                f"{type(batch).__name__}; wrap one element in a list"
            )
        if isinstance(batch, np.ndarray) and np.issubdtype(batch.dtype, np.number):
            arr = np.asarray(batch, dtype=np.float64)
            if arr.ndim == 1:
                arr = arr.reshape(1, -1) if self._is_vector is None or self._is_vector else arr
            if self._is_vector is None:
                self._is_vector = True
            elif not self._is_vector:
                raise TypeError("stream started with object data; got an array batch")
            return [row for row in arr]
        rows = list(batch)
        if self._is_vector is None:
            self._is_vector = False
            if self.metric is None:
                raise ValueError("object streams require a metric callable")
        elif self._is_vector:
            raise TypeError("stream started with vector data; got an object batch")
        return rows

    def _evict(self) -> None:
        if self.max_window is not None and len(self._window) > self.max_window:
            overflow = len(self._window) - self.max_window
            del self._window[:overflow]

    def _provisional(self, rows: list) -> tuple[np.ndarray, np.ndarray]:
        """Score new elements against the last fitted model.

        Delegates to :meth:`McCatchModel.score_batch` — the same
        scorer the serving contract (:mod:`repro.api`) and the
        persistence layer use, so a streamed provisional score, a
        served batch score, and a loaded-model score are one code
        path: ``g`` =
        distance to the nearest model inlier, score = ⟨1 + g/r₁⟩
        (Alg. 4 line 22), flagged iff ``g ≥ d``.  The model builds its
        inlier VP-tree once per refit; each element then costs one
        nearest-inlier walk over it.
        """
        if self._model is None:
            if self._is_vector:
                space = MetricSpace(np.asarray(self._fit_window, dtype=np.float64))
            else:
                space = MetricSpace(self._fit_window, self.metric)
            self._model = McCatchModel(space, None, self._result)
        batch = self._model.score_batch(rows)
        return batch.scores, batch.flagged
