"""Estimator/FittedModel implementations and the standard registrations.

McCatch and every baseline in :func:`repro.baselines.all_detectors`
are registered here, so ``make_estimator("<name>?<params>")`` covers
the whole inventory.  Three baselines whose algorithms permit a real
fit/score split get **inductive** models that score held-out batches
against the fitted state:

- ``knnout`` — distance to the k-th nearest *fitted* point;
- ``lof`` — classic inductive LOF: the held-out point's reachability
  against the fitted k-distances and lrds;
- ``dbout`` — negated count of fitted points within the radius frozen
  at fit time.

Everything else is wrapped in :class:`TransductiveModel`, which
documents the honest semantics: those algorithms (in-degree graphs,
clusterings, forests over the sample, autoencoders trained
transductively) define scores only relative to the full dataset, so
``score_batch`` re-runs the detector on fitted data + batch and
returns the batch rows' scores.

All models persist to a single ``.npz``; :func:`load_model` dispatches
on the embedded format tag and serves uncompressed archives via
memory-mapping on request (``mmap=True``), sharing one on-disk model
across scoring processes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.api.base import Estimator, FittedModel
from repro.api.registry import (
    DetectorEntry,
    IntTuple,
    Param,
    make_estimator,
    register_detector,
)
from repro.baselines import (
    ABOD,
    ALOCI,
    DBOut,
    DBSCAN,
    DIAD,
    DMCA,
    DOIForest,
    DeepSVDD,
    FastABOD,
    GLOSH,
    Gen2Out,
    IForest,
    KMeansMinusMinus,
    KNNOut,
    LDOF,
    LOCI,
    LOF,
    ODIN,
    OPTICS,
    PLDOF,
    RDA,
    SCiForest,
    Sparx,
    XTreK,
)
from repro.baselines.base import BaseDetector, check_finite_scores, knn_distances
from repro.baselines.dbout import resolve_radius
from repro.baselines.lof import lof_fit_arrays, lof_score_against
from repro.core.mccatch import BatchScores, McCatch, McCatchModel
from repro.engine import count_within_to, knn_to
from repro.io.models import MODEL_FORMATS as MCCATCH_MODEL_FORMATS
from repro.io.models import model_from_payload
from repro.metric.base import MetricSpace
from repro.metric.vector import vector_metric
from repro.utils.validation import as_batch_rows, as_float_array

#: Schema tag of the generic (non-McCatch) fitted-model archive.
API_MODEL_FORMAT = "repro.api-model.v1"


# ---------------------------------------------------------------------------
# McCatch
# ---------------------------------------------------------------------------


class McCatchEstimator(Estimator):
    """The unified-API face of :class:`~repro.core.mccatch.McCatch`.

    ``metric`` is the spec's ``metric=`` parameter (an L_p name such as
    ``"manhattan"``), kept on the estimator because it is a property of
    the *fit*, not of the McCatch hyperparameters.  Putting it in the
    spec keeps registry keys honest: models fitted on the same data
    under different metrics are different artifacts.
    """

    def __init__(self, spec: str, detector: McCatch, *, metric: str | None = None):
        self._spec = spec
        self.detector = detector
        self.metric = metric

    @property
    def spec(self) -> str:
        return self._spec

    def fit(self, data, metric=None) -> "McCatchServingModel":
        if metric is not None and self.metric is not None:
            raise TypeError(
                f"{self._spec} already pins metric={self.metric!r}; "
                "don't pass metric= to fit as well"
            )
        effective = metric if metric is not None else self.metric
        if effective is not None and isinstance(data, MetricSpace):
            # a prepared space carries its own metric, which fit_model
            # would use while the spec claims another — the registry
            # would then serve a model its spec does not describe
            if not (
                isinstance(effective, str)
                and data.is_vector
                and getattr(data.metric, "p", None)
                == getattr(vector_metric(effective), "p", object())
            ):
                raise TypeError(
                    f"{self._spec} pins metric={effective!r}, but the data is "
                    "a prepared MetricSpace carrying a different metric; pass "
                    "the raw array instead"
                )
            effective = None  # the space already carries the right metric
        return McCatchServingModel(self._spec, self.detector.fit_model(data, effective))


class McCatchServingModel(FittedModel):
    """A fitted McCatch behind the unified contract.

    Wraps the core :class:`~repro.core.mccatch.McCatchModel` (exposed
    as :attr:`model` for the full result/microcluster view);
    ``score_batch`` returns the plain score array, ``score_details``
    the full :class:`~repro.core.mccatch.BatchScores` with the flagged
    positions.
    """

    def __init__(self, spec: str | None, model: McCatchModel):
        model.spec = spec
        self._spec = spec
        self.model = model

    @property
    def spec(self) -> str | None:
        """The producing spec — ``None`` for archives saved outside the
        unified API (the core hyperparameters are not recoverable from
        the artifact, and inventing a default spec would misattribute
        the model; a spec-less model cannot be published)."""
        return self._spec

    @property
    def training_scores(self) -> np.ndarray:
        return self.model.result.point_scores

    @property
    def training_data(self):
        return self.model.space.data

    @property
    def n_fitted(self) -> int:
        return self.model.n

    def score_batch(self, batch) -> np.ndarray:
        return self.model.score_batch(batch).scores

    def score_details(self, batch) -> BatchScores:
        """Scores plus flagged batch positions (``g >= d``)."""
        return self.model.score_batch(batch)

    def save(self, path) -> Path:
        return self.model.save(path)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


class BaselineEstimator(Estimator):
    """Spec-built estimator around one :class:`BaseDetector` instance."""

    def __init__(self, spec: str, detector: BaseDetector, model_factory):
        self._spec = spec
        self.detector = detector
        self._model_factory = model_factory

    @property
    def spec(self) -> str:
        return self._spec

    def fit(self, data, metric=None) -> FittedModel:
        if isinstance(data, MetricSpace):
            if not data.is_vector:
                raise TypeError(
                    f"{self._spec}: baselines require vector data "
                    "(only McCatch handles nondimensional spaces)"
                )
            if getattr(data.metric, "p", None) != 2.0:
                raise TypeError(
                    f"{self._spec}: baselines score Euclidean vectors only; "
                    "this space carries a non-Euclidean metric "
                    "(a McCatch capability)"
                )
            data = data.data
        if metric is not None:
            raise TypeError(
                f"{self._spec}: baselines score Euclidean vectors only; "
                "a custom metric is a McCatch capability"
            )
        model = self._model_factory(self._spec, self.detector, as_float_array(data))
        # the inductive fits compute from shared kernels directly, so
        # apply the same guard fit_scores enforces on every other path
        check_finite_scores(self.detector.name, np.asarray(model.training_scores))
        return model


class _ArrayModel(FittedModel):
    """Shared ``.npz`` plumbing for the baseline fitted models."""

    kind: str = ""

    def __init__(self, spec: str, X: np.ndarray, training_scores: np.ndarray):
        self._spec = spec
        self._X = np.asarray(X, dtype=np.float64)
        self._training_scores = np.asarray(training_scores, dtype=np.float64)
        self._space: MetricSpace | None = None

    @property
    def spec(self) -> str:
        return self._spec

    @property
    def training_scores(self) -> np.ndarray:
        return self._training_scores

    @property
    def training_data(self) -> np.ndarray:
        return self._X

    def _fitted_space(self) -> MetricSpace:
        if self._space is None:
            self._space = MetricSpace(self._X)
        return self._space

    def _as_batch(self, batch) -> np.ndarray:
        """Batch rows as (b, d) float64, d pinned to the fitted width
        (see :func:`repro.utils.validation.as_batch_rows`)."""
        return as_batch_rows(batch, self._X.shape[1])

    def _extra_payload(self) -> dict:
        return {}

    def save(self, path) -> Path:
        payload = {
            "format": np.str_(API_MODEL_FORMAT),
            "model_kind": np.str_(self.kind),
            "spec": np.str_(self._spec),
            "X": self._X,
            "training_scores": self._training_scores,
        }
        payload.update(self._extra_payload())
        path = Path(path)
        with open(path, "wb") as f:
            np.savez(f, **payload)
        return path


class KNNOutModel(_ArrayModel):
    """Inductive kNN-Out: held-out score = distance to the k-th nearest
    fitted point (self-exclusion is moot — the point is not in the fit)."""

    kind = "knnout"

    def __init__(self, spec, X, k: int, training_scores):
        super().__init__(spec, X, training_scores)
        self.k = int(k)

    @classmethod
    def fit(cls, spec: str, detector: KNNOut, X: np.ndarray) -> "KNNOutModel":
        # store the *effective* (clamped) k: held-out scoring must use
        # the same neighborhood size the fitted scores were built with
        k = min(detector.k, X.shape[0] - 1)
        dists, _ = knn_distances(X, k)
        return cls(spec, X, k, dists[:, -1])

    def score_batch(self, batch) -> np.ndarray:
        rows = self._as_batch(batch)
        n = self._X.shape[0]
        # self.k was clamped to n-1 at fit time: held-out scoring uses
        # the exact neighborhood size the training scores were built with
        dists, _ = knn_to(self._fitted_space(), rows, np.arange(n), self.k)
        return dists[:, -1]

    def _extra_payload(self) -> dict:
        return {"k": np.int64(self.k)}

    @classmethod
    def _from_payload(cls, payload) -> "KNNOutModel":
        return cls(
            str(payload["spec"][()]), payload["X"], int(payload["k"][()]),
            payload["training_scores"],
        )


class LOFModel(_ArrayModel):
    """Inductive LOF: held-out reachability against the fitted
    k-distances and local reachability densities."""

    kind = "lof"

    def __init__(self, spec, X, k: int, k_distance, lrd, training_scores):
        super().__init__(spec, X, training_scores)
        self.k = int(k)
        self.k_distance = np.asarray(k_distance, dtype=np.float64)
        self.lrd = np.asarray(lrd, dtype=np.float64)

    @classmethod
    def fit(cls, spec: str, detector: LOF, X: np.ndarray) -> "LOFModel":
        # effective (clamped) k, for the same reason as KNNOutModel.fit
        k = min(detector.k, X.shape[0] - 1)
        k_distance, lrd, scores = lof_fit_arrays(X, k)
        return cls(spec, X, k, k_distance, lrd, scores)

    def score_batch(self, batch) -> np.ndarray:
        rows = self._as_batch(batch)
        n = self._X.shape[0]
        # self.k was clamped at fit time (see KNNOutModel.score_batch)
        dists, pos = knn_to(self._fitted_space(), rows, np.arange(n), self.k)
        return lof_score_against(self.k_distance, self.lrd, dists, pos)

    def _extra_payload(self) -> dict:
        return {"k": np.int64(self.k), "k_distance": self.k_distance, "lrd": self.lrd}

    @classmethod
    def _from_payload(cls, payload) -> "LOFModel":
        return cls(
            str(payload["spec"][()]), payload["X"], int(payload["k"][()]),
            payload["k_distance"], payload["lrd"], payload["training_scores"],
        )


class DBOutModel(_ArrayModel):
    """Inductive DB-Out: the query radius is frozen at fit time, so a
    held-out point's score is comparable to the training scores."""

    kind = "dbout"

    def __init__(self, spec, X, radius: float, training_scores):
        super().__init__(spec, X, training_scores)
        self.radius = float(radius)

    @classmethod
    def fit(cls, spec: str, detector: DBOut, X: np.ndarray) -> "DBOutModel":
        # training scores come from the detector itself (one source of
        # truth, non-finite guard included); only the radius is kept
        # separately so held-out batches query the same ball
        radius = resolve_radius(X, detector.radius_fraction)
        return cls(spec, X, radius, detector.fit_scores(X))

    def score_batch(self, batch) -> np.ndarray:
        rows = self._as_batch(batch)
        n = self._X.shape[0]
        counts = count_within_to(self._fitted_space(), rows, np.arange(n), self.radius)
        return -counts.astype(np.float64)

    def _extra_payload(self) -> dict:
        return {"radius": np.float64(self.radius)}

    @classmethod
    def _from_payload(cls, payload) -> "DBOutModel":
        return cls(
            str(payload["spec"][()]), payload["X"], float(payload["radius"][()]),
            payload["training_scores"],
        )


class TransductiveModel(_ArrayModel):
    """Fit/score wrapper for detectors with no inductive split.

    Most baselines define a point's score only relative to the whole
    dataset (kNN-graph in-degree, cluster assignments, forests built
    over the sample, transductively trained autoencoders).  This
    wrapper keeps the honest semantics explicit instead of papering
    over them: :meth:`score_batch` re-runs the detector on the fitted
    data with the batch appended and returns the batch rows' scores —
    O(fit) work per call, the real price of a transductive algorithm.
    Randomized detectors replay their ``random_state``, so a fixed
    seed makes ``score_batch`` deterministic and save/load round-trips
    bit-identical.
    """

    kind = "transductive"

    def __init__(self, spec, X, detector: BaseDetector, training_scores):
        super().__init__(spec, X, training_scores)
        self.detector = detector

    @classmethod
    def fit(cls, spec: str, detector: BaseDetector, X: np.ndarray) -> "TransductiveModel":
        return cls(spec, X, detector, detector.fit_scores(X))

    def score_batch(self, batch) -> np.ndarray:
        rows = self._as_batch(batch)
        combined = np.vstack([self._X, rows])
        return self.detector.fit_scores(combined)[self._X.shape[0] :]

    @classmethod
    def _from_payload(cls, payload) -> "TransductiveModel":
        spec = str(payload["spec"][()])
        estimator = make_estimator(spec)
        return cls(spec, payload["X"], estimator.detector, payload["training_scores"])


#: model_kind tag -> class, for the load dispatch.
_MODEL_KINDS: dict[str, type[_ArrayModel]] = {
    cls.kind: cls for cls in (KNNOutModel, LOFModel, DBOutModel, TransductiveModel)
}


def load_model(path, *, mmap: bool = False) -> FittedModel:
    """Load any model saved through the unified API (format-dispatching).

    Handles both the McCatch archives
    (:data:`repro.io.models.MODEL_FORMATS`) and the generic baseline
    archive (:data:`API_MODEL_FORMAT`).  ``mmap=True`` serves the
    arrays as read-only maps of the (uncompressed) archive, so many
    scoring processes share one on-disk copy.
    """
    if mmap:
        from repro.io.mmap import open_npz_mmap

        payload = open_npz_mmap(path)
    else:
        from repro.io.mmap import MappedArchive

        with np.load(Path(path), allow_pickle=False) as npz:
            payload = MappedArchive({key: np.asarray(npz[key]) for key in npz.files})
    fmt = str(payload["format"][()]) if "format" in payload else None
    if fmt in MCCATCH_MODEL_FORMATS:
        core = model_from_payload(payload)
        return McCatchServingModel(core.spec, core)
    if fmt == API_MODEL_FORMAT:
        kind = str(payload["model_kind"][()])
        if kind not in _MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r} in {path}")
        return _MODEL_KINDS[kind]._from_payload(payload)
    raise ValueError(f"unsupported model format: {fmt!r}")


# ---------------------------------------------------------------------------
# Registrations
# ---------------------------------------------------------------------------

#: ``seed`` is the uniform spec key for every ``random_state`` knob.
_SEED = Param(int, None, attr="random_state")

_MCCATCH_PARAMS = {
    "a": Param(int, 15, attr="n_radii"),
    "b": Param(float, 0.1, attr="max_slope"),
    "c": Param(float, 0.1, attr="max_cardinality_fraction"),
    "cmax": Param(int, None, attr="max_cardinality"),
    "index": Param(str, "auto", attr="index"),
    "engine": Param(str, "batched", attr="engine_mode"),
    # parallel-engine pool size; None = the usable core count.  Only
    # valid with engine=parallel (McCatch rejects the combination
    # loudly otherwise), e.g. "mccatch?engine=parallel&workers=8".
    "workers": Param(int, None),
    "t": Param(float, None, attr="transformation_cost"),
    "sparse": Param(bool, True, attr="sparse_focused"),
    # fit-time L_p metric name; lives on the estimator, not the McCatch
    # constructor.  The default is "euclidean" so spelling it out
    # canonicalizes away: "mccatch?metric=euclidean" keys a registry
    # identically to "mccatch".
    "metric": Param(str, "euclidean"),
}


def _build_mccatch(spec: str, params: dict) -> McCatchEstimator:
    kwargs = {
        _MCCATCH_PARAMS[k].resolve_kw(k): v
        for k, v in params.items()
        if k != "metric"
    }
    return McCatchEstimator(spec, McCatch(**kwargs), metric=params.get("metric"))


register_detector(
    DetectorEntry(
        name="mccatch",
        build=_build_mccatch,
        params=_MCCATCH_PARAMS,
        detector_cls=McCatch,
        description="McCatch microcluster detector (the paper's method)",
    )
)


def _register_baseline(
    name: str,
    cls: type[BaseDetector],
    params: dict[str, Param],
    *,
    model_factory=TransductiveModel.fit,
    aliases: tuple[str, ...] = (),
    grid_name: str | None = None,
) -> None:
    def build(spec: str, coerced: dict) -> BaselineEstimator:
        kwargs = {params[k].resolve_kw(k): v for k, v in coerced.items()}
        return BaselineEstimator(spec, cls(**kwargs), model_factory)

    register_detector(
        DetectorEntry(
            name=name,
            build=build,
            params=params,
            detector_cls=cls,
            aliases=aliases + (cls.name,),
            description=(cls.__doc__ or "").strip().splitlines()[0],
            grid_name=grid_name,
        )
    )


_register_baseline("abod", ABOD, {}, grid_name="ABOD")
_register_baseline("fastabod", FastABOD, {"k": Param(int, 10)}, grid_name="FastABOD")
_register_baseline(
    "knnout", KNNOut, {"k": Param(int, 5)},
    model_factory=KNNOutModel.fit, aliases=("knn",), grid_name="kNN-Out",
)
_register_baseline("odin", ODIN, {"k": Param(int, 5)}, grid_name="ODIN")
_register_baseline(
    "lof", LOF, {"k": Param(int, 5)}, model_factory=LOFModel.fit, grid_name="LOF"
)
_register_baseline(
    "dbout", DBOut, {"radius_fraction": Param(float, 0.1)},
    model_factory=DBOutModel.fit, grid_name="DB-Out",
)
_register_baseline(
    "loci", LOCI,
    {"alpha": Param(float, 0.5), "n_min": Param(int, 20), "n_radii": Param(int, 20)},
    grid_name="LOCI",
)
_register_baseline(
    "aloci", ALOCI,
    {
        "n_grids": Param(int, 15),
        "n_levels": Param(int, 10),
        "n_min": Param(int, 20),
        "seed": _SEED,
    },
    grid_name="ALOCI",
)
_register_baseline(
    "iforest", IForest,
    {"n_trees": Param(int, 100), "subsample": Param(int, 256), "seed": _SEED},
    grid_name="iForest",
)
_register_baseline(
    "gen2out", Gen2Out,
    {
        "n_trees": Param(int, 64),
        "lower_bound": Param(int, 1),
        "upper_bound": Param(int, 11),
        "max_depth_factor": Param(int, 3),
        "contamination": Param(float, 0.02),
        "seed": _SEED,
    },
    grid_name="Gen2Out",
)
_register_baseline(
    "dmca", DMCA,
    {
        "psi": Param(int, 64),
        "n_estimators": Param(int, 64),
        "contamination": Param(float, 0.1),
        "seed": _SEED,
    },
    grid_name="D.MCA",
)
_register_baseline(
    "rda", RDA,
    {
        "n_layers": Param(int, 3),
        "dim_decay": Param(int, 2),
        "n_iter": Param(int, 20),
        "lam": Param(float, 7.5e-5),
        "epochs_per_iter": Param(int, 5),
        "learning_rate": Param(float, 1e-2),
        "seed": _SEED,
    },
    grid_name="RDA",
)
_register_baseline(
    "dbscan", DBSCAN, {"eps": Param(float, None), "min_pts": Param(int, 5)}
)
_register_baseline(
    "optics", OPTICS, {"min_pts": Param(int, 5), "max_eps": Param(float, None)}
)
_register_baseline(
    "kmeansmm", KMeansMinusMinus,
    {
        "n_clusters": Param(int, 3),
        "n_outliers": Param(float, 0.05),
        "n_iter": Param(int, 30),
        "seed": _SEED,
    },
)
_register_baseline("ldof", LDOF, {"k": Param(int, 10)})
_register_baseline(
    "pldof", PLDOF,
    {
        "k": Param(int, 10),
        "n_clusters": Param(int, 5),
        "keep_fraction": Param(float, 0.2),
        "seed": _SEED,
    },
)
_register_baseline(
    "sciforest", SCiForest,
    {
        "n_trees": Param(int, 50),
        "subsample": Param(int, 256),
        "n_hyperplanes": Param(int, 5),
        "n_thresholds": Param(int, 8),
        "seed": _SEED,
    },
)
_register_baseline(
    "glosh", GLOSH, {"min_pts": Param(int, 5), "min_cluster_size": Param(int, 5)}
)
_register_baseline(
    "deepsvdd", DeepSVDD,
    {
        "hidden": Param(IntTuple, None),
        "n_epochs": Param(int, 60),
        "learning_rate": Param(float, 1e-3),
        "weight_decay": Param(float, 1e-4),
        "seed": _SEED,
    },
)
_register_baseline(
    "sparx", Sparx,
    {"n_chains": Param(int, 32), "depth": Param(int, 10), "seed": _SEED},
)
_register_baseline(
    "xtrek", XTreK,
    {
        "max_depth": Param(int, 6),
        "min_leaf": Param(int, 8),
        "psi": Param(int, 64),
        "n_candidate_splits": Param(int, 16),
        "seed": _SEED,
    },
)
_register_baseline(
    "diad", DIAD, {"n_bins": Param(int, 16), "n_pairs": Param(int, 4)}
)
_register_baseline(
    "doiforest", DOIForest,
    {
        "n_trees": Param(int, 64),
        "subsample": Param(int, 256),
        "n_generations": Param(int, 3),
        "mutation_rate": Param(float, 0.25),
        "seed": _SEED,
    },
)
