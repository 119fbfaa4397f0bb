"""The three workloads: inputs made from a seed, the fit each runs, its checks.

Every fitted input and every served query row comes from a generator of
the program's own dataset module, seeded from ``--seed``; the program
sees only the generated rows.  Each timed fit uses a fresh input
(input ``j`` of the seed), so one run averages over several draws of
the generator instead of depending on one of them.

Sizes are smaller than the paper's showcase so that one run holds
enough fits for a steady median: ``make_http_like(n=10_000)`` fits in
about 1 s with the default index and 1.5 s sharded, and the served
model (n=5,000) in about 1 s.

Output checks gate every number, at two levels.  Per fit, exact
invariants only: a traced fit equals the untraced one, a sharded fit
equals the serial VP-tree fit, served scores equal offline ones.
Detection quality is judged per run, over all of its fits, because
single draws of the generator defeat McCatch now and then at these
sizes: over about 100 inputs the default index kept fewer than 20 of
the 30 DoS rows together on 3 (AUROC down to 0.71), and the VP-tree,
whose two-scan diameter estimate shortens the radius ladder, failed
the criterion below on about 1 input in 7 (on one 5-fit run, 3 of
5).  A run fails when the median AUROC of its fits is below the floor,
or when fewer than a quarter of its fits put all 30 DoS rows in one
microcluster of at most 40 members with AUROC >= 0.99 (the showcase
criterion, recorded per fit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from mcbench.common import auroc, sub_seed

STREAM_FIT, STREAM_QUERY, STREAM_WARMUP = 0, 1, 2

#: ``make_http_like`` at scale 1 puts its 30 DoS rows right before 36 rarities.
DOS_ROWS = 30
RARE_ROWS = 36
MAX_DOS_CLUSTER = 40
#: Per-run floors: the median AUROC of a run's fits, and the share of
#: its fits that meet the showcase criterion.
MEDIAN_AUROC = 0.95
STRICT_SHARE = 0.25

#: What ``repro fit --workers 2`` runs on this data.
SHARDED_SPEC = "mccatch?index=vptree&engine=parallel&workers=2"
#: What ``repro fit --spec mccatch --registry`` fits and publishes.
SERVE_FIT_SPEC = "mccatch?index=vptree"


@dataclass
class Fitted:
    """One fit: the core ``McCatchModel``, what the fit call returned,
    and a scorer for held-out rows."""

    core: object
    model: object
    score: Callable[[object], np.ndarray]

    @property
    def result(self):
        return self.core.result


def same_verdict(a, b) -> bool:
    """Bit-identical point scores and microcluster memberships."""
    return np.array_equal(a.point_scores, b.point_scores) and sorted(
        tuple(mc.indices.tolist()) for mc in a.microclusters
    ) == sorted(tuple(mc.indices.tolist()) for mc in b.microclusters)


class Workload:
    """One workload over ``make_http_like``: 3-d traffic with a 30-row
    DoS microcluster, fitted with ``spec`` (``None``: ``McCatch()``)."""

    block = 256  # rows per bulk scoring call
    pool = 1024  # held-out rows drawn for scoring

    def __init__(self, name: str, n: int, spec: str | None, *, serves: bool = False):
        self.name = name
        self.n = n
        self.spec = spec  # None: the library default McCatch() (cKDTree)
        self.serves = serves  # scored over HTTP by `repro serve`, not in process

    def fit_input(self, seed: int, j: int):
        """Input ``j`` of ``seed``: ``(data, labels)``."""
        from repro.datasets.benchmarks import make_http_like

        return make_http_like(n=self.n, random_state=sub_seed(seed, STREAM_FIT, j))

    def queries(self, seed: int):
        """Held-out rows to score, from a seed stream the fits never use."""
        from repro.datasets.benchmarks import make_http_like

        rows, _ = make_http_like(n=self.pool, random_state=sub_seed(seed, STREAM_QUERY))
        order = np.random.default_rng(sub_seed(seed, STREAM_QUERY, 1)).permutation(len(rows))
        return rows[order]

    def warmup_input(self, seed: int):
        from repro.datasets.benchmarks import make_http_like

        return make_http_like(n=2000, random_state=sub_seed(seed, STREAM_WARMUP))

    def _fit_spec(self, spec: str | None, data) -> Fitted:
        if spec is None:
            from repro import McCatch

            model = McCatch().fit_model(data)
            return Fitted(model, model, lambda rows: model.score_batch(rows).scores)
        from repro.api import make_estimator

        model = make_estimator(spec).fit(data)
        return Fitted(model.model, model, model.score_batch)

    def fit(self, data) -> Fitted:
        return self._fit_spec(self.spec, data)

    def quality(self, result, labels) -> dict:
        """Detection quality of one fit."""
        n = labels.size
        dos = np.arange(n - RARE_ROWS - DOS_ROWS, n - RARE_ROWS)
        if not labels[dos].all() or int(labels.sum()) != DOS_ROWS + RARE_ROWS:
            raise RuntimeError("make_http_like no longer puts the DoS rows where expected")
        together, size = 0, 0
        for mc in result.microclusters:
            hits = int(np.isin(dos, mc.indices).sum())
            if hits > together:
                together, size = hits, mc.cardinality
        score = auroc(result.point_scores, labels)
        return {
            "auroc": score,
            "dos_together": together,
            "strict": together == DOS_ROWS and size <= MAX_DOS_CLUSTER and score >= 0.99,
        }

    def judge(self, qualities: list[dict]) -> list[str]:
        """Failed quality checks over a run's fits (empty when it passes)."""
        failures = []
        middle = float(np.median([q["auroc"] for q in qualities]))
        if middle < MEDIAN_AUROC:
            failures.append(f"median AUROC {middle:.4f} < {MEDIAN_AUROC}")
        strict = [q["strict"] for q in qualities]
        if np.mean(strict) < STRICT_SHARE:
            failures.append(
                f"only {sum(strict)} of {len(strict)} fits kept all {DOS_ROWS} DoS "
                f"rows in one microcluster of <= {MAX_DOS_CLUSTER} with AUROC >= 0.99"
            )
        return failures

    def plan_check(self, data, fitted: Fitted) -> list[str] | None:
        """Compare one fit with a reference plan that must agree bit for
        bit (``None`` when the workload has no reference plan)."""
        if self.spec != SHARDED_SPEC:
            return None
        serial = self._fit_spec(SERVE_FIT_SPEC, data)
        if same_verdict(serial.result, fitted.result):
            return []
        return ["sharded fit differs from the serial VP-tree fit"]


def workloads() -> dict[str, Workload]:
    return {
        w.name: w
        for w in (
            Workload("detect-http", 10_000, None),
            Workload("fit-http-sharded", 10_000, SHARDED_SPEC),
            Workload("serve-http", 5_000, SERVE_FIT_SPEC, serves=True),
        )
    }


#: Workload names, in BENCHMARK.json order (importable without ``repro``).
NAMES = ("detect-http", "fit-http-sharded", "serve-http")
