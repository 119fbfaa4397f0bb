"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``detect``
    Run McCatch on a CSV/TSV of vectors (or a text file of strings with
    ``--metric levenshtein``) and print the ranked microclusters.
``report``
    Run McCatch and write a self-contained HTML report (plus optional
    JSON archive and Markdown table).
``stream``
    Replay a CSV through StreamingMcCatch in batches and print a
    per-batch alert log.
``fit``
    Fit any registered detector (``--spec "mccatch?index=vptree"``,
    ``--spec "lof?k=20"``, ...) on a CSV of vectors and persist the
    fitted model to one ``.npz`` — or publish it straight into a
    model registry (``--registry DIR``).  The historical McCatch
    hyperparameter flags still work and are folded into a spec.
``score``
    Load a saved model (by path, or resolved from a registry by spec)
    and score a held-out CSV batch against it without refitting;
    ``--mmap`` serves the model off the page cache so concurrent
    scorers share one on-disk copy.
``models``
    Inspect a model registry: ``models list`` shows the published
    artifacts, ``models resolve`` prints the artifact one spec/version
    resolves to, ``models publish`` fits and publishes in one step.
``serve``
    Long-lived HTTP scoring tier (``POST /score``, ``GET /healthz``,
    ``GET /metrics``, ``GET /model``) over a registry-resolved or
    saved model, with adaptive micro-batching (each batch scored on a
    thread), hot model swap when a new version is published
    (``--poll``), Prometheus metrics (``--no-metrics`` disables), and
    JSON access logs with per-request trace spans (``--log-level info``).
``stats``
    Scrape ``/healthz`` and ``/metrics`` of a running scoring server
    and print a telemetry summary (``--raw`` dumps the exposition).
``datasets``
    List the built-in dataset generators and their Table III metadata.
``demo``
    Run McCatch on a built-in dataset by name and report quality.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro import McCatch, StreamingMcCatch, __version__
from repro.datasets import BENCHMARK_SPECS, dataset_names, load
from repro.metric.strings import levenshtein


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="McCatch: scalable microcluster detection (ICDE 2024 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="run McCatch on a data file")
    detect.add_argument("path", help="CSV/TSV of numbers, or text file of strings")
    detect.add_argument("--metric", default="euclidean",
                        choices=["euclidean", "manhattan", "chebyshev", "levenshtein"],
                        help="distance function (levenshtein implies string data)")
    detect.add_argument("--delimiter", default=",", help="CSV delimiter (default ',')")
    detect.add_argument("--n-radii", type=int, default=15, help="hyperparameter a")
    detect.add_argument("--max-slope", type=float, default=0.1, help="hyperparameter b")
    detect.add_argument("--max-cardinality-fraction", type=float, default=0.1,
                        help="hyperparameter c as a fraction of n")
    detect.add_argument("--index", default="auto",
                        help="index kind backing the joins (default auto)")
    detect.add_argument("--workers", type=int, default=None, metavar="N",
                        help="shard the range-count walks across N workers "
                             "(engine_mode=parallel; needs a flat-backed index)")
    detect.add_argument("--top", type=int, default=20, help="rows of ranking to print")
    detect.add_argument("--save-json", metavar="PATH",
                        help="archive the full result as JSON")

    report = sub.add_parser("report", help="run McCatch and write an HTML report")
    report.add_argument("path", help="CSV/TSV of numbers, or text file of strings")
    report.add_argument("--metric", default="euclidean",
                        choices=["euclidean", "manhattan", "chebyshev", "levenshtein"])
    report.add_argument("--delimiter", default=",", help="CSV delimiter (default ',')")
    report.add_argument("-o", "--output", default="mccatch_report.html",
                        help="HTML output path (default mccatch_report.html)")
    report.add_argument("--title", default="McCatch report")
    report.add_argument("--save-json", metavar="PATH",
                        help="also archive the result as JSON")
    report.add_argument("--save-markdown", metavar="PATH",
                        help="also write the ranking as a Markdown table")

    stream = sub.add_parser("stream", help="replay a CSV through StreamingMcCatch")
    stream.add_argument("path", help="CSV/TSV of numbers (rows replayed in order)")
    stream.add_argument("--delimiter", default=",", help="CSV delimiter (default ',')")
    stream.add_argument("--batch", type=int, default=500, help="batch size (default 500)")
    stream.add_argument("--refit-factor", type=float, default=1.5,
                        help="refit when the window grew by this factor")
    stream.add_argument("--max-window", type=int, default=None,
                        help="sliding-window size (default: keep everything)")

    fit = sub.add_parser("fit", help="fit a detector spec and persist the model to .npz")
    fit.add_argument("path", help="CSV/TSV of numbers (model persistence is vector-only)")
    fit.add_argument("--spec", default=None,
                     help="detector spec, e.g. 'mccatch?index=vptree' or 'lof?k=20' "
                          "(default: McCatch built from the flags below)")
    fit.add_argument("-o", "--output", default=None,
                     help="model output path (default <detector>_model.npz, "
                          "e.g. mccatch_model.npz or lof_model.npz)")
    fit.add_argument("--registry", metavar="DIR", default=None,
                     help="publish into this model registry instead of -o")
    fit.add_argument("--metric", default=None,
                     choices=["euclidean", "manhattan", "chebyshev"],
                     help="fit metric (default euclidean)")
    fit.add_argument("--delimiter", default=",", help="CSV delimiter (default ',')")
    fit.add_argument("--n-radii", type=int, default=None,
                     help="hyperparameter a (default 15; deprecated: use "
                          "--spec 'mccatch?a=...')")
    fit.add_argument("--max-slope", type=float, default=None,
                     help="hyperparameter b (default 0.1; deprecated: use --spec)")
    fit.add_argument("--max-cardinality-fraction", type=float, default=None,
                     help="hyperparameter c as a fraction of n "
                          "(default 0.1; deprecated: use --spec)")
    fit.add_argument("--index", default=None,
                     help="metric tree backing the model (default vptree; must "
                          "be flat-backed: vptree, balltree, covertree, mtree, slimtree)")
    fit.add_argument("--workers", type=int, default=None, metavar="N",
                     help="fit with the parallel engine on N workers (folds "
                          "engine=parallel&workers=N into the McCatch spec)")

    score = sub.add_parser("score", help="score a held-out CSV against a saved model")
    score.add_argument("model",
                       help="model .npz written by `repro fit` — or, with "
                            "--registry, the spec string to resolve")
    score.add_argument("path", help="CSV/TSV of rows to score")
    score.add_argument("--registry", metavar="DIR", default=None,
                       help="resolve the model from this registry by spec")
    score.add_argument("--fingerprint", default=None,
                       help="dataset fingerprint selecting the registry key "
                            "(default: the spec's only published fingerprint)")
    score.add_argument("--model-version", type=int, default=None,
                       help="registry version to resolve (default latest)")
    score.add_argument("--mmap", action="store_true",
                       help="memory-map the model so concurrent scorers share "
                            "one on-disk copy (uncompressed archives only)")
    score.add_argument("--delimiter", default=",", help="CSV delimiter (default ',')")
    score.add_argument("--top", type=int, default=20, help="rows of ranking to print")

    models = sub.add_parser("models", help="inspect or fill a model registry")
    models_sub = models.add_subparsers(dest="models_command", required=True)
    m_list = models_sub.add_parser("list", help="list the published artifacts")
    m_list.add_argument("registry", help="registry directory")
    m_list.add_argument("--spec", default=None, help="only artifacts of this spec")
    m_resolve = models_sub.add_parser("resolve", help="print the artifact a spec resolves to")
    m_resolve.add_argument("registry", help="registry directory")
    m_resolve.add_argument("spec", help="detector spec to resolve")
    m_resolve.add_argument("--fingerprint", default=None,
                           help="dataset fingerprint (default: the only one)")
    m_resolve.add_argument("--model-version", type=int, default=None,
                           help="version to resolve (default latest)")
    m_publish = models_sub.add_parser("publish", help="fit a spec on a CSV and publish")
    m_publish.add_argument("registry", help="registry directory")
    m_publish.add_argument("path", help="CSV/TSV of numbers to fit on")
    m_publish.add_argument("--spec", default="mccatch?index=vptree",
                           help="detector spec (default mccatch?index=vptree)")
    m_publish.add_argument("--delimiter", default=",", help="CSV delimiter (default ',')")

    serve = sub.add_parser(
        "serve", help="serve a fitted model over HTTP with adaptive micro-batching"
    )
    serve.add_argument("--spec", default=None,
                       help="detector spec to resolve from --registry, "
                            "e.g. 'mccatch?a=15' (same index-default rewrite "
                            "as fit/score)")
    serve.add_argument("--registry", metavar="DIR", default=None,
                       help="model registry to resolve --spec from (and to "
                            "watch for new versions)")
    serve.add_argument("--model", metavar="PATH", default=None,
                       help="serve this saved model .npz instead of resolving "
                            "a registry spec (no hot swap)")
    serve.add_argument("--fingerprint", default=None,
                       help="dataset fingerprint selecting the registry key "
                            "(default: the spec's only published fingerprint)")
    serve.add_argument("--model-version", type=int, default=None,
                       help="pin one registry version (disables hot swap; "
                            "default: latest, then follow new publishes)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8787,
                       help="bind port (default 8787; 0 picks a free port)")
    serve.add_argument("--window-ms", type=float, default=2.0,
                       help="micro-batch window: max milliseconds a request "
                            "waits to coalesce with concurrent ones "
                            "(default 2.0; 0 = per-request serving)")
    serve.add_argument("--max-batch", type=int, default=256,
                       help="max rows per coalesced engine batch (default 256)")
    serve.add_argument("--max-rows", type=int, default=4096,
                       help="max rows one request may carry (default 4096)")
    serve.add_argument("--max-pending", type=int, default=1024, metavar="N",
                       help="cap on requests waiting in the micro-batch "
                            "queue; past it new requests are shed with a 429 "
                            "and a Retry-After drain estimate (default 1024; "
                            "0 = unbounded)")
    serve.add_argument("--backlog", type=int, default=128, metavar="N",
                       help="listen-socket accept backlog (default 128)")
    serve.add_argument("--poll", type=float, default=2.0,
                       help="seconds between registry polls for hot model "
                            "swap (default 2.0; 0 disables watching)")
    serve.add_argument("--no-mmap", action="store_true",
                       help="materialize the model instead of memory-mapping "
                            "the artifact")
    serve.add_argument("--no-metrics", action="store_true",
                       help="disable the telemetry tier: no /metrics route, "
                            "no request tracing, no per-batch observation")
    serve.add_argument("--log-level", default=None, metavar="LEVEL",
                       help="attach a JSON-lines stderr handler to the "
                            "serving loggers at LEVEL (info enables per-"
                            "request access logs with trace spans; default: "
                            "no handler)")

    stats = sub.add_parser(
        "stats", help="scrape /healthz and /metrics of a running scoring server"
    )
    stats.add_argument("--url", default="http://127.0.0.1:8787",
                       help="base URL of the server "
                            "(default http://127.0.0.1:8787)")
    stats.add_argument("--raw", action="store_true",
                       help="print the raw Prometheus exposition and exit")
    stats.add_argument("--timeout", type=float, default=5.0,
                       help="per-request timeout in seconds (default 5)")

    sub.add_parser("datasets", help="list the built-in dataset generators")

    demo = sub.add_parser("demo", help="run McCatch on a built-in dataset")
    demo.add_argument("name", help="dataset name (see `repro datasets`)")
    demo.add_argument("--scale", type=float, default=0.1,
                      help="fraction of the paper's dataset size (default 0.1)")
    demo.add_argument("--seed", type=int, default=0)
    return parser


def _load_input(path: str, metric: str, delimiter: str):
    if metric == "levenshtein":
        with open(path) as f:
            items = [line.strip() for line in f if line.strip()]
        if not items:
            raise SystemExit(f"error: {path} contains no strings")
        return items, levenshtein
    try:
        X = np.loadtxt(path, delimiter=delimiter, ndmin=2)
    except ValueError as exc:
        raise SystemExit(
            f"error: could not parse {path} as numeric {delimiter!r}-separated data "
            f"({exc}); for string data pass --metric levenshtein"
        ) from exc
    return X, metric


def _fit(data, metric, detector: McCatch):
    if callable(metric):
        return detector.fit(data, metric)
    return detector.fit(np.asarray(data), metric if metric != "euclidean" else None)


def _cmd_detect(args) -> int:
    data, metric = _load_input(args.path, args.metric, args.delimiter)
    detector = McCatch(
        n_radii=args.n_radii,
        max_slope=args.max_slope,
        max_cardinality_fraction=args.max_cardinality_fraction,
        index=args.index,
        engine_mode="parallel" if args.workers is not None else "batched",
        workers=args.workers,
    )
    t0 = time.perf_counter()
    result = _fit(data, metric, detector)
    elapsed = time.perf_counter() - t0
    print(f"n={result.n}  microclusters={len(result.microclusters)}  "
          f"outlying points={result.n_outliers}  ({elapsed:.2f}s)")
    print()
    print(f"{'rank':>4}  {'size':>5}  {'score':>9}  {'bridge':>10}  members")
    for rank, mc in enumerate(result.microclusters[: args.top]):
        members = ", ".join(map(str, mc.indices[:8]))
        if mc.cardinality > 8:
            members += ", ..."
        print(f"{rank:>4}  {mc.cardinality:>5}  {mc.score:>9.2f}  "
              f"{mc.bridge_length:>10.4g}  [{members}]")
    if args.save_json:
        from repro.io import save_result_json

        print(f"\nresult archived to {save_result_json(result, args.save_json)}")
    return 0


def _cmd_report(args) -> int:
    from repro.io import result_to_markdown, save_result_json
    from repro.viz import write_report

    data, metric = _load_input(args.path, args.metric, args.delimiter)
    result = _fit(data, metric, McCatch())
    points = None if callable(metric) else np.asarray(data)
    out = write_report(result, args.output, points, title=args.title)
    print(f"n={result.n}  microclusters={len(result.microclusters)}")
    print(f"HTML report: {out}")
    if args.save_json:
        print(f"JSON archive: {save_result_json(result, args.save_json)}")
    if args.save_markdown:
        from pathlib import Path

        Path(args.save_markdown).write_text(result_to_markdown(result), encoding="utf-8")
        print(f"Markdown: {args.save_markdown}")
    return 0


def _cmd_stream(args) -> int:
    if args.batch < 1:
        raise SystemExit("error: --batch must be >= 1")
    data, _ = _load_input(args.path, "euclidean", args.delimiter)
    X = np.asarray(data)
    stream = StreamingMcCatch(
        McCatch(),
        refit_factor=args.refit_factor,
        min_fit_size=max(32, args.batch),
        max_window=args.max_window,
    )
    total_flagged = 0
    for start in range(0, X.shape[0], args.batch):
        update = stream.update(X[start : start + args.batch])
        total_flagged += update.provisional_outliers.size
        mode = "refit" if update.refitted else "score"
        print(f"[{mode}] rows {start:>7}..{start + update.n_new - 1:<7} "
              f"flagged={update.provisional_outliers.size:<4} window={len(stream)}")
    result = stream.refit()
    print()
    print(result.summary())
    print(f"\nflagged during replay: {total_flagged}; "
          f"outlying at final refit: {result.n_outliers}")
    return 0


def _spec_with(spec: str, key: str, value) -> str:
    """``spec`` with one more ``key=value`` parameter appended."""
    return f"{spec}{'&' if '?' in spec else '?'}{key}={value}"


def _print_published(record) -> None:
    """The one report both `fit --registry` and `models publish` print."""
    print(f"model published to {record.path}")
    print(f"  spec={record.spec}  fingerprint={record.fingerprint}  "
          f"version={record.version}")


def _default_index_into_spec(spec: str, index: str):
    """A McCatch spec that does not pin ``index=`` gets ``index`` filled in.

    The spec default is ``auto``.  Every fitted vector model saves
    whatever its index (the archive holds the inlier VP-tree), so the
    rewrite no longer guards persistence; it stays because published
    specs carry the filled-in index.  Both ``fit`` and the registry
    side of ``score`` apply the same rewrite, so the spec a user fits
    with is the spec they resolve with.
    """
    from repro.api import make_estimator, parse_spec
    from repro.api.estimators import McCatchEstimator

    estimator = make_estimator(spec)
    if isinstance(estimator, McCatchEstimator) and "index" not in parse_spec(spec)[1]:
        estimator = make_estimator(_spec_with(spec, "index", index))
    return estimator


def _resolve_fit_estimator(args):
    """The estimator `repro fit` should run: --spec, or flags folded in."""
    from repro.api import make_estimator, spec_of

    if args.spec is not None:
        # all the deprecated flags default to None, so explicitly typed
        # default values ("--n-radii 15") still count as given
        clashing = [flag for flag, value in (
            ("--n-radii", args.n_radii),
            ("--max-slope", args.max_slope),
            ("--max-cardinality-fraction", args.max_cardinality_fraction),
        ) if value is not None]
        if clashing:
            raise SystemExit(
                f"error: {', '.join(clashing)} cannot be combined with --spec; "
                "put the parameters in the spec instead "
                "(e.g. 'mccatch?a=20&b=0.2&c=0.05')"
            )
        from repro.api import parse_spec
        from repro.api.estimators import McCatchEstimator

        estimator = make_estimator(args.spec)
        # the flags default to None, so an explicitly typed default
        # value ("--index vptree") still counts as given
        if not isinstance(estimator, McCatchEstimator):
            if args.index is not None:
                raise SystemExit(
                    "error: --index applies only to McCatch specs "
                    f"(got {estimator.spec!r})"
                )
            if args.metric is not None:
                raise SystemExit(
                    "error: --metric applies only to McCatch specs "
                    f"(got {estimator.spec!r}; baselines are Euclidean-only)"
                )
            if args.workers is not None:
                raise SystemExit(
                    "error: --workers applies only to McCatch specs "
                    f"(got {estimator.spec!r})"
                )
            return estimator
        raw = parse_spec(args.spec)[1]
        spec = args.spec
        if "index" in raw:
            if args.index is not None:
                raise SystemExit(
                    "error: --index cannot be combined with a spec that "
                    "already pins index=...; pick one"
                )
        else:
            spec = _spec_with(spec, "index", args.index or "vptree")
        if "metric" in raw:
            if args.metric is not None:
                raise SystemExit(
                    "error: --metric cannot be combined with a spec that "
                    "already pins metric=...; pick one"
                )
        elif args.metric is not None:
            spec = _spec_with(spec, "metric", args.metric)
        if args.workers is not None:
            if "workers" in raw or "engine" in raw:
                raise SystemExit(
                    "error: --workers cannot be combined with a spec that "
                    "already pins engine=/workers=...; pick one"
                )
            spec = _spec_with(_spec_with(spec, "engine", "parallel"), "workers", args.workers)
        return make_estimator(spec)
    spec = spec_of(McCatch(
        n_radii=args.n_radii if args.n_radii is not None else 15,
        max_slope=args.max_slope if args.max_slope is not None else 0.1,
        max_cardinality_fraction=(
            args.max_cardinality_fraction
            if args.max_cardinality_fraction is not None else 0.1
        ),
        index=args.index or "vptree",
        engine_mode="parallel" if args.workers is not None else "batched",
        workers=args.workers,
    ))
    if args.metric is not None:
        spec = _spec_with(spec, "metric", args.metric)
    return make_estimator(spec)


def _cmd_fit(args) -> int:
    from repro.api import McCatchServingModel, ModelRegistry

    if args.registry and args.output is not None:
        raise SystemExit(
            "error: -o/--output cannot be combined with --registry "
            "(the registry chooses the artifact path)"
        )
    try:
        estimator = _resolve_fit_estimator(args)
    except ValueError as exc:  # unknown spec / bad parameter
        raise SystemExit(f"error: {exc}") from exc
    data, _ = _load_input(args.path, args.metric or "euclidean", args.delimiter)
    t0 = time.perf_counter()
    try:
        # --metric was folded into the spec by _resolve_fit_estimator
        model = estimator.fit(np.asarray(data))
    except (TypeError, ValueError, RuntimeError) as exc:
        # bad fit-time spec values (index=bogus), non-finite scores, ...
        raise SystemExit(f"error: {exc}") from exc
    elapsed = time.perf_counter() - t0
    if isinstance(model, McCatchServingModel):
        result = model.model.result
        print(f"n={result.n}  microclusters={len(result.microclusters)}  "
              f"outlying points={result.n_outliers}  ({elapsed:.2f}s)")
    else:
        print(f"n={model.n_fitted}  spec={model.spec}  ({elapsed:.2f}s)")
    try:
        if args.registry:
            _print_published(ModelRegistry(args.registry).publish(model))
        else:
            from repro.api import parse_spec

            default_out = f"{parse_spec(model.spec)[0]}_model.npz"
            print(f"model saved to {model.save(args.output or default_out)}")
    except TypeError as exc:  # e.g. an object-metric model
        raise SystemExit(f"error: {exc}") from exc
    return 0


def _load_served_model(args):
    """The model `repro score` should serve: registry spec or .npz path."""
    from repro.api import ModelRegistry, load_model

    if not args.registry and (args.fingerprint or args.model_version is not None):
        raise SystemExit(
            "error: --fingerprint/--model-version select a registry "
            "artifact; they require --registry"
        )
    if args.registry:
        from repro.api import parse_spec

        registry = ModelRegistry(args.registry)
        # mirror fit's index-default rewrite so the spec a user fitted
        # with resolves the model it published (vptree is fit's default)
        spec = _default_index_into_spec(args.model, "vptree").spec
        try:
            return registry.resolve(
                spec,
                fingerprint=args.fingerprint,
                version=args.model_version,
                mmap=args.mmap,
            )
        except LookupError:
            # fall back only across the index choice (e.g. fitted with
            # --index balltree): same detector, same hyperparameters.
            # Other parameter differences must fail — silently serving
            # a differently-configured model would misattribute scores.
            want_name, want_params = parse_spec(spec)
            want_params.pop("index", None)

            def same_but_index(published: str) -> bool:
                name, params = parse_spec(published)
                params.pop("index", None)
                return name == want_name and params == want_params

            candidates = sorted(
                {r.spec for r in registry.list() if same_but_index(r.spec)}
            )
            if len(candidates) != 1 or candidates[0] == spec:
                raise
            model = registry.resolve(
                candidates[0],
                fingerprint=args.fingerprint,
                version=args.model_version,
                mmap=args.mmap,
            )
            # stderr, after success: the note must neither pollute the
            # parseable score table nor precede a failing resolve
            print(f"note: serving published spec {candidates[0]!r} "
                  f"for requested {args.model!r}", file=sys.stderr)
            return model
    return load_model(args.model, mmap=args.mmap)


def _cmd_score(args) -> int:
    import zipfile
    from pathlib import Path

    from repro.api import McCatchServingModel

    try:
        model = _load_served_model(args)
    except (ValueError, LookupError, OSError, zipfile.BadZipFile) as exc:
        hint = ""
        if not args.registry and not Path(args.model).exists():
            hint = " (a spec string needs --registry DIR)"
        raise SystemExit(f"error: {exc}{hint}") from exc
    data, _ = _load_input(args.path, "euclidean", args.delimiter)
    X = np.asarray(data)
    t0 = time.perf_counter()
    try:
        if isinstance(model, McCatchServingModel):
            batch = model.score_details(X)
            scores, flagged = batch.scores, set(batch.flagged.tolist())
        else:
            scores, flagged = model.score_batch(X), set()
    except (ValueError, RuntimeError) as exc:
        # wrong-dimensionality batches; non-finite transductive re-scores
        raise SystemExit(f"error: {exc}") from exc
    elapsed = time.perf_counter() - t0
    print(f"model n={model.n_fitted}  scored rows={X.shape[0]}  "
          f"flagged={len(flagged)}  ({elapsed:.2f}s)")
    print()
    print(f"{'row':>6}  {'score':>9}  flagged")
    order = np.argsort(-scores, kind="stable")[: args.top]
    for r in order:
        mark = "yes" if int(r) in flagged else ""
        print(f"{int(r):>6}  {scores[r]:>9.2f}  {mark}")
    return 0


def _cmd_models(args) -> int:
    from repro.api import ModelRegistry

    registry = ModelRegistry(args.registry)
    if args.models_command == "list":
        try:
            records = registry.list(spec=args.spec)
        except ValueError as exc:  # e.g. an unknown --spec filter
            raise SystemExit(f"error: {exc}") from exc
        if not records:
            print(f"no published models in {registry.root}")
            return 0
        width = max(len(r.spec) for r in records) + 2
        print(f"{'spec':<{width}}{'fingerprint':<18}{'version':>7}  path")
        for record in records:
            print(f"{record.spec:<{width}}{record.fingerprint:<18}"
                  f"{record.version:>7}  {record.path}")
        return 0
    if args.models_command == "resolve":
        try:
            record = registry.record(
                args.spec, fingerprint=args.fingerprint, version=args.model_version
            )
        except (ValueError, LookupError) as exc:
            raise SystemExit(f"error: {exc}") from exc
        print(record.path)
        return 0
    # publish: fit the spec and push the artifact in one step (same
    # index-default rewrite as `fit`, for the same persistence reason)
    data, _ = _load_input(args.path, "euclidean", args.delimiter)
    try:
        model = _default_index_into_spec(args.spec, "vptree").fit(np.asarray(data))
        record = registry.publish(model)
    except (ValueError, TypeError, RuntimeError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    _print_published(record)
    return 0


def _resolve_served_model(args):
    """What `repro serve` should stand up: ``(model, server_kwargs,
    watcher_key_or_None)``."""
    from repro.api import ModelRegistry, load_model

    if (args.spec is None) == (args.model is None):
        raise SystemExit(
            "error: pass exactly one of --spec (resolved from --registry) "
            "or --model PATH"
        )
    mmap = not args.no_mmap
    if args.model is not None:
        if args.registry or args.fingerprint or args.model_version is not None:
            raise SystemExit(
                "error: --registry/--fingerprint/--model-version select a "
                "registry artifact; they go with --spec, not --model"
            )
        import zipfile

        try:
            model = load_model(args.model, mmap=mmap)
        except (ValueError, OSError, zipfile.BadZipFile) as exc:
            raise SystemExit(f"error: {exc}") from exc
        return model, {"spec": model.spec}, None
    if not args.registry:
        raise SystemExit("error: --spec needs --registry DIR to resolve from")
    registry = ModelRegistry(args.registry)
    try:
        spec = _default_index_into_spec(args.spec, "vptree").spec
        record = registry.record(
            spec, fingerprint=args.fingerprint, version=args.model_version
        )
    except (ValueError, LookupError) as exc:
        raise SystemExit(f"error: {exc}") from exc
    model = load_model(record.path, mmap=mmap)
    kwargs = {
        "spec": record.spec,
        "version": record.version,
        "fingerprint": record.fingerprint,
    }
    # a pinned --model-version is a request to serve exactly that
    # version; following newer publishes would un-pin it
    watch = None
    if args.poll > 0 and args.model_version is None:
        watch = (registry, record.spec, record.fingerprint)
    return model, kwargs, watch


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import RegistryWatcher, ScoringServer

    # 0 is documented for both (no cap / no watching); a negative value
    # would silently mean the same, so it is refused before any loading
    for flag, value in (("--max-pending", args.max_pending), ("--poll", args.poll)):
        if value < 0:
            raise SystemExit(f"error: {flag} must be >= 0, got {value:g}")
    model, server_kwargs, watch = _resolve_served_model(args)
    if args.log_level is not None:
        from repro.obs import configure_logging

        try:
            configure_logging(args.log_level)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from exc
    try:
        server = ScoringServer(
            model,
            host=args.host,
            port=args.port,
            window_s=args.window_ms / 1000.0,
            max_batch=args.max_batch,
            max_rows=args.max_rows,
            max_pending=args.max_pending if args.max_pending > 0 else None,
            backlog=args.backlog,
            metrics=not args.no_metrics,
            **server_kwargs,
        )
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from exc

    async def _run() -> None:
        await server.start()
        watcher = None
        if watch is not None:
            registry, spec, fingerprint = watch
            watcher = RegistryWatcher(
                server, registry, spec, fingerprint,
                poll_s=args.poll, mmap=not args.no_mmap,
            ).start()
            if server.metrics is not None:
                watcher.bind_metrics(server.metrics)
        described = server.served.describe()
        print(f"serving {described['spec']}  n={described['n_fitted']}  "
              f"version={described['version']}")
        print(f"listening on http://{args.host}:{server.port}  "
              f"(window={args.window_ms:g}ms, max_batch={args.max_batch}"
              + (f", polling registry every {args.poll:g}s" if watcher else "")
              + ")")
        endpoints = "endpoints: POST /score  GET /healthz  GET /model"
        if server.metrics is not None:
            endpoints += "  GET /metrics"
        print(endpoints + "  (Ctrl-C stops)")
        try:
            await server.serve_forever()
        finally:
            if watcher is not None:
                await watcher.stop()
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def _cmd_stats(args) -> int:
    import json
    from urllib.error import URLError
    from urllib.request import urlopen

    from repro.obs import parse_exposition

    base = args.url.rstrip("/")
    try:
        with urlopen(f"{base}/healthz", timeout=args.timeout) as resp:
            health = json.loads(resp.read().decode("utf-8"))
        with urlopen(f"{base}/metrics", timeout=args.timeout) as resp:
            text = resp.read().decode("utf-8")
    except (URLError, OSError, ValueError) as exc:
        raise SystemExit(f"error: could not scrape {base}: {exc}") from exc
    if args.raw:
        sys.stdout.write(text)
        return 0
    try:
        families = parse_exposition(text)
    except ValueError as exc:
        raise SystemExit(f"error: {base}/metrics is not valid "
                         f"Prometheus text format: {exc}") from exc
    print(f"{base}  status={health.get('status')}  "
          f"uptime={health.get('uptime_s', 0.0):.0f}s  "
          f"model_version={health.get('model_version')}  "
          f"generation={health.get('generation')}")
    print(f"requests_served={health.get('requests_served')}  "
          f"rows_scored={health.get('rows_scored')}  "
          f"batches={health.get('batches_dispatched')}  "
          f"shed={health.get('requests_shed')}  "
          f"swaps={health.get('swaps')}")
    print()
    print(f"{'metric':<46}{'labels':<28}{'value':>14}")
    for name in sorted(families):
        for sample_name, labels, value in families[name]["samples"]:
            if sample_name.endswith("_bucket"):
                continue  # histogram summary: show _sum/_count only
            label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
            print(f"{sample_name:<46}{label_text:<28}{value:>14g}")
    return 0


def _cmd_datasets(_args) -> int:
    print(f"{'name':<22}{'kind':<10}{'paper n':>10}  notes")
    for name in dataset_names():
        if name in BENCHMARK_SPECS:
            spec = BENCHMARK_SPECS[name]
            note = f"{spec.dim}-d, {spec.outlier_pct}% outliers"
            if spec.microclusters:
                note += f", planted mcs {spec.microclusters}"
            print(f"{name:<22}{'vector':<10}{spec.n:>10,}  {note}")
        else:
            kind = "metric" if name in ("last_names", "fingerprints", "skeletons") else "vector"
            print(f"{name:<22}{kind:<10}{'-':>10}")
    return 0


def _cmd_demo(args) -> int:
    from repro.eval import auroc  # loads scipy.stats: keep it off the import path

    ds = load(args.name, scale=args.scale, random_state=args.seed)
    t0 = time.perf_counter()
    result = McCatch().fit(ds.data, ds.metric)
    elapsed = time.perf_counter() - t0
    print(f"{args.name}: n={ds.n}  ({elapsed:.2f}s)")
    if ds.labels is not None:
        print(f"AUROC vs ground truth: {auroc(ds.labels, result.point_scores):.3f}")
    print(result.summary())
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "detect": _cmd_detect,
        "report": _cmd_report,
        "stream": _cmd_stream,
        "fit": _cmd_fit,
        "score": _cmd_score,
        "models": _cmd_models,
        "serve": _cmd_serve,
        "stats": _cmd_stats,
        "datasets": _cmd_datasets,
        "demo": _cmd_demo,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
