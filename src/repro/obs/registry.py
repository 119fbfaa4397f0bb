"""The process-wide metrics registry: counters, gauges, histograms.

Stdlib-only Prometheus-style instrumentation for the serving and
engine tiers.  Three mutable instrument kinds plus *callback* metrics
that read an existing counter at collection time — the registry's way
of exposing signal sources the repo already maintains (the
micro-batcher's served-traffic counters, the walk stats sinks, a
:class:`~repro.metric.instrumentation.DistanceCounter`) without
duplicating their bookkeeping:

- :class:`Counter` — monotonically increasing totals (``.inc``).
- :class:`Gauge` — point-in-time values (``.set`` / ``.inc`` / ``.dec``).
- :class:`Histogram` — fixed-bucket distributions (``.observe``);
  buckets are chosen at registration and never rebalance, so two
  scrapes are always comparable.
- callbacks (:meth:`MetricsRegistry.register_callback`) — a function
  evaluated per collection; for labelled families it returns
  ``{label_values_tuple: value}``.

Everything is thread-safe (one lock per family; instrument updates are
a single guarded add) and cheap enough for per-batch hot paths —
per-*row* work never touches the registry, which is how the serving
tier keeps telemetry overhead in the noise.

Exposition is the Prometheus text format, version 0.0.4
(:meth:`MetricsRegistry.render`), and :meth:`MetricsRegistry.snapshot`
returns the same data as a JSON-able dict — what the benchmarks embed
into their ``BENCH_*.json`` records so perf artifacts carry op counts,
not just wall-clock.  :func:`parse_exposition` is the inverse of
``render`` (used by ``repro stats`` and the format tests).
"""

from __future__ import annotations

import math
import re
import threading
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_exposition",
]

#: Default histogram bucket upper bounds (seconds-flavored, spanning
#: sub-millisecond engine batches to multi-second pathological ones).
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _check_labelnames(labelnames: Sequence[str]) -> tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_RE.match(label):
            raise ValueError(f"invalid label name {label!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names in {names!r}")
    return names


def _format_value(value: float) -> str:
    """A Prometheus sample value: integers render bare, floats via repr."""
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):  # pragma: no cover - never produced by instruments
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_text(labelnames: Sequence[str], values: Sequence[str]) -> str:
    if not labelnames:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in zip(labelnames, values)
    )
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing total (one labelled child)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount}) is invalid")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A point-in-time value (one labelled child)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock):
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """A fixed-bucket distribution (one labelled child).

    ``buckets`` are the finite upper bounds; ``+Inf`` is implicit.
    Internally counts are per-bucket (non-cumulative); rendering emits
    the cumulative ``_bucket{le=...}`` series Prometheus expects.
    """

    __slots__ = ("_lock", "buckets", "_counts", "sum", "count")

    def __init__(self, lock: threading.Lock, buckets: Sequence[float]):
        self._lock = lock
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(self.buckets) + 1)  # last = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        # linear scan: bucket lists are short (<= ~15) and a scan is
        # cheaper than bisect's call overhead at that size
        i = 0
        for bound in self.buckets:
            if value <= bound:
                break
            i += 1
        with self._lock:
            self._counts[i] += 1
            self.sum += value
            self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` last."""
        out = []
        running = 0
        with self._lock:
            counts = list(self._counts)
            for bound, c in zip(self.buckets, counts):
                running += c
                out.append((bound, running))
            out.append((math.inf, running + counts[-1]))
        return out


class _Family:
    """One named metric family: kind, help text, labelled children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: tuple[str, ...],
        *,
        buckets: Sequence[float] | None = None,
        callback: Callable | None = None,
    ):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.labelnames = labelnames
        self.buckets = buckets
        self.callback = callback
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], object] = {}

    def _make_child(self):
        if self.kind == "counter":
            return Counter(self._lock)
        if self.kind == "gauge":
            return Gauge(self._lock)
        return Histogram(self._lock, self.buckets or DEFAULT_BUCKETS)

    def labels(self, *values, **kwargs):
        """The child for one label-value combination (created on first use)."""
        if kwargs:
            if values:
                raise ValueError("pass label values positionally or by name, not both")
            try:
                values = tuple(str(kwargs[k]) for k in self.labelnames)
            except KeyError as exc:
                raise ValueError(
                    f"{self.name} needs labels {self.labelnames}, got {kwargs}"
                ) from exc
            if len(kwargs) != len(self.labelnames):
                raise ValueError(
                    f"{self.name} needs labels {self.labelnames}, got {kwargs}"
                )
        else:
            values = tuple(str(v) for v in values)
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes {len(self.labelnames)} label values "
                f"{self.labelnames}, got {len(values)}"
            )
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.setdefault(values, self._make_child())
        return child

    # unlabeled families proxy straight to their single child ----------------

    def _solo(self):
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labelled by {self.labelnames}; use .labels(...)"
            )
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    @property
    def value(self) -> float:
        return self._solo().value

    # collection -------------------------------------------------------------

    def collected_children(self) -> dict[tuple[str, ...], object]:
        """Children to render: stored ones, or the callback's values."""
        if self.callback is None:
            return dict(self._children)
        produced = self.callback()
        if not isinstance(produced, Mapping):
            produced = {(): produced}
        out = {}
        for key, value in produced.items():
            if not isinstance(key, tuple):
                key = (key,)
            key = tuple(str(k) for k in key)
            if len(key) != len(self.labelnames):
                raise ValueError(
                    f"callback for {self.name} produced label values {key!r}; "
                    f"expected {len(self.labelnames)} ({self.labelnames})"
                )
            out[key] = float(value)
        return out


class MetricsRegistry:
    """A named collection of metric families with text exposition.

    Registration is idempotent: asking again for the same
    ``(name, kind, labelnames)`` returns the existing family, while a
    conflicting re-registration raises — two subsystems can therefore
    share one registry without coordinating, and a typo'd re-use fails
    loudly instead of silently forking a family.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    # -- registration --------------------------------------------------------

    def _register(
        self,
        name: str,
        kind: str,
        help_text: str,
        labelnames: Sequence[str],
        *,
        buckets: Sequence[float] | None = None,
        callback: Callable | None = None,
    ) -> _Family:
        _check_name(name)
        labelnames = _check_labelnames(labelnames)
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (
                    existing.kind != kind
                    or existing.labelnames != labelnames
                    or (callback is None) != (existing.callback is None)
                ):
                    raise ValueError(
                        f"metric {name!r} is already registered as a "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            family = _Family(
                name, kind, help_text, labelnames,
                buckets=buckets, callback=callback,
            )
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str, labelnames: Sequence[str] = ()):
        """A counter family (call ``.inc()`` / ``.labels(...).inc()``)."""
        return self._register(name, "counter", help_text, labelnames)

    def gauge(self, name: str, help_text: str, labelnames: Sequence[str] = ()):
        """A gauge family (call ``.set()`` / ``.inc()`` / ``.dec()``)."""
        return self._register(name, "gauge", help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str,
        labelnames: Sequence[str] = (),
        *,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        """A fixed-bucket histogram family (call ``.observe(value)``)."""
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError(f"buckets must be strictly ascending, got {buckets!r}")
        return self._register(name, "histogram", help_text, labelnames, buckets=bounds)

    def register_callback(
        self,
        name: str,
        kind: str,
        help_text: str,
        fn: Callable,
        labelnames: Sequence[str] = (),
    ):
        """A family whose value(s) are read from ``fn`` at collection time.

        ``fn`` returns a number (unlabelled) or a mapping from
        label-value tuples to numbers (labelled).  This is how existing
        counters — the micro-batcher's tallies, a :class:`DistanceCounter`
        — surface in ``/metrics`` without moving their bookkeeping.
        """
        if kind not in ("counter", "gauge"):
            raise ValueError(f"callback metrics must be counter or gauge, got {kind!r}")
        return self._register(name, kind, help_text, labelnames, callback=fn)

    # -- reads ---------------------------------------------------------------

    def families(self) -> list[_Family]:
        with self._lock:
            return list(self._families.values())

    def read(self, name: str, match: Mapping[str, str] | None = None) -> float:
        """Current value of one counter/gauge family, summed over children.

        ``match`` filters children by label values.  This is the "one
        source of truth" read ``/healthz`` uses, so the liveness body
        and the ``/metrics`` exposition can never drift.
        """
        with self._lock:
            family = self._families.get(name)
        if family is None:
            raise KeyError(f"no metric {name!r} registered")
        if family.kind == "histogram":
            raise ValueError(f"{name!r} is a histogram; read() sums scalar families")
        total = 0.0
        for values, child in family.collected_children().items():
            labels = dict(zip(family.labelnames, values))
            if match and any(labels.get(k) != str(v) for k, v in match.items()):
                continue
            total += child if isinstance(child, float) else child.value
        return total

    # -- exposition ----------------------------------------------------------

    def render(self) -> str:
        """The Prometheus text exposition (format version 0.0.4)."""
        lines: list[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            children = family.collected_children()
            for values in sorted(children):
                child = children[values]
                labels = _labels_text(family.labelnames, values)
                if family.kind == "histogram":
                    # One locked read of the buckets; _count is its +Inf
                    # total, so a concurrent observe() cannot skew them.
                    buckets = child.cumulative()
                    for bound, cumulative in buckets:
                        le = "+Inf" if math.isinf(bound) else _format_value(bound)
                        bucket_labels = _labels_text(
                            family.labelnames + ("le",), values + (le,)
                        )
                        lines.append(
                            f"{family.name}_bucket{bucket_labels} {cumulative}"
                        )
                    lines.append(
                        f"{family.name}_sum{labels} {_format_value(child.sum)}"
                    )
                    lines.append(f"{family.name}_count{labels} {buckets[-1][1]}")
                else:
                    value = child if isinstance(child, float) else child.value
                    lines.append(f"{family.name}{labels} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """All current values as one JSON-able dict.

        The embed-into-artifacts form: benchmarks attach this to their
        ``BENCH_*.json`` records so a perf number always travels with
        the op counts (distance calls, walk steps, batch sizes) that
        produced it.
        """
        out: dict = {}
        for family in self.families():
            entry: dict = {"kind": family.kind, "help": family.help}
            samples = []
            children = family.collected_children()
            for values in sorted(children):
                child = children[values]
                labels = dict(zip(family.labelnames, values))
                if family.kind == "histogram":
                    buckets = child.cumulative()
                    samples.append({
                        "labels": labels,
                        "count": buckets[-1][1],
                        "sum": child.sum,
                        "buckets": {
                            ("+Inf" if math.isinf(b) else _format_value(b)): c
                            for b, c in buckets
                        },
                    })
                else:
                    value = child if isinstance(child, float) else child.value
                    samples.append({"labels": labels, "value": value})
            entry["samples"] = samples
            out[family.name] = entry
        return out


def parse_exposition(text: str) -> dict[str, dict]:
    """Parse Prometheus text format back into families (inverse of render).

    Returns ``{family_name: {"type": ..., "help": ..., "samples":
    [(sample_name, labels_dict, value), ...]}}``.  Histogram series
    (``_bucket``/``_sum``/``_count``) attach to their base family.
    Raises ``ValueError`` on any malformed line — which is what makes
    this double as the format validator in tests and CI.
    """
    sample_re = re.compile(
        r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
        r"(?:\{(?P<labels>.*)\})?"
        r"\s+(?P<value>[^\s]+)"
        r"(?:\s+(?P<ts>-?\d+))?$"
    )
    label_re = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
    families: dict[str, dict] = {}
    typed: dict[str, str] = {}

    def base_family(sample_name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count"):
            stripped = sample_name[: -len(suffix)] if sample_name.endswith(suffix) else None
            if stripped and typed.get(stripped) == "histogram":
                return stripped
        return sample_name

    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3:
                raise ValueError(f"line {lineno}: malformed HELP: {line!r}")
            families.setdefault(
                parts[2], {"type": None, "help": None, "samples": []}
            )["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                raise ValueError(f"line {lineno}: malformed TYPE: {line!r}")
            families.setdefault(
                parts[2], {"type": None, "help": None, "samples": []}
            )["type"] = parts[3]
            typed[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue  # comment
        m = sample_re.match(line)
        if not m:
            raise ValueError(f"line {lineno}: malformed sample: {line!r}")
        raw_labels = m.group("labels") or ""
        labels = {}
        if raw_labels:
            consumed = 0
            for lm in label_re.finditer(raw_labels):
                labels[lm.group(1)] = (
                    lm.group(2)
                    .replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
                consumed = lm.end()
            rest = raw_labels[consumed:].strip().strip(",")
            if rest:
                raise ValueError(f"line {lineno}: malformed labels: {raw_labels!r}")
        value_text = m.group("value")
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            value = float(value_text)
        name = m.group("name")
        family = families.setdefault(
            base_family(name), {"type": None, "help": None, "samples": []}
        )
        family["samples"].append((name, labels, value))
    return families


def validate_exposition(text: str, require: Iterable[str] = ()) -> dict[str, dict]:
    """Parse ``text`` and assert structural invariants; returns families.

    Beyond the line grammar (delegated to :func:`parse_exposition`):
    every sample belongs to a ``# TYPE``-declared family, counter names
    end in ``_total``, and histogram buckets are cumulative with a
    ``+Inf`` bound matching ``_count``.  ``require`` lists family names
    that must be present.
    """
    families = parse_exposition(text)
    for name in require:
        if name not in families:
            raise ValueError(f"required family {name!r} missing from exposition")
    for name, family in families.items():
        if family["type"] is None:
            raise ValueError(f"family {name!r} has samples but no # TYPE line")
        if family["type"] == "counter" and not name.endswith("_total"):
            raise ValueError(f"counter {name!r} does not end in _total")
        if family["type"] == "histogram":
            series: dict[tuple, list[tuple[float, float]]] = {}
            counts: dict[tuple, float] = {}
            for sample_name, labels, value in family["samples"]:
                key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
                if sample_name.endswith("_bucket"):
                    series.setdefault(key, []).append((float(labels["le"]), value))
                elif sample_name.endswith("_count"):
                    counts[key] = value
            for key, buckets in series.items():
                buckets.sort()
                values = [v for _, v in buckets]
                if values != sorted(values):
                    raise ValueError(f"{name}: histogram buckets not cumulative")
                if not math.isinf(buckets[-1][0]):
                    raise ValueError(f"{name}: histogram missing +Inf bucket")
                if key in counts and buckets[-1][1] != counts[key]:
                    raise ValueError(f"{name}: +Inf bucket != _count")
    return families
