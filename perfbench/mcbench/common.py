"""Shared helpers: checkout layout, child environments, statistics, provenance."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: BLAS/OpenMP thread variables recorded with every result.
THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class Checkout:
    """Where the program's sources live and where the benchmark may write.

    Everything the benchmark writes (the C-kernel cache, temporary
    files, model registries) goes under ``.bench_build/`` of the
    checkout, which ``.gitignore`` names.
    """

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.build = root / ".bench_build"
        self.kernel_cache = self.build / "ckernel"
        self.tmp = self.build / "tmp"

    def has_program(self) -> bool:
        return (self.src / "repro" / "__init__.py").is_file()

    def prepare(self) -> None:
        """Create the scratch dirs and point this process at them."""
        self.kernel_cache.mkdir(parents=True, exist_ok=True)
        self.tmp.mkdir(parents=True, exist_ok=True)
        os.environ["REPRO_CKERNEL_CACHE"] = str(self.kernel_cache)
        os.environ["TMPDIR"] = str(self.tmp)
        if str(self.src) not in sys.path:
            sys.path.insert(0, str(self.src))

    def child_env(self, **extra: str) -> dict[str, str]:
        """Environment for a child process that runs the program
        (after :meth:`prepare`, which set the scratch variables)."""
        return dict(os.environ, PYTHONPATH=str(self.src), **extra)


#: Cold set-ups timed per run; ``setup_s`` is their median.
SETUP_REPS = 3


def cold_setup(checkout: Checkout, workload: str, seed: int) -> float:
    """Seconds for a fresh interpreter to import the program, make the
    workload's inputs and load the C kernel (``run.py --probe``)."""
    script = Path(__file__).resolve().parent.parent / "run.py"
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, str(script), "--probe", "--workload", workload, "--seed", str(seed)],
        cwd=checkout.root, env=checkout.child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, check=True, timeout=120,
    )
    return time.perf_counter() - t0


class Tally:
    """Operations attempted and failed in one run, and why they failed.

    ``wrong`` collects failed output checks: a run with any is not
    correct.  Other failures (429s, transport errors) only count.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def operation(self, failures: list[str], what: str) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.wrong.extend(f"{what}: {f}" for f in failures)

    def phase(self, name: str, phase) -> None:
        self.attempted += phase.attempted
        self.failed += phase.failed
        for kind, count in phase.errors.items():
            if kind == "wrong_scores" or kind.startswith("raised"):
                self.wrong.append(f"{name}: {count} requests {kind}")


def sub_seed(seed: int, stream: int, index: int = 0) -> int:
    """A 32-bit seed for input ``index`` of ``stream``, derived from ``seed``.

    Streams keep the fitted inputs, the served query rows and the
    warm-up input independent of one another.
    """
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def mean(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(values.mean()) if values.size else 0.0


def auroc(scores, labels) -> float:
    """Area under the ROC curve (Mann-Whitney U with average ranks)."""
    from scipy.stats import rankdata

    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(labels) == 1
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    ranks = rankdata(scores)
    return float((ranks[positive].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def peak_rss_mb_self() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident memory (VmHWM) of a running process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def machine_block() -> dict:
    """CPUs, library versions and C-kernel state behind a result."""
    import scipy

    from repro.index.ckernel import kernel_info

    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "ckernel": kernel_info(),
        "REPRO_NO_CKERNEL": os.environ.get("REPRO_NO_CKERNEL"),
        "thread_env": {k: os.environ[k] for k in THREAD_ENV_VARS if k in os.environ},
    }
