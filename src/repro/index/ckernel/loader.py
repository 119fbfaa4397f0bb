"""On-demand build and ctypes loading of the compiled walk kernel.

The kernel ships as plain C source (``kernel.c``) next to this module —
no build-time dependency, no wheels, no new packages.  The first time a
walk asks for it, the source is compiled with the platform C compiler
into a shared object cached on disk, keyed by the SHA-256 of the source
plus the compiler's version banner and flags, so a source edit or a
toolchain upgrade can never pick up a stale ``.so``.  Builds are
concurrency-safe: the object is compiled to a ``mkstemp`` temporary in
the cache directory and published with an atomic ``os.replace``, so two
processes racing the first build both end up loading an intact library.

Fallback is graceful: when no compiler is found (or the build or load
fails) the numpy count and nearest walks take over and
:func:`kernel_info` records why.  ``REPRO_NO_CKERNEL=1`` forces that
fallback — the differential escape hatch CI uses to keep the numpy
paths honest.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

#: Set to any non-empty value except ``0`` to force the numpy fallback.
ENV_DISABLE = "REPRO_NO_CKERNEL"
#: Overrides the on-disk cache directory for built shared objects.
ENV_CACHE = "REPRO_CKERNEL_CACHE"

#: ABI stamp; must match ``REPRO_CKERNEL_ABI`` in ``kernel.c`` (the
#: loader probes the built library for it, so a foreign or truncated
#: ``.so`` under the right name is rejected and rebuilt).
ABI_VERSION = 3

SOURCE_PATH = Path(__file__).resolve().with_name("kernel.c")

#: -ffp-contract=off keeps every float64 add/sub/mul rounding separately,
#: never fused into an FMA, so a distance evaluates to the same bits at
#: every call site: the count walk's second scan pass must re-find
#: exactly the band members its first pass counted.  -fno-math-errno
#: only drops the errno side channel of sqrt; the result bits are
#: untouched.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")

_CANDIDATE_COMPILERS = ("cc", "gcc", "clang")

_LOCK = threading.Lock()
_STATE: dict = {"checked": False, "kernel": None, "error": None}


class CKernelError(RuntimeError):
    """Raised when the kernel cannot be built or loaded."""


def kernel_disabled() -> bool:
    """True when ``REPRO_NO_CKERNEL`` requests the numpy fallback."""
    return os.environ.get(ENV_DISABLE, "").strip() not in ("", "0")


def find_compiler() -> str | None:
    """Path of the C compiler to use (``$CC`` first), or ``None``."""
    cc = os.environ.get("CC")
    if cc:
        return shutil.which(cc)
    for name in _CANDIDATE_COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def compiler_banner(cc: str) -> str:
    """First line of ``cc --version`` — the toolchain part of the cache key."""
    try:
        out = subprocess.run(
            [cc, "--version"], capture_output=True, text=True, timeout=30
        ).stdout
    except OSError:
        return "unknown"
    return out.splitlines()[0].strip() if out else "unknown"


def cache_dir() -> Path:
    """Directory holding built shared objects (created on demand)."""
    override = os.environ.get(ENV_CACHE)
    if override:
        return Path(override)
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro" / "ckernel"


def cache_key(source: str, banner: str) -> str:
    """Content hash naming the built object: source + toolchain + flags."""
    ident = "\0".join([source, banner, " ".join(CFLAGS), str(ABI_VERSION)])
    return hashlib.sha256(ident.encode()).hexdigest()[:16]


def _compile(cc: str, source_path: Path, so_path: Path) -> None:
    """Compile to a temporary in the cache dir, publish atomically."""
    so_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=so_path.stem + ".", suffix=".tmp.so", dir=str(so_path.parent)
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *CFLAGS, "-o", tmp, str(source_path), "-lm"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        if proc.returncode != 0:
            raise CKernelError(
                f"C kernel build failed ({cc} exit {proc.returncode}):\n"
                f"{proc.stderr.strip()[-2000:]}"
            )
        # Atomic publish: a concurrent builder racing us replaces the
        # same destination with its own intact object; nobody ever
        # observes a partially written .so.
        os.replace(tmp, so_path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class CKernel:
    """ctypes handle to the built kernel with argtypes wired up.

    All pointer arguments travel as ``c_void_p`` (the walk driver owns
    dtype and contiguity); scalar widths are pinned to ``int64`` so the
    call ABI matches the ``int64_t`` C signatures on every platform.
    ctypes releases the GIL for the duration of every call.
    """

    def __init__(self, so_path: Path, key: str, compiler: str):
        self.so_path = so_path
        self.key = key
        self.compiler = compiler
        lib = ctypes.CDLL(str(so_path))
        abi = lib.repro_ckernel_abi
        abi.restype = ctypes.c_int64
        abi.argtypes = ()
        got = int(abi())
        if got != ABI_VERSION:
            raise CKernelError(
                f"kernel ABI mismatch: built {got}, expected {ABI_VERSION}"
            )
        i64, vp, dbl = ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
        self.count = lib.repro_count
        self.count.restype = i64
        self.count.argtypes = (
            [i64, vp, i64, vp, vp]  # nq, qids, dim, data, coords
            + [i64, dbl, dbl, vp]   # kind, p, r, margin
            + [i64] + [vp] * 9      # n_nodes, center..elems
            + [i64, i64]            # vp_split, vleaf
            + [vp, i64, vp, vp]     # counts, cap, band_row, band_elem
            + [vp]                  # counters
        )
        self.nearest = lib.repro_nearest
        self.nearest.restype = i64
        self.nearest.argtypes = (
            [i64, i64, vp, vp]      # m, dim, rows, data
            + [i64, dbl, vp]        # kind, p, slack
            + [i64] + [vp] * 7      # n_nodes, center..elem_hi
            + [i64, vp, vp]         # n_elems, elems, d_elem
            + [i64]                 # vp_split
            + [i64, vp, vp]         # cap, cand_elem, row_end
            + [vp]                  # counters
        )


def build_kernel() -> CKernel:
    """Build (or reuse) the shared object and load it.

    Raises :class:`CKernelError` when no compiler is available, the
    platform is unsuitable, the build fails, or the produced library
    cannot be loaded even after one rebuild.
    """
    if ctypes.sizeof(ctypes.c_void_p) != 8 or np.dtype(np.intp).itemsize != 8:
        raise CKernelError("compiled walk kernel requires a 64-bit platform")
    cc = find_compiler()
    if cc is None:
        raise CKernelError(
            "no C compiler found (looked for $CC, cc, gcc, clang); "
            "falling back to the pure-numpy walks"
        )
    source = SOURCE_PATH.read_text()
    key = cache_key(source, compiler_banner(cc))
    so_path = cache_dir() / f"repro_ckernel_{key}.so"
    if not so_path.exists():
        _compile(cc, SOURCE_PATH, so_path)
    try:
        return CKernel(so_path, key, cc)
    except (OSError, CKernelError):
        # Stale or torn object under the right name (e.g. a crashed
        # writer predating the atomic-publish protocol, or a foreign
        # file): rebuild once from source, then give up loudly.
        try:
            so_path.unlink()
        except OSError:
            pass
        _compile(cc, SOURCE_PATH, so_path)
        return CKernel(so_path, key, cc)


def get_kernel() -> CKernel | None:
    """The process-wide kernel handle, or ``None`` (disabled/unbuildable).

    The build outcome is cached after the first call; the
    ``REPRO_NO_CKERNEL`` switch is honoured on every call so tests can
    flip it without rebuilding.
    """
    if kernel_disabled():
        return None
    with _LOCK:
        if not _STATE["checked"]:
            try:
                _STATE["kernel"] = build_kernel()
            except CKernelError as exc:
                _STATE["error"] = str(exc)
            _STATE["checked"] = True
        return _STATE["kernel"]


def kernel_available() -> bool:
    """True when the compiled walk can actually run right now."""
    return get_kernel() is not None


def build_error() -> str | None:
    """The recorded build/load failure, if the kernel is unavailable."""
    with _LOCK:
        return _STATE["error"]


def kernel_info() -> dict:
    """Diagnostics block: availability, cache path, toolchain, errors.

    This is what persistence records into saved-model metadata, so an
    artifact remembers whether its producing environment ran compiled.
    """
    kernel = get_kernel()
    info = {
        "available": kernel is not None,
        "disabled": kernel_disabled(),
    }
    if kernel is not None:
        info["key"] = kernel.key
        info["so_path"] = str(kernel.so_path)
        info["compiler"] = kernel.compiler
    error = build_error()
    if error is not None:
        info["error"] = error
    return info


def reset() -> None:
    """Drop the cached build outcome (test hook: forces a re-probe)."""
    with _LOCK:
        _STATE["checked"] = False
        _STATE["kernel"] = None
        _STATE["error"] = None
