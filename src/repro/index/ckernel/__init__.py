"""Compiled (C/ctypes) kernel for the innermost frontier-walk loops.

Public surface:

- :func:`kernel_available` — does :func:`~repro.index.base.count_walk`
  run the compiled walk here?
- :func:`compiled_count_walk` — the drop-in for ``level_count_walk``.
- :func:`kernel_info` — diagnostics (cache key, compiler, build error),
  recorded into saved-model metadata by :mod:`repro.io`.
- ``REPRO_NO_CKERNEL=1`` forces the pure-numpy fallback; see
  :mod:`repro.index.ckernel.loader` for build and cache semantics.
"""

from repro.index.ckernel.loader import (
    ABI_VERSION,
    CFLAGS,
    CKernelError,
    ENV_CACHE,
    ENV_DISABLE,
    SOURCE_PATH,
    build_error,
    cache_dir,
    find_compiler,
    get_kernel,
    kernel_available,
    kernel_disabled,
    kernel_info,
    reset,
)
from repro.index.ckernel.walk import compiled_count_walk

__all__ = [
    "ABI_VERSION",
    "CFLAGS",
    "CKernelError",
    "ENV_CACHE",
    "ENV_DISABLE",
    "SOURCE_PATH",
    "build_error",
    "cache_dir",
    "compiled_count_walk",
    "find_compiler",
    "get_kernel",
    "kernel_available",
    "kernel_disabled",
    "kernel_info",
    "reset",
]
