"""Compiled (C/ctypes) kernel for the walks over vector data.

Public surface:

- :func:`kernel_available` — do :func:`~repro.index.base.count_walk`
  and :func:`~repro.index.base.nearest_walk` (vector spaces) run
  compiled here?
- :func:`compiled_count_walk` — ``level_count_walk``'s signature and
  counts for vector spaces: one GIL-free call per radius in which each
  query walks the tree depth first, the margin band re-measured
  through numpy.
- :func:`compiled_nearest_candidates` — one GIL-free call per batch
  that walks every row to a candidate set holding its exact nearest
  element, which ``nearest_walk`` re-measures through numpy.
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
from repro.index.ckernel.walk import compiled_count_walk, compiled_nearest_candidates

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
    "compiled_nearest_candidates",
    "find_compiler",
    "get_kernel",
    "kernel_available",
    "kernel_disabled",
    "kernel_info",
    "reset",
]
