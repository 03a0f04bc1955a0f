"""Machine and input facts printed with every result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np
import scipy

#: Environment variables the benchmark sets to 1 before numpy is imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level")).strip()
        kind = _read(os.path.join(index, "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"l{level}_cache"] = _read(os.path.join(index, "size")).strip()
    return sizes


def _blas() -> tuple[str, str]:
    """(library name and version, thread count it reports)."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name', 'unknown')} {info.get('version', '')}".strip()
    except (TypeError, KeyError):
        name = "unknown"
    libs = sorted({
        line.split()[-1]
        for line in _read("/proc/self/maps").splitlines()
        if "openblas" in line and ".so" in line
    })
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return name, str(fn())
    return name, "unknown"


def _file_system(path: str) -> str:
    """Type and mount point of the file system holding ``path``."""
    path = os.path.realpath(path)
    best = ("unknown", "")
    for line in _read("/proc/self/mounts").splitlines():
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1].replace("\\040", " ")
        inside = path == mount or path.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(best[1]):
            best = (fields[2], mount)
    return f"{best[0]} (mounted at {best[1] or '?'})"


def machine(work_dir: str) -> list:
    blas_name, blas_threads = _blas()
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    facts = [
        ("nproc", usable),
        ("cpu_count", os.cpu_count()),
        ("cpu_model", _cpu_model()),
        *_cache_sizes().items(),
        ("python", platform.python_version()),
        ("numpy", np.__version__),
        ("scipy", scipy.__version__),
        ("blas", blas_name),
        ("blas_threads", blas_threads),
        ("blas_thread_env", " ".join(f"{v}={os.environ.get(v)}" for v in BLAS_THREAD_VARS)),
        ("output_fs", _file_system(work_dir)),
    ]
    return facts


def inputs(grid_points: int) -> list:
    return [
        ("grid_points", grid_points),
        ("amplitude_array_bytes", f"{grid_points**2 * 16} (computed: n^2 * 16 B)"),
    ]
