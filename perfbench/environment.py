"""Machine and interpreter facts recorded with every result (read-only probes)."""
from __future__ import annotations

import os
import platform


def _read(path: str) -> str | None:
    try:
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _size_bytes(text: str) -> int:
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    return int(text[:-1]) * units[text[-1]] if text[-1] in units else int(text)


def _caches() -> dict:
    """Per-level data/unified cache sizes of cpu0 from sysfs, in bytes."""
    out = {}
    root = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(root)) if os.path.isdir(root) else []:
        level = _read(os.path.join(root, entry, "level"))
        kind = _read(os.path.join(root, entry, "type"))
        size = _read(os.path.join(root, entry, "size"))
        if level and size and kind in ("Data", "Unified"):
            out[f"L{level}"] = _size_bytes(size)
    return out


def describe() -> dict:
    import numpy
    import scipy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": usable,
        "cpu_model": _cpu_model(),
        "cache_bytes": _caches(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def bandwidth_note(env: dict, sizes: dict) -> str:
    """Whether the per-item arrays are large enough to say anything about DRAM."""
    llc = max(env["cache_bytes"].values(), default=0)
    biggest = max(sizes.values())
    if llc and biggest < 4 * llc:
        return (f"largest computed array {biggest / 2**20:.1f} MiB is under 4x the "
                f"last-level cache ({llc / 2**20:.0f} MiB): these runs cannot support a "
                "memory-bandwidth claim")
    return "largest computed array exceeds 4x the last-level cache"
