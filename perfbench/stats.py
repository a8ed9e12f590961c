"""Order statistics, the reporting rule for percentiles, and the machine fingerprint."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Optional, Sequence

#: Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50, 75, 90, 95, 99)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def highest_percentile(n: int, min_beyond: int = MIN_BEYOND) -> Optional[int]:
    """The highest of :data:`PERCENTILES` with ``min_beyond`` of ``n`` samples above it.

    With 48 samples p75 leaves 12 beyond it and p90 only 4.8, so 75 is the
    answer; below 20 samples not even the median qualifies and the result is
    ``None``.
    """
    best = None
    for p in PERCENTILES:
        if n * (100 - p) / 100.0 >= min_beyond:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)


def _git_revision(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def source_digest(src: Path) -> str:
    """SHA-256 over the program's Python sources (path and bytes, sorted)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(root: Path) -> Dict[str, object]:
    """CPU count, interpreter and numpy versions, and the program revision."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_revision": _git_revision(root),
        "src_sha256": source_digest(root / "src"),
    }
