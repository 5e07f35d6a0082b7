"""Shared helpers: checkout paths, percentiles, the host stamp, LP optima.

``run.py`` calls :func:`require_source` before it imports a workload
module: it puts the checkout's ``src/`` on ``sys.path``, so the benchmark
measures the code of the checkout it runs in, never an installed copy.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# inputs written for the daemon and the LP cache; listed in .gitignore
WORK = ROOT / ".perfbench-work"


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, bad input)."""


def require_source() -> None:
    """Fail unless the checkout holds the package, then import from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for a child python that must import the checkout's code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def tail_percentile(count: int, wanted: float = 99.0) -> float:
    """The highest percentile up to ``wanted`` with >= 10 samples beyond it."""
    if count <= 10:
        return 50.0
    return max(50.0, min(wanted, math.floor(100.0 * (1.0 - 10.0 / count))))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def self_peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_stamp(workload: str, seed: int, seconds: int, trace: bool) -> Dict:
    """Host and context recorded beside every result."""
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def lp_optima(models: Sequence[Dict], labels: Sequence[str]) -> List[float]:
    """``solve_lp`` utility optimum of each model document, cached.

    The cache is keyed by the label (workload and seed) plus a hash of the
    model itself.  Misses are solved in a child process: the dense LP of the
    1000-node rung peaks near 1 GiB, which must not count in the peak RSS
    of the process being measured.
    """
    WORK.mkdir(exist_ok=True)
    cache_path = WORK / "lp-cache.json"
    cache: Dict[str, float] = {}
    if cache_path.is_file():
        cache = json.loads(cache_path.read_text())
    keys = []
    missing = []
    for label, model in zip(labels, models):
        text = json.dumps(model, sort_keys=True)
        key = f"{label}/{hashlib.sha256(text.encode()).hexdigest()[:16]}"
        keys.append(key)
        if key not in cache:
            path = WORK / f"lp-{len(missing)}.json"
            path.write_text(text)
            missing.append((key, path))
    if missing:
        out = subprocess.run(
            [sys.executable, str(HERE / "lp.py")] + [str(p) for _, p in missing],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=170,
        )
        if out.returncode != 0:
            raise BenchError(f"LP reference solve failed: {out.stderr[-2000:]}")
        for (key, path), value in zip(missing, json.loads(out.stdout)):
            cache[key] = float(value)
            path.unlink()
        tmp = cache_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cache, indent=1, sort_keys=True))
        os.replace(tmp, cache_path)
    return [cache[key] for key in keys]
