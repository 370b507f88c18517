"""Shared pieces of the benchmark: checkout bootstrap, seeded inputs, statistics.

The benchmark measures the program in ``src/`` of the checkout it lives in.
It never imports ``repro.bench``: what is measured must not change when that
module does, and its input perturbation makes responses uncheckable.
"""

from __future__ import annotations

import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch files of a run (spans of the traced server); listed in .gitignore.
WORK = ROOT / ".perfbench"

#: Paper-benchmark names in Table 1 order, fixed here so the metric names do
#: not depend on what the program under test exports.
KERNELS = ("MC", "LU", "LE", "MV", "SS", "LIB", "CFD", "BK", "TMV", "NN")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: The paper's reported geometric-mean speedup (PAPER.md).
PAPER_SPEEDUP_GM = 2.18


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


def bootstrap() -> None:
    """Point imports at the checkout's ``src/`` and clear simulator knobs.

    Raises :class:`BenchError` when the checkout holds no program, so a bare
    copy of the benchmark exits non-zero without printing a result.
    ``GPUSIM_*`` variables are removed so the engine, parallelism and disk
    cache are the program's defaults whatever the caller's environment.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("GPUSIM_")]:
        del os.environ[key]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")


def seeded_bench(name: str, seed: int, **kwargs):
    """Paper benchmark ``name`` whose inputs are drawn from ``seed``.

    Every benchmark draws its inputs from ``GpuBenchmark.seed`` in its
    constructor, so a subclass overriding the seed gives fresh, checkable
    inputs without touching the program.
    """
    from repro.kernels import BENCHMARKS

    base = BENCHMARKS[name]
    return type(base.__name__, (base,), {"seed": int(seed)})(**kwargs)


def kernel_names(benches: dict) -> dict:
    """Map kernel function names (baseline and ``_np`` variant) to paper names."""
    out = {}
    for name, bench in benches.items():
        out[bench.kernel.name] = name
        out[bench.kernel.name + "_np"] = name
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


# -- CPU placement and host-speed normalisation --------------------------------

def work_cpus() -> tuple:
    """``(simulator CPU, load-generator CPU)`` among the CPUs this process may use.

    Each virtual CPU of a shared host runs at its own, changing speed (two
    pinned copies of one loop differed by 20 % and their per-second speeds
    correlated at 0.17), so the simulating process is pinned to one CPU and
    the host-speed probe runs on that same CPU.
    """
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[-1], allowed[0]


def pin(cpu: int) -> None:
    """Pin the calling thread, and threads and processes it starts later, to ``cpu``."""
    os.sched_setaffinity(0, {cpu})


#: Median seconds of :func:`probe_s` on the reference host (2-vCPU Intel
#: Xeon KVM guest, Python 3.11, NumPy 2.4).  Normalised times are "seconds
#: on a host where the probe takes this long".
PROBE_REF_S = 0.020


class NormClock:
    """Times calls and scales them by the host's current speed.

    Shared virtual machines change speed by tens of percent within seconds,
    which no program change causes.  A fixed probe (pure-Python arithmetic
    plus large NumPy sorts and reductions, the two kinds of work the
    simulator engines do) runs on the simulating CPU between timed calls;
    each call's seconds are scaled by ``PROBE_REF_S`` over the mean of the
    probes on either side of it.  The probe does not touch the program, so a change to the program
    moves normalised times exactly as it moves raw ones.
    """

    def __init__(self, cpu: int) -> None:
        import numpy as np

        self.cpu = cpu
        self._data = np.random.default_rng(0).random(1 << 20).astype(np.float32)
        self.last = self.probe_s()

    def probe_s(self) -> float:
        """Seconds the probe takes now on ``self.cpu``."""
        previous = os.sched_getaffinity(0)
        pin(self.cpu)
        try:
            start = time.perf_counter()
            acc = 0
            for i in range(100_000):
                acc += i * i
            for _ in range(3):
                self._data[::3].copy().sort()
                float((self._data * 2.0 + 1.0).sum())
            return time.perf_counter() - start
        finally:
            os.sched_setaffinity(0, previous)

    def call(self, fn, *args, **kwargs):
        """``(result, raw_s, normalised_s)`` of ``fn(*args, **kwargs)``."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - start
        return result, raw, self.scale(raw)

    def scale(self, raw_s: float) -> float:
        """Normalise ``raw_s`` measured since the last probe; probes again."""
        before, self.last = self.last, self.probe_s()
        return normalise(raw_s, before, self.last)


def normalise(raw_s: float, probe_before: float, probe_after: float) -> float:
    """``raw_s`` in seconds at the reference host speed."""
    return raw_s * PROBE_REF_S / ((probe_before + probe_after) / 2.0)


# -- statistics ---------------------------------------------------------------

def quantile(values, q: float) -> float:
    """Linearly interpolated quantile, ``q`` in [0, 1]."""
    xs = sorted(values)
    if not xs:
        raise BenchError("quantile of no samples")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    if math.isinf(xs[lo]) or math.isinf(xs[hi]):
        return xs[hi] if pos > lo else xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def tail_percentile(values, pct: float) -> float:
    """The ``pct`` percentile, refused unless >= 10 samples lie beyond it."""
    beyond = math.floor(len(values) * (1.0 - pct / 100.0) + 1e-9)
    if beyond < TAIL_MIN_BEYOND:
        raise BenchError(
            f"p{pct:g} needs {TAIL_MIN_BEYOND} samples beyond it; "
            f"{len(values)} samples leave {beyond}"
        )
    return quantile(values, pct / 100.0)


def geomean(values) -> float:
    xs = list(values)
    if not xs or any(x <= 0 for x in xs):
        raise BenchError(f"geometric mean needs positive values, got {xs}")
    return math.exp(sum(math.log(x) for x in xs) / len(xs))
