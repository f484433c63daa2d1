"""Shared benchmark machinery: span tracing, timing statistics, the
host-speed probe, the output-law gate, host facts and the results file.

Nothing here imports trunclap at module level; `run.py` puts the
checkout's `src/` on the path first, so the package measured is always the
one in the same checkout as the benchmark.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import sys
import threading
import time
from pathlib import Path

import numpy as np

perf = time.perf_counter
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


# --- tracing ------------------------------------------------------------------

class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, rec):
        self.tracer = tracer
        self.rec = rec

    def __enter__(self):
        self.tracer._stack.append(self.rec[0])
        self.rec[5] = perf()
        return self

    def __exit__(self, *exc):
        self.rec[6] = perf()
        self.tracer._stack.pop()
        return False


class Tracer:
    """In-memory span recorder.

    A span is [index, name, tag, request id, parent index, start, end].
    Spans are opened only in the benchmark's own files, around calls into
    the library, and written out once when the run ends.
    """

    def __init__(self, label: str):
        self.label = label
        self.spans: list[list] = []
        self._stack: list[int] = []

    def span(self, name: str, rid: int = -1, tag: str = "") -> _Span:
        parent = self._stack[-1] if self._stack else -1
        rec = [len(self.spans), name, tag, rid, parent, 0.0, 0.0]
        self.spans.append(rec)
        return _Span(self, rec)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its child spans cover."""
        dur = np.array([s[6] - s[5] for s in self.spans])
        own = dur.copy()
        for s in self.spans:
            if s[4] >= 0:
                own[s[4]] -= s[6] - s[5]
        return own

    def durations(self, name: str, tag: str | None = None) -> np.ndarray:
        return np.array([
            s[6] - s[5] for s in self.spans
            if s[1] == name and (tag is None or s[2] == tag)
        ])

    def summary(self) -> list[dict]:
        """Count, total and self time per (name, tag), slowest self time first."""
        own = self.self_times()
        agg: dict[tuple, list] = {}
        for s, o in zip(self.spans, own):
            a = agg.setdefault((s[1], s[2]), [0, 0.0, 0.0])
            a[0] += 1
            a[1] += s[6] - s[5]
            a[2] += o
        rows = [
            {"name": k[0], "tag": k[1], "count": v[0], "total_s": v[1], "self_s": v[2]}
            for k, v in agg.items()
        ]
        return sorted(rows, key=lambda r: -r["self_s"])

    def dump(self) -> dict:
        keys = ("index", "name", "tag", "request", "parent", "start", "end")
        return {"label": self.label, "fields": keys, "spans": self.spans}


def rate(tracer: Tracer, name: str) -> float:
    """Operations per second over the spans called `name`, each of which
    holds as many operations as its request id says."""
    spans = [s for s in tracer.spans if s[1] == name]
    return sum(s[3] for s in spans) / sum(s[6] - s[5] for s in spans)


def median_us(tracer: Tracer, name: str) -> float:
    return float(np.median(tracer.durations(name))) * 1e6


# --- output-law gate ------------------------------------------------------------

def tv_bound(masses: np.ndarray, n: int, delta: float = 1e-6) -> float:
    """Largest TV distance a faithful sampler reaches with probability 1 - delta.

    The mean term bounds the multinomial floor E[TV] at n independent draws:
    each count X_i has variance at most n*m_i*(1-m_i), so
    E|X_i - n*m_i| <= min(sqrt(n*m_i*(1-m_i)), 2*n*m_i).  TV moves by at
    most 1/n when one draw changes, so McDiarmid's inequality adds
    sqrt(ln(1/delta) / (2n)).  Both hold for independent draws that are not
    identically distributed, i.e. for a mixture over inputs x.
    """
    m = np.asarray(masses, dtype=float)
    mean_abs = np.minimum(np.sqrt(n * m * (1.0 - m)), 2.0 * n * m)
    return 0.5 * float(mean_abs.sum()) / n + math.sqrt(math.log(1.0 / delta) / (2.0 * n))


def tcl_inner_tv(params, gamma: int) -> float:
    """Exact TV between the gamma-lattice TCL inner law and the exact one.

    The sampler draws the centered discrete Laplace on the 2^-(p+gamma)
    lattice, rejects the top point +L and floors to the coarse grid; the
    tails and the branch probability are exact, so the composite TCL law
    is off from pmf_tcl by at most this much.
    """
    from trunclap import centered_clap_pmf, centered_dlap_pmf

    fine = centered_dlap_pmf(params.L, params.sigma, params.p + gamma).masses[:-1]
    coarse = (fine / fine.sum()).reshape(-1, 1 << gamma).sum(axis=1)
    exact = centered_clap_pmf(params.L, params.sigma, params.p).masses
    return 0.5 * float(np.abs(coarse - exact).sum())


class LawCheck:
    """Outputs of one (mechanism, parameter set): grid check and histogram.

    Outputs are binned by grid index; `weights[k]` counts the outputs whose
    input was the k-th point of [-E, E], so the expected law is the
    weighted mixture of the exact pmfs.
    """

    def __init__(self, mech: str, label: str, params):
        self.mech = mech
        self.label = label
        self.params = params
        self.spec = params.output_grid(mech)
        self.top = self.spec.bound_steps
        self.Es = round(params.E * 2**params.p)
        self.counts = np.zeros(self.spec.count, dtype=np.int64)
        self.weights = np.zeros(2 * self.Es + 1, dtype=np.int64)
        self.off_grid = 0

    def add(self, x_steps, values) -> int:
        """Bin outputs for their inputs (one x, or one per output); returns
        how many outputs lie off the output grid."""
        steps = np.asarray(values, dtype=float) * 2.0**self.params.p
        idx = np.rint(steps)
        good = (idx == steps) & (idx >= -self.top) & (idx < self.spec.count - self.top)
        bad = int(steps.size - np.count_nonzero(good))
        self.counts += np.bincount(
            (idx[good] + self.top).astype(np.int64), minlength=self.spec.count
        )
        xs = np.broadcast_to(np.asarray(x_steps, dtype=np.int64), steps.shape)
        self.weights += np.bincount(xs[good] + self.Es, minlength=self.weights.size)
        self.off_grid += bad
        return bad

    @property
    def n(self) -> int:
        return int(self.counts.sum())


def reference(check: LawCheck) -> np.ndarray:
    """Exact pmf at every input of [-E, E], one row per input."""
    from trunclap import pmf_tcl, pmf_tdl

    pmf = pmf_tdl if check.mech == "tdl" else pmf_tcl
    P = check.params
    return np.array([pmf((k - check.Es) * P.step, P).masses
                     for k in range(2 * check.Es + 1)])


def judge(check: LawCheck, table: np.ndarray, gamma: int) -> dict:
    """TV of the pooled outputs against the input-weighted mixture law."""
    from trunclap import ExactPmf, Histogram, tv_distance

    n = check.n
    row = {"mechanism": check.mech, "set": check.label, "outputs": n,
           "off_grid": check.off_grid}
    if n == 0:
        row.update(tv=None, tv_bound=None, law_ok=True)
        return row
    mix = check.weights @ table / n
    tv = tv_distance(Histogram(check.spec, check.counts),
                     ExactPmf(spec=check.spec, masses=mix, lam=1.0, center=0.0))
    bound = tv_bound(mix, n)
    if check.mech == "tcl":
        bound += tcl_inner_tv(check.params, gamma)
    row.update(tv=tv, tv_bound=bound, law_ok=tv <= bound)
    return row


# --- statistics and host -----------------------------------------------------------

def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def tail_pct(n: int) -> float:
    """The highest percentile, up to 99, with at least ten of n samples beyond it."""
    return min(99.0, max(50.0, 100.0 * (1.0 - 10.0 / max(n, 1))))


# --- host speed ----------------------------------------------------------------------

# The probe's median time on the reference host (2-vCPU KVM guest, Intel Xeon
# Sapphire Rapids family, Python 3.11.7, numpy 2.4.6).  Times are reported as
# they would read at that speed.
PROBE_REF_S = 1.2e-3
PROBE_EVERY = 0.05  # seconds between probes, at the loop's piece boundaries
PROBE_SMOOTH = 10   # a bucket's speed is the mean of this many probes on each side


class _Acc:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def step(self, w, q):
        return _Acc((self.a * 3 + w) % q, (self.b + (w >> 7)) % q)


def probe() -> float:
    """Seconds for a fixed piece of work like the library's: words from a
    numpy PCG64 stream turned into Python ints, modular arithmetic on small
    objects, a dict count and a small vectorized sum.  It never calls
    trunclap, so a change to the library cannot move it."""
    t0 = perf()
    words = np.random.Generator(np.random.PCG64(12345)).integers(
        0, 1 << 63, size=1024, dtype=np.uint64).tolist()
    acc, seen = _Acc(1, 2), {}
    for w in words:
        acc = acc.step(w, 1031)
        seen[acc.a] = seen.get(acc.a, 0) + 1
    np.cumsum(np.arange(4096, dtype=np.float64)).sum()
    return perf() - t0


class HostClock:
    """The host's speed along a run.

    The shared host runs this process 30% faster or slower for seconds to
    minutes at a time, so raw wall time moves by more between runs than any
    change worth finding.  The loop calls `tick()` between pieces of work;
    at most every PROBE_EVERY seconds it times `probe()`.  Each piece is
    filed under the latest probe (its bucket).  `scale()` gives each bucket
    PROBE_REF_S over the mean probe time around it, and a piece's reported
    time is its wall time times its bucket's scale: the time it would have
    taken at the reference speed.  The host flips between a fast and a
    slow speed many times a second, so the mean, which follows the share
    of time spent in each, fits where a median would snap to one of them.
    Probes slower than twice the run's median (a preempted probe) count as
    twice the median.
    """

    def __init__(self):
        self.probes: list[float] = []
        self._last = -math.inf
        self.tick()

    def tick(self) -> None:
        if perf() - self._last >= PROBE_EVERY:
            self.probes.append(probe())
            self._last = perf()

    @property
    def bucket(self) -> int:
        return len(self.probes) - 1

    def scale(self) -> np.ndarray:
        p, k = np.asarray(self.probes), PROBE_SMOOTH
        p = np.minimum(p, 2.0 * np.median(p))
        return np.array([PROBE_REF_S / np.mean(p[max(0, b - k + 1):b + k + 1])
                         for b in range(p.size)])

    def seconds(self, by_bucket: dict) -> float:
        """Reference-speed total of {bucket: wall seconds}."""
        s = self.scale()
        return float(sum(v * s[b] for b, v in by_bucket.items()))

    def times(self, seconds, buckets) -> np.ndarray:
        """Reference-speed times of pieces with the given buckets."""
        return np.asarray(seconds, dtype=float) * self.scale()[np.asarray(buckets, dtype=np.int64)]

    def summary(self) -> dict:
        p = np.asarray(self.probes)
        return {"probes": int(p.size), "probe_median_s": float(np.median(p)),
                "probe_min_s": float(p.min()), "probe_max_s": float(p.max()),
                "probe_ref_s": PROBE_REF_S}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def clear_library_caches() -> None:
    """Empty every functools cache in the loaded trunclap modules."""
    for name, mod in list(sys.modules.items()):
        if name == "trunclap" or name.startswith("trunclap."):
            for obj in list(vars(mod).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def host_facts(seed: int) -> dict:
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "seed": seed,
        "processes": 1,
        "threads": threading.active_count(),
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def write_results(name: str, doc: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(doc, indent=1, sort_keys=True, default=float) + "\n")
    return path
