"""Statistics and correctness checks shared by every workload.

Pure functions over numbers, stats objects and result sets: the tail
percentile rule, stats digests for the golden and
warm-vs-cold byte-identity checks, and the fidelity ledger against the
paper's figure-7 gains.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

#: The paper's SBI+SWI speedups over the baseline (suite geometric
#: means), read from figure 7 of Brunie, Collange and Diamos, ISCA 2012.
PAPER_SBI_SWI_GAIN_PCT = {"regular": 23.0, "irregular": 40.0}
PAPER_SOURCE = {
    "regular": "figure 7a (regular applications)",
    "irregular": "figure 7b (irregular applications)",
}


class Tail(NamedTuple):
    """A tail latency: the value at percentile ``p`` of ``n`` samples."""

    p: int
    value: float
    n: int


#: Points of the grid the Beta density is integrated on in :func:`quantile`.
_BETA_GRID = 200_001


def quantile(values: Sequence[float], q: float) -> float:
    """The Harrell-Davis estimate of quantile ``q`` of ``values``.

    A weighted mean of every order statistic, weighted by how likely
    each is to be the ``q`` quantile (a Beta(q(n+1), (1-q)(n+1))
    distribution over ranks), instead of the one sample at a rank.  On
    grids of a few dozen cells of very different lengths the sample at
    one rank jumps between neighbours 10-30% apart as host noise
    reorders them; the weighted mean moves smoothly.
    """
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    # The Beta CDF at the rank boundaries i/n, integrated on a grid
    # fine enough for the narrowest density used here (n in the
    # thousands); log space keeps the large exponents finite.
    grid = np.linspace(0.0, 1.0, _BETA_GRID)[1:-1]
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf)))
    cdf /= cdf[-1]
    at = np.interp(np.arange(n + 1) / n, np.concatenate(([0.0], grid)), cdf)
    at[-1] = 1.0
    return float(np.dot(np.diff(at), xs))


def tail(values: Sequence[float], min_beyond: int = 10) -> Tail:
    """The highest whole percentile with ``min_beyond`` samples past it.

    The percentile is chosen by nearest rank: percentile ``p`` of ``n``
    sorted samples sits at 1-based rank ``ceil(p * n / 100)``, and the
    samples beyond it are those ranked after it.  Its value is the
    :func:`quantile` estimate at ``p``.  Needs at least
    ``2 * min_beyond`` samples, so that the median qualifies.
    """
    n = len(values)
    for p in range(99, 49, -1):
        rank = -(-p * n // 100)
        if n - rank >= min_beyond:
            return Tail(p, quantile(values, p / 100.0), n)
    raise ValueError(
        "a tail percentile with %d samples beyond it needs at least %d "
        "samples, got %d" % (min_beyond, 2 * min_beyond, n)
    )


def stats_sha(stats) -> str:
    """Digest of a Stats/DeviceStats object, as the golden file keys it:
    the SHA-256 of ``json.dumps(stats.to_dict(), sort_keys=True)``."""
    blob = json.dumps(_plain(stats), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def _plain(stats) -> dict:
    """``stats.to_dict()`` as JSON sees it, without the deep copies of
    ``dataclasses.asdict``: the warm checks digest every cell of every
    pass, and with the copies they took about as long as the pass."""
    kind = type(stats)
    names = _FIELD_NAMES.get(kind)
    if names is None:
        names = _FIELD_NAMES[kind] = tuple(f.name for f in dataclasses.fields(kind))
    data = {name: getattr(stats, name) for name in names}
    if "sm_stats" in data:
        data["sm_stats"] = [_plain(s) for s in data["sm_stats"]]
    return data


def grid_sha(shas: Mapping[str, str]) -> str:
    """One digest over every cell's stats digest, independent of order."""
    blob = "\n".join("%s %s" % item for item in sorted(shas.items()))
    return hashlib.sha256(blob.encode()).hexdigest()


def sim_cycles(stats) -> int:
    """Simulated SM-cycles: device cycles count once per SM."""
    sm_count = getattr(stats, "sm_count", 1)
    return stats.cycles * sm_count


def sm_total(stats):
    """The SM-level counters of a cell (device cells summed over SMs)."""
    return stats.total if hasattr(stats, "sm_stats") else stats


def _mode_and_variant(config_name: str) -> Tuple[str, str]:
    mode, _, variant = config_name.partition("/")
    return mode, variant


def suite_gains(
    results, base: str = "baseline", target: str = "sbi_swi"
) -> Dict[str, float]:
    """Geometric-mean IPC gain of ``target`` over ``base`` per suite, in %.

    ``results`` is a :class:`repro.api.ResultSet`.  Config names are
    ``<mode>`` or ``<mode>/<axis variant>`` (``baseline/sm_count=4``);
    each variant is compared with the base of the same variant, and
    the gmean runs over every (workload, variant) pair of the suite.
    Workloads in ``MEAN_EXCLUDED`` (tmd1, tmd2) are left out, as the
    paper does.
    """
    from repro.analysis.report import gmean
    from repro.api import Result, ResultSet
    from repro.workloads import MEAN_EXCLUDED, category_of

    by_variant: Dict[str, List] = {}
    for r in results:
        mode, variant = _mode_and_variant(r.config)
        if mode in (base, target):
            by_variant.setdefault(variant, []).append(
                Result(r.workload, r.size, mode, r.stats)
            )
    ratios: Dict[str, List[float]] = {}
    for variant in sorted(by_variant):
        table = ResultSet(by_variant[variant]).speedup_over(base)
        for workload, row in table.items():
            if workload in MEAN_EXCLUDED or target not in row:
                continue
            ratios.setdefault(category_of(workload), []).append(row[target])
    return {suite: 100.0 * (gmean(vals) - 1.0) for suite, vals in ratios.items()}


def fidelity(results) -> Dict[str, Dict[str, object]]:
    """Measured vs. paper SBI+SWI gain per suite, with the gap in pp."""
    gains = suite_gains(results)
    out: Dict[str, Dict[str, object]] = {}
    for suite, paper in PAPER_SBI_SWI_GAIN_PCT.items():
        if suite not in gains:
            raise ValueError("the grid has no %s workload to compare" % suite)
        out[suite] = {
            "measured_pct": gains[suite],
            "paper_pct": paper,
            "error_pp": abs(gains[suite] - paper),
            "source": PAPER_SOURCE[suite],
        }
    return out


def model_summary(results, configs: Mapping, mode: str = "sbi_swi") -> Dict[str, float]:
    """Simulated counters of the ``mode`` cells behind the fidelity gap.

    ``configs`` maps config names to the configs the cells ran, for
    the warp width that SIMD efficiency divides by.
    """
    from repro.analysis.report import gmean
    from repro.workloads import MEAN_EXCLUDED

    cells = [
        r for r in results
        if _mode_and_variant(r.config)[0] == mode and r.workload not in MEAN_EXCLUDED
    ]
    if not cells:
        return {}
    totals = [sm_total(r.stats) for r in cells]
    issued = sum(s.instructions_issued for s in totals)
    lanes = sum(
        s.instructions_issued * getattr(configs[r.config], "sm", configs[r.config]).warp_width
        for r, s in zip(cells, totals)
    )
    return {
        "ipc_gmean": gmean(r.stats.ipc for r in cells),
        "simd_efficiency": ratio(sum(s.thread_instructions for s in totals), lanes),
        "sbi_secondary_share": ratio(sum(s.issued_sbi_secondary for s in totals), issued),
        "swi_hit_ratio": ratio(
            sum(s.swi_hits for s in totals), sum(s.swi_lookups for s in totals)
        ),
    }


def ratio(part: float, whole: float) -> float:
    """``part / whole``, 0 when nothing was attempted."""
    return part / whole if whole else 0.0


def finite(value: float) -> float:
    """``value``, refusing NaN and infinities (JSON cannot carry them)."""
    if not math.isfinite(value):
        raise ValueError("metric value %r is not finite" % (value,))
    return value
