"""Error metrics over exhaustive operand sweeps.

A sweep walks the fixed first-operand chunks of `sweep_chunk_bounds` and
merges each chunk's mergeable accumulator in chunk order.  The commands
sweep through `clustering.cluster_sweep`, which evaluates each chunk once
and derives these totals and the per-block sums from it;
`exhaustive_sweep` here is the plain reduction it is checked against.
All counts and distance sums are exact integers; the relative-error sum
`sum_red` is a float and so depends on the merge order, but the partition
depends only on the width, so a sweep reduces to the same bytes on every
run.  The squared-distance sum outgrows 63 bits (AMA2 at width 12 reaches
about 2^68.6), so it goes through `square_partials`, which never forms a
sum that int64 could wrap.

Memory is bounded by one chunk (1/16 of the 4^n pairs) plus the
per-block sums, so a sweep at the widest width `MultiplierConfig`
accepts, fabric.MAX_WIDTH = 12, peaks at about 67 MB RSS (the ED
histogram also keeps 4^n uint32 counts, 64 MB, and peaks at about
123 MB); each added bit would multiply both by four.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fabric import CellGrid, eval_multiply_many

PEAK_SQUARED = 255 * 255   # PSNR numerator is fixed at 255^2 for every width


@dataclass(frozen=True)
class MetricAccumulator:
    count: int = 0
    err_count: int = 0
    sum_ed: int = 0
    sum_ed_sq: int = 0
    max_ed: int = 0
    sum_red: float = 0.0
    red_count: int = 0


def merge(a: MetricAccumulator, b: MetricAccumulator) -> MetricAccumulator:
    return MetricAccumulator(
        count=a.count + b.count,
        err_count=a.err_count + b.err_count,
        sum_ed=a.sum_ed + b.sum_ed,
        sum_ed_sq=a.sum_ed_sq + b.sum_ed_sq,
        max_ed=max(a.max_ed, b.max_ed),
        sum_red=a.sum_red + b.sum_red,
        red_count=a.red_count + b.red_count,
    )


def accumulate_arrays(exact: np.ndarray, ed: np.ndarray,
                      squares: np.ndarray) -> MetricAccumulator:
    """Build an accumulator from parallel int64 exact-product and ED arrays.

    `squares` are the `square_partials` of `ed`, summed to shape (3,); the
    caller forms them once and may reuse them, as the block fold does.
    """
    nonzero = exact > 0
    red = ed[nonzero].astype(np.float64)   # divided in place: one float array
    red /= exact[nonzero]
    return MetricAccumulator(
        count=int(ed.size),
        err_count=int(np.count_nonzero(ed)),
        sum_ed=int(ed.sum()),
        sum_ed_sq=combine_squares(*squares.tolist()),
        max_ed=int(ed.max(initial=0)),
        sum_red=float(red.sum()),
        red_count=int(np.count_nonzero(nonzero)),
    )


def square_partials(values: np.ndarray, axis=None) -> np.ndarray:
    """int64 partial sums that `combine_squares` turns into an exact sum of squares.

    Each integer in [0, 2^32) is split as hi * 2^16 + lo, so every product
    summed is below 2^32 and each of the three partials (hi*hi, hi*lo,
    lo*lo, stacked on a new leading axis) stays below 2^63 for fewer than
    2^31 values, even when partials of several chunks are added up.
    """
    hi = (values >> 16).astype(np.uint32)
    lo = (values & 0xFFFF).astype(np.uint32)
    return np.stack([(p * q).sum(axis=axis, dtype=np.int64)
                     for p, q in ((hi, hi), (hi, lo), (lo, lo))])


def combine_squares(hh, hl, ll):
    """Recombine `square_partials` given as Python ints (or object arrays of them)."""
    return (hh << 32) + (hl << 17) + ll


def psnr_from_mse(mse: float) -> float:
    """10*log10(255^2 / mse); mse = 0 maps to the +inf sentinel."""
    if mse < 0:
        raise ValueError(f"mse must be nonnegative, got {mse}")
    if mse == 0:
        return math.inf
    return 10.0 * math.log10(PEAK_SQUARED / mse)


@dataclass(frozen=True)
class MetricReport:
    er: float
    med: float
    ned_global: float
    mred: float
    mse: float
    psnr_global: float
    max_ed: int
    count: int
    ned_clustered_avg: float | None = None
    psnr_clustered_avg: float | None = None


def finalize(acc: MetricAccumulator, pmax: int) -> MetricReport:
    if acc.count == 0:
        raise ValueError("cannot finalize an empty accumulator")
    if pmax <= 0:
        raise ValueError(f"pmax must be positive, got {pmax}")
    med = acc.sum_ed / acc.count
    mse = acc.sum_ed_sq / acc.count
    return MetricReport(
        er=acc.err_count / acc.count,
        med=med,
        ned_global=med / pmax,
        mred=acc.sum_red / acc.red_count if acc.red_count else 0.0,
        mse=mse,
        psnr_global=psnr_from_mse(mse),
        max_ed=acc.max_ed,
        count=acc.count,
    )


def sweep_chunk_bounds(n: int) -> list[tuple[int, int]]:
    """Fixed first-operand partition of the sweep domain.

    Chunking depends only on the width, so every sweep of a design merges
    the same chunks in the same order.
    """
    side = 1 << n
    chunks = min(16, side)
    step = side // chunks
    return [(lo, lo + step) for lo in range(0, side, step)]


def chunk_operands(n: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Operands of one sweep chunk: first operand in [lo, hi), every second one.

    Both arrays have shape (hi - lo, 2^n), broadcast views with row x - lo
    holding (x, y) for y = 0 .. 2^n - 1.
    """
    return np.broadcast_arrays(np.arange(lo, hi, dtype=np.int64)[:, None],
                               np.arange(1 << n, dtype=np.int64))


def sweep_chunk(grid: CellGrid, lo: int, hi: int) -> MetricAccumulator:
    """Accumulate outcomes for first operand in [lo, hi), all second operands."""
    xs, ys = chunk_operands(grid.width, lo, hi)
    exact = xs * ys
    ed = np.abs(exact - eval_multiply_many(grid, xs, ys))
    return accumulate_arrays(exact, ed, square_partials(ed))


def exhaustive_sweep(grid: CellGrid) -> MetricAccumulator:
    """Accumulate all 2^(2n) ordered operand pairs, chunk by chunk.

    The plain reduction that `clustering.cluster_sweep(...).totals` must
    equal field for field.
    """
    acc = MetricAccumulator()
    for lo, hi in sweep_chunk_bounds(grid.width):
        acc = merge(acc, sweep_chunk(grid, lo, hi))
    return acc


def fmt6(value) -> str:
    if value is None:
        return ""
    if value == math.inf:
        return "inf"
    return f"{value:.6g}"


# Accuracy-table CSV columns after design, type and degree:
# (header, MetricReport attribute, formatter); floats at 6 significant digits.
REPORT_CSV_COLUMNS = (
    ("er", "er", fmt6), ("med", "med", fmt6), ("ned", "ned_clustered_avg", fmt6),
    ("mred", "mred", fmt6), ("mse", "mse", fmt6), ("psnr", "psnr_clustered_avg", fmt6),
    ("ned_global", "ned_global", fmt6), ("psnr_global", "psnr_global", fmt6),
    ("max_ed", "max_ed", str), ("count", "count", str),
)


def report_csv_header() -> str:
    return ",".join(("design", "type", "degree",
                     *(header for header, _, _ in REPORT_CSV_COLUMNS)))


def report_csv_row(report: MetricReport, design: tuple[str, str, str]) -> str:
    """One CSV row; `design` fills the header's design, type and degree columns."""
    return ",".join((*design, *(fmt(getattr(report, attr))
                                for _, attr, fmt in REPORT_CSV_COLUMNS)))
