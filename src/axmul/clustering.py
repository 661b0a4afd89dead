"""Input-cluster analysis: per-block NED/MSE/PSNR and ED histograms.

The operand space is tiled into blocks of `cluster_size` consecutive
values per operand (16x16 blocks of 256 pairs each at width 8).  Each
block's NED is normalized by the block-local maximum exact product, so
blocks of small operands are judged against what they could actually
produce; the global normalization stays available in MetricReport.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .fabric import CellGrid, eval_multiply_many
from .metrics import (PEAK_SQUARED, MetricAccumulator, accumulate_arrays,
                      chunk_operands, combine_squares, fmt6, merge,
                      square_partials, sweep_chunk_bounds)


MAX_BLOCKS = 1 << 20   # grid side <= 1024; the report keeps a row per block
MAX_BINS = 1 << 16     # every bin width fits at width 8, where ED < 2^16
# the per-block rule of each quality metric: its comparison and symbol
RULES = {"ned": (operator.le, "<="), "psnr": (operator.ge, ">=")}


@dataclass(frozen=True)
class ClusterSpec:
    width: int
    cluster_size: int

    def __post_init__(self):
        side = 1 << self.width
        if self.cluster_size < 1 or side % self.cluster_size:
            raise ValueError(
                f"cluster size {self.cluster_size} must divide 2^{self.width}")
        if self.total_clusters > MAX_BLOCKS:
            raise ValueError(
                f"cluster size {self.cluster_size} at width {self.width} gives "
                f"{self.total_clusters} blocks; at most {MAX_BLOCKS} are supported")

    @property
    def grid_side(self) -> int:
        return (1 << self.width) // self.cluster_size

    @property
    def total_clusters(self) -> int:
        return self.grid_side ** 2


@dataclass(frozen=True, eq=False)
class ClusterReport:
    """Aggregates of every s*s operand block, one structured-array row each.

    `cells` is row-major (row ia * grid_side + ib) with the fields ia, ib
    (block indices of the first and second operand), mean_ed,
    pmax_cluster, ned, mse, psnr and the exact integer masses sum_ed and
    sum_ed_sq (int64, or Python ints where a block's sum reaches 2^63).
    `mse` is the raw mean squared ED, so its mean over all blocks is the
    global MSE.  `psnr` judges the block as an image scaled to its own
    peak product: the EDs are mapped onto 0..255 by 255/pmax_cluster
    before squaring, which makes blocks of small operands comparable to
    blocks of large ones.
    """

    spec: ClusterSpec
    cells: np.ndarray
    totals: MetricAccumulator         # the whole-domain sweep the cells came from

    # The averages sum left to right with np.add.accumulate, not pairwise as
    # numpy's sum does, nor compensated as Python's sum() is from 3.12 on:
    # the printed values depend on the summation order.
    @property
    def ned_avg(self) -> float:
        ned = self.cells["ned"]
        return float(np.add.accumulate(ned)[-1]) / ned.size

    @property
    def ned_max(self) -> float:
        return float(self.cells["ned"].max())

    def _finite_psnr(self) -> np.ndarray:
        psnr = self.cells["psnr"]
        return psnr[psnr != math.inf]

    @property
    def psnr_avg(self) -> float:
        """Mean over finite-PSNR cells; +inf cells are reported separately."""
        finite = self._finite_psnr()
        if not finite.size:
            return math.inf
        return float(np.add.accumulate(finite)[-1]) / finite.size

    @property
    def psnr_min(self) -> float:
        finite = self._finite_psnr()
        return float(finite.min()) if finite.size else math.inf

    def meets(self, metric: str, threshold: float) -> np.ndarray:
        """Per block, whether it meets the threshold by RULES: ned <= t, or psnr >= t."""
        if metric not in RULES:
            raise ValueError(f"unknown quality metric {metric!r}")
        compare, _ = RULES[metric]
        return compare(self.cells[metric], threshold)


def chunk_errors(grid: CellGrid, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact products and EDs of one sweep chunk, each int64 (hi - lo, 2^n).

    The ED is formed in place in the evaluator's output buffer, so a chunk
    holds just these two product-sized arrays.
    """
    xs, ys = chunk_operands(grid.width, lo, hi)
    exact = xs * ys
    ed = eval_multiply_many(grid, xs, ys)
    np.subtract(exact, ed, out=ed)
    np.abs(ed, out=ed)
    return exact, ed


def cluster_sweep(grid: CellGrid, cluster_size: int) -> ClusterReport:
    """Aggregate every s*s operand block, and the whole domain, in one sweep.

    Each first-operand chunk is evaluated once and its ED array formed
    once.  The chunk is folded into per-block ED sums and int64 squared-ED
    partials; a block taller than a chunk collects several chunks.  The
    chunk's partials, summed over its blocks, give the squared-ED sum of
    the global accumulator, which merges the chunks in chunk order (so
    `totals` equals `exhaustive_sweep`).  `finish_blocks` turns the
    per-block sums into the report's columns.
    """
    spec = ClusterSpec(grid.width, cluster_size)   # refuses oversized grids
    bounds = sweep_chunk_bounds(grid.width)

    s = spec.cluster_size
    g = spec.grid_side
    totals = MetricAccumulator()
    sum_ed = np.zeros((g, g), dtype=np.int64)
    sq_parts = np.zeros((3, g, g), dtype=np.int64)
    for lo, hi in bounds:
        exact, ed = chunk_errors(grid, lo, hi)
        rows = min(s, hi - lo)   # operand rows per block within this chunk
        blocks = ed.reshape(-1, rows, g, s)
        squares = square_partials(blocks, axis=(1, 3))
        # fewer than 2^31 values per sweep: the int64 partial sums cannot wrap
        totals = merge(totals, accumulate_arrays(exact, ed, squares.sum(axis=(1, 2))))
        ia = slice(lo // s, lo // s + blocks.shape[0])
        sum_ed[ia] += blocks.sum(axis=(1, 3))
        sq_parts[:, ia] += squares
        del exact, ed, blocks   # free this chunk before the next is evaluated
    return ClusterReport(spec, finish_blocks(spec, sum_ed, sq_parts), totals)


def finish_blocks(spec: ClusterSpec, sum_ed: np.ndarray,
                  sq_parts: np.ndarray) -> np.ndarray:
    """The report's structured array from per-block ED sums and squared partials.

    `sum_ed` is (grid_side, grid_side) and `sq_parts` the matching
    `square_partials`, (3, grid_side, grid_side).  Every step rounds as
    the scalar formulas do: a block holds a power-of-two number of pairs,
    so int -> float conversion followed by `/ pairs` equals Python's
    `int / int`, and the squaring of 255/pmax and the logarithm of the
    PSNR go through libm (`pow`, `math.log10`), whose results numpy's own
    `**` and `log10` do not always reproduce.
    """
    s, g = spec.cluster_size, spec.grid_side
    pairs = s * s
    sum_ed = sum_ed.ravel()
    hh, hl, ll = sq_parts.reshape(3, -1)
    bound = ((int(hh.max(initial=0)) << 32) + (int(hl.max(initial=0)) << 17)
             + int(ll.max(initial=0)))
    if bound >= 1 << 63:   # some block's sum may not fit int64: exact Python ints
        hh, hl, ll = hh.astype(object), hl.astype(object), ll.astype(object)
    sum_ed_sq = combine_squares(hh, hl, ll)
    mean_ed = sum_ed / pairs
    mse = (sum_ed_sq / pairs).astype(np.float64)
    edge = s * np.arange(g, dtype=np.int64) + s - 1
    pmax = np.multiply.outer(edge, edge).ravel()
    ned = np.zeros_like(mean_ed)
    factor = np.ones_like(mse)   # a block with pmax 0 keeps its raw MSE
    scaled_blocks = pmax > 0
    np.divide(mean_ed, pmax, out=ned, where=scaled_blocks)
    factor[scaled_blocks] = list(map(pow, (255.0 / pmax[scaled_blocks]).tolist(),
                                     repeat(2)))
    scaled = mse * factor
    psnr = np.full_like(mse, math.inf)
    erring = scaled > 0
    psnr[erring] = 10.0 * np.array(
        list(map(math.log10, (PEAK_SQUARED / scaled[erring]).tolist())))

    ia, ib = np.divmod(np.arange(g * g, dtype=np.int64), g)
    columns = {"ia": ia, "ib": ib, "mean_ed": mean_ed, "pmax_cluster": pmax,
               "ned": ned, "mse": mse, "psnr": psnr,
               "sum_ed": sum_ed, "sum_ed_sq": sum_ed_sq}
    cells = np.empty(g * g, dtype=[(name, col.dtype) for name, col in columns.items()])
    for name, col in columns.items():
        cells[name] = col
    return cells


CSV_FIELDS = ("ia", "ib", "mean_ed", "pmax_cluster", "ned", "mse", "psnr")


def cluster_csv(report: ClusterReport) -> str:
    lines = [",".join(CSV_FIELDS)]
    for ia, ib, mean_ed, pmax, ned, mse, psnr in report.cells[list(CSV_FIELDS)].tolist():
        lines.append(f"{ia},{ib},{fmt6(mean_ed)},{pmax},"
                     f"{fmt6(ned)},{fmt6(mse)},{fmt6(psnr)}")
    return "\n".join(lines) + "\n"


def cluster_matrix(report: ClusterReport) -> str:
    """Whitespace NED matrix (one row per ia) for heat-map tooling."""
    g = report.spec.grid_side
    rows = report.cells["ned"].reshape(g, g).tolist()
    return "\n".join(" ".join(fmt6(v) for v in row) for row in rows) + "\n"


@dataclass(frozen=True)
class EdHistogram:
    bin_width: int
    bins: tuple[tuple[int, int], ...]   # (lower_edge, count), contiguous from 0
    total_count: int
    min_ed: int
    max_ed: int
    mean_ed: float


def ed_histogram(grid: CellGrid, bin_width: int | None = None) -> EdHistogram:
    """Tally ED over all 2^(2n) pairs into contiguous fixed-width bins.

    Streams the sweep chunks into exact per-ED counts (ED < 4^n), then
    bins them.  Default bin width is max(1, ceil(max_ed / 64)), sized for
    plotting.  The counts are uint32, which holds the 4^n <= 2^24 pairs a
    sweep may have in one count or bin: 64 MB at width 12.  The count
    array is filled up front rather than left to zero pages, and the
    per-chunk work is fixed in size, so memory does not depend on which
    EDs the design produces.  A bin width that could give more than
    MAX_BINS bins is refused before anything is evaluated.
    """
    if bin_width is not None:
        if bin_width < 1:
            raise ValueError(f"bin width must be >= 1, got {bin_width}")
        most = ((1 << 2 * grid.width) - 1) // bin_width + 1
        if most > MAX_BINS:
            raise ValueError(f"bin width {bin_width} could give {most} bins at width "
                             f"{grid.width}; at most {MAX_BINS} are supported")
    bounds = sweep_chunk_bounds(grid.width)

    counts = np.empty(1 << 2 * grid.width, dtype=np.uint32)
    counts.fill(0)
    one = np.uint32(1)   # a Python int here would leave np.add.at's fast path
    sum_ed, min_ed, max_ed = 0, counts.size, 0
    for lo, hi in bounds:
        ed = chunk_errors(grid, lo, hi)[1].ravel()
        np.add.at(counts, ed, one)
        sum_ed += int(ed.sum())
        min_ed = min(min_ed, int(ed.min()))
        max_ed = max(max_ed, int(ed.max()))
        del ed   # free this chunk before the next is evaluated

    if bin_width is None:
        bin_width = max(1, math.ceil(max_ed / 64))
    # a step past max_ed gives the same [0] and keeps np.arange within int64
    starts = np.arange(0, max_ed + 1, min(bin_width, max_ed + 1))
    binned = np.add.reduceat(counts[:max_ed + 1], starts, dtype=counts.dtype)
    total = int(counts.sum())
    return EdHistogram(
        bin_width=bin_width,
        bins=tuple((k * bin_width, int(c)) for k, c in enumerate(binned)),
        total_count=total,
        min_ed=min_ed,
        max_ed=max_ed,
        mean_ed=sum_ed / total,
    )


def histogram_csv(hist: EdHistogram) -> str:
    lines = ["lower_edge,count"]
    for lower, count in hist.bins:
        lines.append(f"{lower},{count}")
    return "\n".join(lines) + "\n"
