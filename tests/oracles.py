"""Independent brute-force oracles.

Everything here recomputes results pair by pair through the scalar
evaluator and plain arithmetic, deliberately avoiding the vectorized
sweep and the cluster reduction, so tests compare two genuinely
different routes.  This module is the home of that scalar evaluator:
`eval_multiply` runs a grid's cells as one flat loop on one operand pair
and is the reference the package's bit-sliced `fabric.eval_multiply_many`
is tested against.  `accumulate` is the scalar reference for the sweep's
accumulator: it folds one operand pair at a time into a MetricAccumulator.
`oracle_blocks` and `oracle_select` are the per-block loops that the
columnar cluster report and the selection replaced.
"""

import math
from dataclasses import dataclass

from axmul.fabric import CellGrid
from axmul.metrics import MetricAccumulator, psnr_from_mse

PEAK_SQ = 255 * 255


def _check_operand(v: int, n: int) -> None:
    if not 0 <= v < (1 << n):
        raise ValueError(f"operand {v} out of range for width {n}")


def eval_multiply(grid: CellGrid, x: int, y: int) -> int:
    """Evaluate the wired grid on one operand pair, bit by bit."""
    n = grid.width
    _check_operand(x, n)
    _check_operand(y, n)

    sig = [0] * grid.signal_count
    for i in range(n):
        xi = (x >> i) & 1
        for j in range(n):
            sig[1 + i * n + j] = xi & ((y >> j) & 1)

    for cell in grid.cells:
        idx = 4 * sig[cell.in_a] + 2 * sig[cell.in_b] + sig[cell.in_cin]
        sig[cell.out_sum] = cell.spec.sum_bits[idx]
        sig[cell.out_cout] = cell.spec.cout_bits[idx]

    product = 0
    for w, tap in enumerate(grid.output_taps):
        product |= sig[tap] << w
    return product


@dataclass(frozen=True)
class EvalOutcome:
    x: int
    y: int
    exact: int
    approx: int

    @property
    def ed(self) -> int:
        return abs(self.exact - self.approx)


def accumulate(acc: MetricAccumulator, outcome: EvalOutcome) -> MetricAccumulator:
    ed = outcome.ed
    return MetricAccumulator(
        count=acc.count + 1,
        err_count=acc.err_count + (1 if ed else 0),
        sum_ed=acc.sum_ed + ed,
        sum_ed_sq=acc.sum_ed_sq + ed * ed,
        max_ed=max(acc.max_ed, ed),
        sum_red=acc.sum_red + (ed / outcome.exact if outcome.exact > 0 else 0.0),
        red_count=acc.red_count + (1 if outcome.exact > 0 else 0),
    )


def oracle_pairs(grid: CellGrid):
    side = 1 << grid.width
    for x in range(side):
        for y in range(side):
            yield x, y, x * y, eval_multiply(grid, x, y)


def oracle_metrics(grid: CellGrid) -> dict:
    count = err = sum_ed = sum_sq = max_ed = red_n = 0
    sum_red = 0.0
    for _, _, p, pa in oracle_pairs(grid):
        ed = abs(p - pa)
        count += 1
        err += ed != 0
        sum_ed += ed
        sum_sq += ed * ed
        max_ed = max(max_ed, ed)
        if p > 0:
            sum_red += ed / p
            red_n += 1
    pmax = ((1 << grid.width) - 1) ** 2
    med = sum_ed / count
    mse = sum_sq / count
    return {
        "er": err / count,
        "med": med,
        "ned_global": med / pmax,
        "mred": sum_red / red_n if red_n else 0.0,
        "mse": mse,
        "psnr_global": math.inf if mse == 0 else 10 * math.log10(PEAK_SQ / mse),
        "max_ed": max_ed,
        "count": count,
    }


def oracle_clusters(grid: CellGrid, cluster_size: int) -> dict:
    """Per-(ia, ib) dict of directly recomputed cluster statistics."""
    s = cluster_size
    g = (1 << grid.width) // s
    sums = [[0] * g for _ in range(g)]
    squares = [[0] * g for _ in range(g)]
    for x, y, p, pa in oracle_pairs(grid):
        ed = abs(p - pa)
        sums[x // s][y // s] += ed
        squares[x // s][y // s] += ed * ed
    return {(b["ia"], b["ib"]): b for b in oracle_blocks(s, sums, squares)}


def oracle_blocks(cluster_size: int, sums, squares) -> list[dict]:
    """Scalar reference of `clustering.finish_blocks`, one block at a time.

    `sums` and `squares` are the per-block ED and squared-ED sums as
    nested lists of Python ints, [ia][ib].  Returns one dict per block in
    row-major order, keyed by the report's field names.
    """
    s = cluster_size
    pairs = s * s
    out = []
    for ia, (sum_row, square_row) in enumerate(zip(sums, squares)):
        for ib, (block_sum, block_sq) in enumerate(zip(sum_row, square_row)):
            mean_ed = block_sum / pairs
            mse = block_sq / pairs
            pmax = (s * ia + s - 1) * (s * ib + s - 1)
            scaled = mse * (255.0 / pmax) ** 2 if pmax else mse
            out.append({
                "ia": ia, "ib": ib,
                "mean_ed": mean_ed,
                "pmax_cluster": pmax,
                "ned": mean_ed / pmax if pmax else 0.0,
                "mse": mse,
                "psnr": psnr_from_mse(scaled),
                "sum_ed": block_sum,
                "sum_ed_sq": block_sq,
            })
    return out


def oracle_select(reports, metric, threshold) -> list[int]:
    """Scalar reference of `designspace.select_per_cluster`: per block in
    row-major order, the ordinal of the admitted design with the least
    (-degree, ned, ordinal), else 0."""
    ordinals = []
    for ci in range(len(reports[0][1].cells)):
        best = None
        for did, rep in reports:
            ned = float(rep.cells["ned"][ci])
            if metric == "ned":
                admitted = ned <= threshold
            else:
                admitted = float(rep.cells["psnr"][ci]) >= threshold
            if not admitted:
                continue
            key = (-did.degree_bits, ned, did.ordinal)
            if best is None or key < best:
                best = key
        ordinals.append(best[2] if best else 0)
    return ordinals


def oracle_histogram(grid: CellGrid, bin_width: int) -> dict:
    counts = {}
    for _, _, p, pa in oracle_pairs(grid):
        ed = abs(p - pa)
        counts[ed // bin_width] = counts.get(ed // bin_width, 0) + 1
    return {k * bin_width: v for k, v in sorted(counts.items())}
