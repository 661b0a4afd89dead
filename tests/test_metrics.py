import math
import random

import numpy as np
import pytest

import axmul.clustering
from axmul.adders import AdderLibrary
from axmul.clustering import cluster_sweep
from axmul.fabric import MAX_WIDTH, MultiplierConfig, build_multiplier
from axmul.metrics import (MetricAccumulator,
                           accumulate_arrays, chunk_operands, combine_squares,
                           exhaustive_sweep, finalize, merge, psnr_from_mse,
                           square_partials, sweep_chunk, sweep_chunk_bounds)
from conftest import random_adder
from oracles import EvalOutcome, accumulate, eval_multiply, oracle_metrics

EXACT_LIB = AdderLibrary()


def rand_acc(rng):
    ed = rng.randrange(0, 500)
    p = rng.randrange(0, 2000)
    acc = MetricAccumulator()
    for _ in range(rng.randrange(1, 30)):
        acc = accumulate(acc, EvalOutcome(0, 0, p, p + ed))
    return acc


def test_accumulate_zero_ed():
    acc = accumulate(MetricAccumulator(), EvalOutcome(3, 0, 0, 0))
    assert acc.count == 1
    assert acc.err_count == 0
    assert acc.red_count == 0


def test_accumulate_formulas():
    acc = accumulate(MetricAccumulator(), EvalOutcome(10, 10, 100, 90))
    assert acc.sum_ed == 10
    assert acc.sum_ed_sq == 100
    assert acc.max_ed == 10
    assert acc.sum_red == pytest.approx(0.1)
    assert acc.red_count == 1


def test_accumulate_skips_red_at_zero_product():
    acc = accumulate(MetricAccumulator(), EvalOutcome(0, 5, 0, 5))
    assert acc.err_count == 1
    assert acc.red_count == 0
    assert acc.sum_red == 0.0


def test_merge_identity():
    rng = random.Random(2)
    a = rand_acc(rng)
    assert merge(a, MetricAccumulator()) == a
    assert merge(MetricAccumulator(), a) == a


def test_merge_commutative_and_associative():
    rng = random.Random(3)
    for _ in range(50):
        a, b, c = rand_acc(rng), rand_acc(rng), rand_acc(rng)
        ab = merge(a, b)
        ba = merge(b, a)
        assert ab == ba
        left = merge(merge(a, b), c)
        right = merge(a, merge(b, c))
        for f in ("count", "err_count", "sum_ed", "sum_ed_sq", "max_ed",
                  "red_count"):
            assert getattr(left, f) == getattr(right, f)
        assert left.sum_red == pytest.approx(right.sum_red, rel=1e-12)


def test_sequential_accumulate_equals_chunked_sweep(small_library):
    grid = build_multiplier(MultiplierConfig(4, "RND1", 6, "carry_save"), small_library)
    seq = MetricAccumulator()
    for x in range(16):
        for y in range(16):
            seq = accumulate(seq, EvalOutcome(x, y, x * y,
                                              eval_multiply(grid, x, y)))
    swept = exhaustive_sweep(grid)
    for f in ("count", "err_count", "sum_ed", "sum_ed_sq", "max_ed", "red_count"):
        assert getattr(seq, f) == getattr(swept, f)
    assert seq.sum_red == pytest.approx(swept.sum_red, rel=1e-9)


def test_sweep_partition_merge_any_order(small_library):
    grid = build_multiplier(MultiplierConfig(4, "RND2", 5, "carry_save"), small_library)
    bounds = sweep_chunk_bounds(4)
    parts = [sweep_chunk(grid, lo, hi) for lo, hi in bounds]
    forward = parts[0]
    for p in parts[1:]:
        forward = merge(forward, p)
    backward = parts[-1]
    for p in reversed(parts[:-1]):
        backward = merge(backward, p)
    for f in ("count", "err_count", "sum_ed", "sum_ed_sq", "max_ed", "red_count"):
        assert getattr(forward, f) == getattr(backward, f)
    assert forward.sum_red == pytest.approx(backward.sum_red, rel=1e-9)
    assert forward.count == 256


def test_exhaustive_sweep_exact_n8():
    grid = build_multiplier(MultiplierConfig(8, "exact", 0, "carry_save"), EXACT_LIB)
    acc = exhaustive_sweep(grid)
    assert acc.count == 65536
    assert acc.err_count == 0
    assert acc.max_ed == 0


def test_finalize_exact_report():
    grid = build_multiplier(MultiplierConfig(4, "exact", 0, "carry_save"), EXACT_LIB)
    report = finalize(exhaustive_sweep(grid), 225)
    assert report.er == 0.0
    assert report.med == 0.0
    assert report.mse == 0.0
    assert report.psnr_global == math.inf
    assert report.max_ed == 0


def test_finalize_rejects_empty():
    with pytest.raises(ValueError):
        finalize(MetricAccumulator(), 225)
    with pytest.raises(ValueError):
        finalize(accumulate(MetricAccumulator(), EvalOutcome(1, 1, 1, 1)), 0)


def test_finalize_matches_oracle_n4(small_library):
    for name in ("ZERO", "RND1", "RND2"):
        grid = build_multiplier(MultiplierConfig(4, name, 8, "carry_save"), small_library)
        report = finalize(exhaustive_sweep(grid), 225)
        want = oracle_metrics(grid)
        assert report.count == want["count"]
        assert report.max_ed == want["max_ed"]
        assert report.er == pytest.approx(want["er"], rel=1e-12)
        assert report.med == pytest.approx(want["med"], rel=1e-12)
        assert report.ned_global == pytest.approx(want["ned_global"], rel=1e-12)
        assert report.mred == pytest.approx(want["mred"], rel=1e-12)
        assert report.mse == pytest.approx(want["mse"], rel=1e-12)
        assert report.psnr_global == pytest.approx(want["psnr_global"], rel=1e-12)


def test_psnr_fixed_points():
    assert psnr_from_mse(65025) == pytest.approx(0.0, abs=1e-9)
    assert psnr_from_mse(650.25) == pytest.approx(20.0, abs=1e-9)
    # direct formula evaluation: 10*log10(65025 / 1.69e4)
    assert psnr_from_mse(1.69e4) == pytest.approx(
        10 * math.log10(65025 / 1.69e4), abs=1e-12)
    assert psnr_from_mse(0) == math.inf
    with pytest.raises(ValueError):
        psnr_from_mse(-1.0)


def test_psnr_strictly_decreasing():
    rng = random.Random(4)
    values = sorted(rng.uniform(1e-6, 1e9) for _ in range(100))
    psnrs = [psnr_from_mse(v) for v in values]
    assert all(a > b for a, b in zip(psnrs, psnrs[1:]))


def test_jensen_and_ned_identities(small_library):
    for name in ("ZERO", "RND1", "RND2"):
        grid = build_multiplier(MultiplierConfig(4, name, 4, "carry_save"), small_library)
        report = finalize(exhaustive_sweep(grid), 225)
        assert report.mse >= report.med ** 2
        assert report.ned_global * 225 == pytest.approx(report.med, rel=1e-12)
        zero_together = (report.er == 0, report.med == 0, report.mse == 0,
                         report.max_ed == 0)
        assert len(set(zero_together)) == 1


def test_integer_statistics_are_exact():
    rng = random.Random(11)
    lib = AdderLibrary([random_adder("R", rng)])
    grid = build_multiplier(MultiplierConfig(8, "R", 16, "carry_save"), lib)
    acc = exhaustive_sweep(grid)
    assert isinstance(acc.sum_ed, int)
    assert isinstance(acc.sum_ed_sq, int)
    assert acc.sum_ed_sq < 2 ** 63


def test_sum_ed_sq_is_exact_past_int64():
    # 2^17 pairs at ED 2^24 - 1 (approximate product 0) square-sum to about 2^65
    ed = np.full(1 << 17, (1 << 24) - 1, dtype=np.int64)
    acc = accumulate_arrays(ed, ed, square_partials(ed))
    assert acc.sum_ed_sq == (1 << 17) * ((1 << 24) - 1) ** 2
    assert finalize(acc, 1).mse == float(((1 << 24) - 1) ** 2)


def test_cluster_sweep_sum_ed_sq_is_exact_past_int64(monkeypatch):
    # width-12 chunks of 2^20 pairs, every ED 2^24 - 1: the whole-domain
    # squared-ED sum is about 2^72, each chunk's about 2^68
    top = (1 << 24) - 1

    def chunk_errors(grid, lo, hi):
        xs, ys = chunk_operands(grid.width, lo, hi)
        return xs * ys, np.full(xs.shape, top, dtype=np.int64)
    monkeypatch.setattr(axmul.clustering, "chunk_errors", chunk_errors)
    grid = build_multiplier(MultiplierConfig(12, "exact", 0, "carry_save"), EXACT_LIB)
    report = cluster_sweep(grid, 256)
    totals = report.totals
    assert totals.count == 1 << 24
    assert totals.sum_ed == (1 << 24) * top
    assert totals.sum_ed_sq == (1 << 24) * top ** 2
    assert totals.sum_ed_sq >= 1 << 63
    assert totals.max_ed == top
    assert report.cells["sum_ed_sq"].tolist() == [(1 << 16) * top ** 2] * 256


def test_sum_squares_matches_python_ints():
    rng = np.random.default_rng(6)
    values = rng.integers(0, 1 << 32, size=(4, 3, 4, 5), dtype=np.int64)
    values[0] = (1 << 32) - 1
    blocks = square_partials(values, axis=(1, 3))
    assert blocks.shape == (3, 4, 4)
    for ia in range(4):
        for ib in range(4):
            want = sum(int(v) ** 2 for v in values[ia, :, ib, :].ravel())
            assert combine_squares(*blocks[:, ia, ib].tolist()) == want
    whole = combine_squares(*square_partials(values).tolist())
    assert whole == sum(int(v) ** 2 for v in values.ravel())


def test_sweeps_reject_width_above_limit_before_evaluating():
    # the histogram's uint32 counts hold every pair of the widest sweep
    assert 4 ** MAX_WIDTH < 2 ** 32
    # no grid wider than that can be built, so no sweep can reach one
    with pytest.raises(ValueError, match="widths up to 12"):
        MultiplierConfig(MAX_WIDTH + 1, "exact", 0, "carry_save")
