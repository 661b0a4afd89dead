import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axmul.adders import AdderLibrary, FullAdderSpec, UnknownAdderError
from axmul.clustering import cluster_sweep, ed_histogram
from axmul.fabric import (ARCHITECTURES, MultiplierConfig, build_multiplier,
                          eval_multiply_many)
from axmul.metrics import exhaustive_sweep, finalize
from conftest import random_adder
from oracles import eval_multiply, oracle_blocks

EXACT_LIB = AdderLibrary()


def build(width, adder_type, degree, architecture, library=EXACT_LIB):
    return build_multiplier(MultiplierConfig(width, adder_type, degree, architecture),
                            library)


def test_config_requires_every_field():
    with pytest.raises(TypeError):
        MultiplierConfig(4, "exact", 0)
    cfg = MultiplierConfig(4, "exact", 0, "carry_save")
    assert cfg.architecture == "carry_save"
    assert cfg.half_adders == "approximate"


def test_config_validation():
    with pytest.raises(ValueError):
        MultiplierConfig(1, "exact", 0, "carry_save")
    with pytest.raises(ValueError, match="widths up to 12"):
        MultiplierConfig(13, "exact", 0, "carry_save")
    with pytest.raises(ValueError):
        MultiplierConfig(8, "exact", 17, "carry_save")
    with pytest.raises(ValueError):
        MultiplierConfig(8, "exact", -1, "carry_save")


def test_unknown_adder_type():
    with pytest.raises(UnknownAdderError):
        build(8, "MISSING", 4, "carry_save")


def test_cell_count_formula():
    for n in (2, 3, 4, 8, 12):
        grid = build(n, "exact", 0, "carry_save")
        assert len(grid.cells) == n * (n - 1) + n


def test_exact_grid_spot_products():
    grid = build(8, "exact", 0, "carry_save")
    assert eval_multiply(grid, 13, 11) == 143
    assert eval_multiply(grid, 255, 255) == 65025
    assert eval_multiply(grid, 0, 255) == 0
    assert eval_multiply(grid, 200, 100) == 20000


def test_n2_exhaustive_exactness():
    grid = build(2, "exact", 0, "carry_save")
    assert len(grid.cells) == 4
    for x in range(4):
        for y in range(4):
            assert eval_multiply(grid, x, y) == x * y


def test_degree_zero_is_exact_for_any_adder(small_library):
    for name in (spec.name for spec in small_library):
        grid = build(4, name, 0, "carry_save", library=small_library)
        for x in range(16):
            for y in range(16):
                assert eval_multiply(grid, x, y) == x * y


def test_zero_adder_full_degree_hand_values(zero_adder):
    lib = AdderLibrary([zero_adder])
    grid = build(8, "ZERO", 16, "carry_save", library=lib)
    # with every adder output forced to 0, only the raw pp[0][0] bit survives
    assert eval_multiply(grid, 3, 3) == 1
    assert eval_multiply(grid, 2, 2) == 0


def test_operand_range_checks():
    grid = build(4, "exact", 0, "carry_save")
    with pytest.raises(ValueError):
        eval_multiply(grid, 16, 0)
    with pytest.raises(ValueError):
        eval_multiply(grid, 0, -1)
    with pytest.raises(ValueError):
        eval_multiply_many(grid, np.array([16]), np.array([0]))


def test_eval_many_rejects_mismatched_and_out_of_range():
    grid = build(4, "exact", 0, "carry_save")
    with pytest.raises(ValueError, match="same shape"):
        eval_multiply_many(grid, np.zeros(3, dtype=int), np.zeros(4, dtype=int))
    with pytest.raises(ValueError, match="same shape"):
        eval_multiply_many(grid, np.zeros((2, 3), dtype=int), np.zeros(6, dtype=int))
    for bad in (-1, 16):
        for xs, ys in (([1, bad], [2, 3]), ([1, 2], [bad, 3])):
            with pytest.raises(ValueError, match="out of range"):
                eval_multiply_many(grid, np.array(xs), np.array(ys))
    with pytest.raises(TypeError, match="integer"):
        eval_multiply_many(grid, np.array([2.5]), np.array([1]))


bit_tables = st.tuples(*[st.integers(0, 1)] * 8)
operand_shapes = st.one_of(
    st.sampled_from([(0,), (1,), (63,), (64,), (65,), (5, 13)]),
    st.integers(0, 200).map(lambda k: (k,)))


@settings(max_examples=80, deadline=None, database=None)
@given(data=st.data(), width=st.integers(2, 6), sum_bits=bit_tables,
       cout_bits=bit_tables, architecture=st.sampled_from(ARCHITECTURES),
       shape=operand_shapes, seed=st.integers(0, 2 ** 32 - 1))
def test_eval_many_matches_scalar_property(data, width, sum_bits, cout_bits,
                                           architecture, shape, seed):
    degree = data.draw(st.integers(0, 2 * width), label="degree")
    lib = AdderLibrary([FullAdderSpec("R", sum_bits, cout_bits)])
    grid = build(width, "R", degree, library=lib, architecture=architecture)
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, 1 << width, size=shape)
    ys = rng.integers(0, 1 << width, size=shape)

    batch = eval_multiply_many(grid, xs, ys)
    assert batch.shape == shape
    assert batch.dtype == np.int64
    scalar = [eval_multiply(grid, int(x), int(y))
              for x, y in zip(xs.ravel(), ys.ravel())]
    assert batch.ravel().tolist() == scalar
    if degree == 0:
        assert np.array_equal(batch, xs * ys)


def _left_to_right_mean(values: list[float]) -> float:
    """The mean with its float sum taken one value at a time, first to last."""
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def _exact(block: dict) -> dict:
    """Floats by their hex form, so equal blocks have equal bits."""
    return {k: v.hex() if isinstance(v, float) else v for k, v in block.items()}


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data(), width=st.integers(2, 6), sum_bits=bit_tables,
       cout_bits=bit_tables, architecture=st.sampled_from(ARCHITECTURES))
def test_cluster_sweep_totals_equal_exhaustive_sweep_property(
        data, width, sum_bits, cout_bits, architecture):
    # cluster sizes 1..2^n give blocks shorter than, as tall as and taller
    # than a sweep chunk (2^n / 16 first operands, at least one)
    size = 1 << data.draw(st.integers(0, width), label="log2 cluster size")
    degree = data.draw(st.integers(0, 2 * width), label="degree")
    lib = AdderLibrary([FullAdderSpec("R", sum_bits, cout_bits)])
    grid = build(width, "R", degree, library=lib, architecture=architecture)
    report = cluster_sweep(grid, size)
    totals, swept = report.totals, exhaustive_sweep(grid)

    for f in ("count", "err_count", "sum_ed", "sum_ed_sq", "max_ed", "red_count"):
        assert getattr(totals, f) == getattr(swept, f)
    assert totals.sum_red.hex() == swept.sum_red.hex()

    # every column equals the scalar per-block loop over Python-int sums:
    # floats bit for bit, the integer masses exactly
    side = 1 << width
    xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    ed = np.abs(xs * ys - eval_multiply_many(grid, xs, ys))
    g = side // size
    blocks = [[ed[ia * size:(ia + 1) * size, ib * size:(ib + 1) * size].ravel().tolist()
               for ib in range(g)] for ia in range(g)]
    want = oracle_blocks(size, [[sum(b) for b in row] for row in blocks],
                         [[sum(e * e for e in b) for b in row] for row in blocks])
    names = report.cells.dtype.names
    got = [dict(zip(names, row)) for row in report.cells.tolist()]
    assert [_exact(b) for b in got] == [_exact(b) for b in want]
    assert report.ned_avg.hex() == _left_to_right_mean([b["ned"] for b in want]).hex()
    finite = [b["psnr"] for b in want if b["psnr"] != math.inf]
    psnr_avg = _left_to_right_mean(finite) if finite else math.inf
    assert report.psnr_avg.hex() == psnr_avg.hex()
    assert sum(b["sum_ed"] for b in got) == totals.sum_ed
    assert sum(b["sum_ed_sq"] for b in got) == totals.sum_ed_sq
    pmax = (side - 1) ** 2
    assert ed_histogram(grid).mean_ed == finalize(totals, pmax).med
    hist = ed_histogram(grid, bin_width=1)
    assert (hist.min_ed, hist.max_ed) == (int(ed.min()), int(ed.max()))
    assert [count for _, count in hist.bins] == np.bincount(ed.ravel()).tolist()


def test_weight_rule_cell_assignment():
    grid = build(8, "exact", 7, "carry_save")
    entries = [(c.weight, c.approximate) for c in grid.cells]
    assert len(entries) == 64
    by_weight = sum(1 for w, _ in entries if w <= 6)
    assert sum(1 for _, ap in entries if ap) == by_weight
    assert all(ap == (w < 7) for w, ap in entries)

    assert sum(1 for c in build(8, "exact", 0, "carry_save").cells if c.approximate) == 0
    assert sum(1 for c in build(8, "exact", 16, "carry_save").cells if c.approximate) == 64


def test_monotone_cell_assignment():
    grids = {d: build(8, "exact", d, "carry_save") for d in (0, 3, 7, 8, 9, 16)}
    degrees = sorted(grids)
    for lo, hi in zip(degrees, degrees[1:]):
        lo_set = {(c.row, c.col) for c in grids[lo].cells if c.approximate}
        hi_set = {(c.row, c.col) for c in grids[hi].cells if c.approximate}
        assert lo_set <= hi_set


def test_determinism_same_config():
    rng = random.Random(7)
    lib = AdderLibrary([random_adder("R", rng)])
    g1 = build(6, "R", 5, "carry_save", library=lib)
    g2 = build(6, "R", 5, "carry_save", library=lib)
    for x in range(0, 64, 7):
        for y in range(0, 64, 5):
            assert eval_multiply(g1, x, y) == eval_multiply(g2, x, y)


def test_vectorized_matches_scalar_n4(small_library):
    side = 16
    xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    for name in (spec.name for spec in small_library):
        for degree in (0, 3, 8):
            grid = build(4, name, degree, "carry_save", library=small_library)
            batch = eval_multiply_many(grid, xs.ravel(), ys.ravel())
            scalar = [eval_multiply(grid, int(x), int(y))
                      for x, y in zip(xs.ravel(), ys.ravel())]
            assert batch.tolist() == scalar


def test_vectorized_matches_scalar_n8_sample(small_library):
    rng = random.Random(99)
    pairs = [(rng.randrange(256), rng.randrange(256)) for _ in range(200)]
    grid = build(8, "RND1", 11, "carry_save", library=small_library)
    xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    batch = eval_multiply_many(grid, xs, ys)
    for (x, y), b in zip(pairs, batch.tolist()):
        assert eval_multiply(grid, x, y) == b


def test_truncation_bound(small_library):
    rng = random.Random(5)
    grid = build(4, "RND2", 8, "carry_save", library=small_library)
    for _ in range(300):
        x, y = rng.randrange(16), rng.randrange(16)
        assert 0 <= eval_multiply(grid, x, y) < 256


def test_row_ripple_cell_count_and_exactness():
    for n in (2, 3, 4):
        grid = build(n, "exact", 0, architecture="row_ripple")
        assert len(grid.cells) == n * (n - 1)
        assert all(c.row >= 1 for c in grid.cells)   # no merge cells
        for x in range(1 << n):
            for y in range(1 << n):
                assert eval_multiply(grid, x, y) == x * y


def test_row_ripple_half_adder_positions():
    grid = build(8, "exact", 16, architecture="row_ripple")
    assert grid.config.half_adders == "exact"   # fixed by the layout
    const_fed = {(c.row, c.col) for c in grid.cells
                 if 0 in (c.in_a, c.in_b, c.in_cin)}
    # the LSB cell of each row plus the top cell of row 1
    want = {(i, 0) for i in range(1, 8)} | {(1, 7)}
    assert const_fed == want
    assert sum(c.approximate for c in grid.cells) == 56 - 8
    for cell in grid.cells:
        if (cell.row, cell.col) in const_fed:
            assert not cell.approximate


def test_row_ripple_degree_zero_any_adder(small_library):
    for name in (spec.name for spec in small_library):
        grid = build(4, name, 0, library=small_library,
                     architecture="row_ripple")
        for x in range(16):
            for y in range(16):
                assert eval_multiply(grid, x, y) == x * y


def test_row_ripple_monotone_assignment():
    grids = {d: build(8, "exact", d, architecture="row_ripple")
             for d in (0, 3, 7, 9, 16)}
    degrees = sorted(grids)
    for lo, hi in zip(degrees, degrees[1:]):
        lo_set = {(c.row, c.col) for c in grids[lo].cells if c.approximate}
        hi_set = {(c.row, c.col) for c in grids[hi].cells if c.approximate}
        assert lo_set <= hi_set


def test_row_ripple_vector_matches_scalar(small_library):
    side = 16
    xs, ys = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    for name in ("ZERO", "RND1"):
        for degree in (3, 8):
            grid = build(4, name, degree, library=small_library,
                         architecture="row_ripple")
            batch = eval_multiply_many(grid, xs.ravel(), ys.ravel())
            scalar = [eval_multiply(grid, int(x), int(y))
                      for x, y in zip(xs.ravel(), ys.ravel())]
            assert batch.tolist() == scalar


def test_row_ripple_product_range(small_library):
    grid = build(4, "RND2", 8, library=small_library,
                 architecture="row_ripple")
    for x in range(16):
        for y in range(16):
            assert 0 <= eval_multiply(grid, x, y) < 256


def test_architecture_validation():
    with pytest.raises(ValueError):
        MultiplierConfig(8, "exact", 0, architecture="wallace")
