import math

import numpy as np
import pytest

from axmul.adders import AdderLibrary
from axmul.clustering import (MAX_BLOCKS, ClusterReport, ClusterSpec,
                              cluster_csv, cluster_matrix, cluster_sweep,
                              ed_histogram, finish_blocks, histogram_csv)
from axmul.fabric import MultiplierConfig, build_multiplier
from axmul.metrics import MetricAccumulator, exhaustive_sweep
from oracles import oracle_blocks, oracle_clusters, oracle_histogram

EXACT_LIB = AdderLibrary()


def test_cluster_spec_validation():
    spec = ClusterSpec(8, 16)
    assert spec.grid_side == 16
    assert spec.total_clusters == 256
    with pytest.raises(ValueError):
        ClusterSpec(8, 3)
    with pytest.raises(ValueError):
        ClusterSpec(8, 0)


def test_cluster_spec_caps_the_block_grid():
    assert ClusterSpec(10, 1).total_clusters == MAX_BLOCKS == 1 << 20
    assert ClusterSpec(12, 4).grid_side == 1024
    for width, size in ((11, 1), (12, 1), (12, 2)):
        with pytest.raises(ValueError, match="blocks"):
            ClusterSpec(width, size)


def test_exact_grid_all_zero():
    grid = build_multiplier(MultiplierConfig(8, "exact", 0, "carry_save"), EXACT_LIB)
    report = cluster_sweep(grid, 16)
    assert len(report.cells) == 256
    assert np.all(report.cells["ned"] == 0.0)
    assert np.all(report.cells["psnr"] == math.inf)
    assert report.meets("ned", 1.0).all()
    assert report.meets("psnr", 25.0).all()
    assert (report.psnr_avg, report.psnr_min) == (math.inf, math.inf)


def test_cluster_pmax_corners():
    grid = build_multiplier(MultiplierConfig(8, "exact", 0, "carry_save"), EXACT_LIB)
    pmax = cluster_sweep(grid, 16).cells["pmax_cluster"].reshape(16, 16)
    assert pmax[0, 0] == 225
    assert pmax[15, 15] == 65025
    assert pmax[2, 5] == (2 * 16 + 15) * (5 * 16 + 15)


def test_cluster_cells_match_oracle_n4(small_library):
    for name in ("ZERO", "RND1", "RND2"):
        grid = build_multiplier(MultiplierConfig(4, name, 8, "carry_save"), small_library)
        report = cluster_sweep(grid, 4)
        want = oracle_clusters(grid, 4)
        assert len(report.cells) == 16
        for cell in report.cells:
            w = want[(cell["ia"], cell["ib"])]
            assert cell["pmax_cluster"] == w["pmax_cluster"]
            assert cell["mean_ed"] == pytest.approx(w["mean_ed"], rel=1e-12)
            assert cell["ned"] == pytest.approx(w["ned"], rel=1e-12)
            assert cell["mse"] == pytest.approx(w["mse"], rel=1e-12)
            if math.isinf(w["psnr"]):
                assert cell["psnr"] == math.inf
            else:
                assert cell["psnr"] == pytest.approx(w["psnr"], rel=1e-12)


def test_mass_conservation_against_global(small_library):
    grid = build_multiplier(MultiplierConfig(4, "RND1", 7, "carry_save"), small_library)
    acc = exhaustive_sweep(grid)
    report = cluster_sweep(grid, 4)
    cells = report.cells
    assert sum(cells["sum_ed"].tolist()) == acc.sum_ed
    assert sum(cells["sum_ed_sq"].tolist()) == acc.sum_ed_sq
    # equal-count cells: the count-weighted mean is the plain mean
    assert cells["mean_ed"].sum() / 16 == pytest.approx(
        acc.sum_ed / acc.count, rel=1e-12)
    assert cells["mse"].sum() / 16 == pytest.approx(
        acc.sum_ed_sq / acc.count, rel=1e-12)


def test_report_extremes_order(small_library):
    grid = build_multiplier(MultiplierConfig(4, "RND2", 6, "carry_save"), small_library)
    report = cluster_sweep(grid, 4)
    assert report.ned_max >= report.ned_avg
    assert report.psnr_min <= report.psnr_avg


def test_threshold_monotonicity(small_library):
    grid = build_multiplier(MultiplierConfig(4, "RND1", 8, "carry_save"), small_library)
    report = cluster_sweep(grid, 4)
    neds = [report.meets("ned", t).sum() for t in (0.0, 0.1, 0.5, 1.0, 10.0)]
    assert neds == sorted(neds)
    psnrs = [report.meets("psnr", t).sum() for t in (0.0, 10.0, 25.0, 60.0)]
    assert psnrs == sorted(psnrs, reverse=True)


def test_meets_at_the_edges():
    cells = np.zeros(4, dtype=[("ned", float), ("psnr", float)])
    cells["ned"] = [0.0, 0.5, 1.0, 2.0]
    cells["psnr"] = [math.inf, 30.0, 25.0, 0.0]
    report = ClusterReport(ClusterSpec(2, 2), cells, MetricAccumulator())
    assert report.meets("ned", 0.0).tolist() == [True, False, False, False]
    assert report.meets("ned", 1.0).tolist() == [True, True, True, False]
    assert report.meets("ned", math.inf).all()
    assert report.meets("psnr", 0.0).all()
    assert report.meets("psnr", 25.0).tolist() == [True, True, True, False]
    # an error-free block has +inf PSNR, which meets every threshold
    assert report.meets("psnr", math.inf).tolist() == [True, False, False, False]
    with pytest.raises(ValueError, match="unknown quality metric"):
        report.meets("mse", 1.0)


def test_finish_blocks_keeps_squared_sums_past_int64_exact():
    # 16x16 blocks of 65536 pairs, as at width 12 with cluster size 256; a
    # block of constant ED e has squared-ED partials 65536 * (hi*hi, hi*lo,
    # lo*lo) for e = hi * 2^16 + lo, and at e near 2^24 the sum passes 2^63
    spec = ClusterSpec(12, 256)
    pairs = 256 * 256
    eds = np.arange(256, dtype=np.int64).reshape(16, 16) * 65793   # up to 2^24 - 1
    hi, lo = eds >> 16, eds & 0xFFFF
    sq_parts = pairs * np.stack([hi * hi, hi * lo, lo * lo])
    cells = finish_blocks(spec, pairs * eds, sq_parts)

    squares = [[pairs * int(e) ** 2 for e in row] for row in eds.tolist()]
    assert max(max(row) for row in squares) >= 1 << 63
    got = cells["sum_ed_sq"].tolist()
    assert got == [v for row in squares for v in row]
    assert cells["mse"].tolist() == [v / pairs for v in got]
    want = oracle_blocks(256, (pairs * eds).tolist(), squares)
    names = cells.dtype.names
    assert [dict(zip(names, row)) for row in cells.tolist()] == want


def test_histogram_exact_single_bin():
    grid = build_multiplier(MultiplierConfig(4, "exact", 0, "carry_save"), EXACT_LIB)
    hist = ed_histogram(grid)
    assert hist.total_count == 256
    assert hist.bins == ((0, 256),)
    assert hist.min_ed == 0
    assert hist.max_ed == 0


def test_histogram_matches_oracle(small_library):
    grid = build_multiplier(MultiplierConfig(4, "RND1", 8, "carry_save"), small_library)
    for bw in (1, 3, 16):
        hist = ed_histogram(grid, bin_width=bw)
        want = oracle_histogram(grid, bw)
        assert hist.total_count == 256
        assert sum(c for _, c in hist.bins) == 256
        got = {lower: count for lower, count in hist.bins if count}
        assert got == want
        lowers = [lower for lower, _ in hist.bins]
        assert lowers == list(range(0, len(lowers) * bw, bw))


def test_histogram_default_bin_width(small_library):
    grid = build_multiplier(MultiplierConfig(4, "ZERO", 8, "carry_save"), small_library)
    hist = ed_histogram(grid)
    assert hist.bin_width == max(1, math.ceil(hist.max_ed / 64))
    with pytest.raises(ValueError):
        ed_histogram(grid, bin_width=0)


def test_cluster_csv_round_trip(small_library):
    grid = build_multiplier(MultiplierConfig(4, "RND2", 8, "carry_save"), small_library)
    report = cluster_sweep(grid, 4)
    lines = cluster_csv(report).strip().split("\n")
    assert lines[0] == "ia,ib,mean_ed,pmax_cluster,ned,mse,psnr"
    assert len(lines) == 17
    for line, cell in zip(lines[1:], report.cells):
        ia, ib, mean_ed, pmax, ned, mse, psnr = line.split(",")
        assert (int(ia), int(ib)) == (cell["ia"], cell["ib"])
        assert int(pmax) == cell["pmax_cluster"]
        assert float(mean_ed) == pytest.approx(cell["mean_ed"], rel=1e-5)
        assert float(ned) == pytest.approx(cell["ned"], rel=1e-5)
        assert float(mse) == pytest.approx(cell["mse"], rel=1e-5)
        assert float(psnr) == pytest.approx(cell["psnr"], rel=1e-5)


def test_cluster_matrix_shape(small_library):
    grid = build_multiplier(MultiplierConfig(4, "RND1", 4, "carry_save"), small_library)
    report = cluster_sweep(grid, 4)
    rows = cluster_matrix(report).strip().split("\n")
    assert len(rows) == 4
    assert all(len(r.split()) == 4 for r in rows)
    assert [float(v) for r in rows for v in r.split()] == pytest.approx(
        report.cells["ned"].tolist(), rel=1e-5)


def test_histogram_csv_round_trip(small_library):
    grid = build_multiplier(MultiplierConfig(4, "ZERO", 8, "carry_save"), small_library)
    hist = ed_histogram(grid, bin_width=2)
    lines = histogram_csv(hist).strip().split("\n")
    assert lines[0] == "lower_edge,count"
    parsed = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
    assert tuple(parsed) == hist.bins
