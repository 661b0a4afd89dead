"""The benchmark's own tests; run with `python3 -m pytest bench/tests`."""

import json
import random
from pathlib import Path

import pytest

import run
import workloads
from spans import Tracer, instrument, package_modules


def _generated_library(root: Path, work: str, seed: int) -> bytes:
    (root / work).mkdir()
    workload = workloads.random_wide(seed, Path(work), root)
    return (root / workload.library).read_bytes()


def test_same_seed_gives_byte_identical_library(tmp_path):
    first = _generated_library(tmp_path, "a", 7)
    assert _generated_library(tmp_path, "b", 7) == first
    assert _generated_library(tmp_path, "c", 8) != first


def test_generated_cells_flip_one_to_four_rows():
    for seed in range(50):
        entries = json.loads(workloads.random_library(random.Random(seed), 2))
        assert entries[0]["name"] == "exact"
        for e in entries[1:]:
            rows = {i for i in range(8)
                    if e["sum_bits"][i] != workloads.EXACT_SUM_BITS[i]
                    or e["cout_bits"][i] != workloads.EXACT_COUT_BITS[i]}
            assert 1 <= len(rows) <= 4


def _bindings():
    return {(m.__name__, attr): value
            for m in package_modules() for attr, value in vars(m).items()}


def test_instrument_restores_every_patched_name():
    import axmul.cli
    import axmul.clustering
    import axmul.fabric
    import axmul.metrics

    before = _bindings()
    original = axmul.fabric.eval_multiply_many
    with pytest.raises(RuntimeError):
        with instrument(Tracer()):
            # wrapped under every name its callers look it up by
            assert axmul.metrics.eval_multiply_many is not original
            assert axmul.clustering.eval_multiply_many is not original
            assert axmul.clustering.eval_multiply_many is axmul.metrics.eval_multiply_many
            assert axmul.cli.cluster_sweep is axmul.designspace.cluster_sweep
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


@pytest.fixture
def control(monkeypatch):
    """The paper-table control command, to be run in-process into tmp_path."""
    monkeypatch.chdir(run.ROOT)
    workload = workloads.paper_table(0, Path("unused"), run.ROOT)
    workload.commands = [c for c in workload.commands if c.key == "control"]
    return workload


def _check(workload, executed):
    record = run.Record()
    run.check_pass(workload.commands, executed, None, record)
    return record


def test_traced_outputs_match_and_spans_nest(control, tmp_path):
    command = control.commands[0]
    plain = run.run_in_process(command.key, command.args, tmp_path / "plain")
    tracer = Tracer()
    with instrument(tracer):
        spanned = run.run_in_process(command.key, command.args, tmp_path / "traced")
    assert spanned.out.digests() == plain.out.digests()
    assert _check(control, [spanned]).failed == 0
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0].parent is None
    assert "fabric.eval_multiply_many" in names
    metrics = tracer.layer_metrics(spanned.wall_s)
    assert metrics["fabric.eval_pairs"] == 2 * 4 ** 8   # sweep chunks + cluster sweep
    assert metrics["fabric.useful_pair_ratio"] == 0.5
    assert metrics["trace.unattributed_s"] >= 0


def test_tampered_output_counts_as_failure(control, tmp_path):
    command = control.commands[0]
    done = run.run_in_process(command.key, command.args, tmp_path / "out")
    record = _check(control, [done])
    assert (record.attempted, record.failed, record.errors) == (1, 0, [])

    name = "sweep_exact_d0.csv"
    done.out.files[name] = done.out.files[name].replace(b",0,", b",1,", 1)
    record = _check(control, [done])
    assert record.failed == 1
    assert any("differs from the committed digest" in e for e in record.errors)

    done.out.returncode = 3
    assert _check(control, [done]).failed == 1


def test_control_rejects_nonzero_error(control):
    doc = {"er": 0.5, "max_ed": 4, "count": 4 ** 8}
    out = workloads.Output(0, b"exact_d0: er=0.5 ...\n",
                           {"sweep_exact_d0.json": json.dumps(doc).encode()})
    errors = workloads.check_command(control.commands[0], out, {})
    assert any("er=0.5" in e for e in errors)


def test_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
