"""Benchmark of the axmul CLI: end-to-end metrics per workload, or a traced run.

Run from the root of a checkout:

    python3 bench/run.py --workload paper-table-w8 --seed 1 --seconds 30 --trace 0

--trace 0 runs each command of the workload as its own `axmul` process, one
at a time (a closed loop with one client), and reports the end-to-end
metrics.  --trace 1 runs the same commands in-process through
`axmul.cli.main`, alternating an untraced and a traced pass, and reports the
per-layer metrics.  Every output of every command is checked.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it are a readable report and the run manifest.
The exit code is 0 only when every command passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from spans import Tracer, instrument
from workloads import (WORKLOADS, Command, Output, Workload, calib_in_gate,
                       check_command, validate_stdout)

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = Path("bench") / ".work"
LAUNCH = "import sys; from axmul.cli import main; sys.exit(main())"
SETUP_REPEATS = 7
COMMAND_TIMEOUT_S = 150

E2E_UNITS = {
    "pairs_per_s": "pairs/s",
    "cmd_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
}
LAYER_UNITS = {
    "adders.load_s": "s",
    "fabric.build_s": "s",
    "fabric.eval_s": "s",
    "fabric.eval_calls": "count",
    "fabric.eval_pairs": "pairs",
    "fabric.eval_mpairs_per_s": "Mpairs/s",
    "fabric.useful_pair_ratio": "ratio",
    "fabric.eval_peak_mb": "MB",
    "metrics.reduce_s": "s",
    "clustering.cluster_s": "s",
    "clustering.cells": "count",
    "clustering.hist_s": "s",
    "clustering.csv_s": "s",
    "designspace.table_s": "s",
    "designspace.select_s": "s",
    "render.svg_s": "s",
    "render.svg_bytes": "bytes",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_pct": "%",
    "trace.unattributed_s": "s",
}


@dataclass
class Executed:
    """One finished command with its cost."""

    key: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    out: Output


@dataclass
class Record:
    """What a run counted and found, besides its metrics."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    report: list[str] = field(default_factory=list)
    command_lines: list[str] = field(default_factory=list)
    figures: dict = field(default_factory=dict)
    spans: list | None = None


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    if not out_dir.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("AXMUL_LIBRARY", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(key: str, args: list[str], out_dir: Path | None, work: Path,
                env: dict) -> Executed:
    """Run one `axmul` process; CPU and peak RSS come from wait4 on that child.

    The rusage wait4 returns covers the child and the pool workers it has
    reaped, and nothing that ran before it.
    """
    argv = [sys.executable, "-c", LAUNCH, *args]
    if out_dir is not None:
        shutil.rmtree(out_dir, ignore_errors=True)
        argv += ["--out", str(out_dir)]
    stdout_path = work / "stdout.txt"
    with open(stdout_path, "wb") as stdout:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=stdout)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
        wall = perf_counter() - start
    out = Output(proc.returncode, stdout_path.read_bytes(),
                 read_outputs(out_dir) if out_dir is not None else {})
    return Executed(key, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, out)


def run_in_process(key: str, args: list[str], out_dir: Path) -> Executed:
    """Run one command through axmul.cli.main, looked up at call time so a
    traced `main` is the one called."""
    import axmul.cli

    shutil.rmtree(out_dir, ignore_errors=True)
    buf = io.StringIO()
    start = perf_counter()
    with redirect_stdout(buf):
        code = axmul.cli.main([*args, "--out", str(out_dir)])
    wall = perf_counter() - start
    return Executed(key, wall, 0.0, 0.0,
                    Output(code, buf.getvalue().encode("utf-8"), read_outputs(out_dir)))


def check_pass(commands: list[Command], executed: list[Executed], reference: dict | None,
               record: Record) -> dict:
    """Check one pass and count it in `record`; returns the pass's digests.

    Outputs must also be byte-identical to `reference`, the digests of an
    earlier pass of the same run.
    """
    outputs = {e.key: e.out for e in executed}
    digests = {e.key: e.out.digests() for e in executed}
    errors, failed = [], 0
    for command, e in zip(commands, executed):
        errs = check_command(command, e.out, outputs)
        if reference is not None and digests[e.key] != reference[e.key]:
            errs.append(f"{e.key}: outputs differ from the run's first pass")
        errors += errs
        failed += bool(errs)
    record.attempted += len(executed)
    record.failed += failed
    record.errors += errors
    return digests


def run_passes(seconds: float, one_pass) -> list:
    """Repeat `one_pass` while another pass of the last one's length fits."""
    results = []
    start = perf_counter()
    while True:
        begun = perf_counter()
        results.append(one_pass())
        now = perf_counter()
        if now - start + (now - begun) > seconds:
            return results


def percentile_report(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"p50 {statistics.median(ordered):.4f} s"
    if n >= 20:
        text += f", p{int(100 * (n - 10) / n)} {ordered[n - 11]:.4f} s"
    return text + f" (n={n})"


def end_to_end(workload: Workload, seconds: float, work: Path, record: Record) -> dict:
    env = child_env()
    setup_args = ["validate", workload.library]
    expected_validate = validate_stdout((ROOT / workload.library).read_text(encoding="utf-8"))
    setup_walls = []
    for repeat in range(SETUP_REPEATS + 1):           # the first run warms caches
        e = run_process("validate", setup_args, None, work, env)
        record.attempted += 1
        if e.out.returncode != 0 or e.out.stdout != expected_validate:
            record.failed += 1
            record.errors.append(f"validate: exit {e.out.returncode} or report differs")
        if repeat:
            setup_walls.append(e.wall_s)

    dirs = [work / "out" / str(i) for i in range(len(workload.commands))]
    passes = []

    def one_pass():
        executed = [run_process(c.key, c.args, d, work, env)
                    for c, d in zip(workload.commands, dirs)]
        digests = check_pass(workload.commands, executed,
                             passes[0][1] if passes else None, record)
        passes.append((executed, digests))

    run_passes(seconds, one_pass)
    record.command_lines = [shlex.join(["axmul", *setup_args])] + [
        shlex.join(["axmul", *c.args, "--out", str(d)]) for c, d in zip(workload.commands, dirs)]
    record.figures = workload_figures(passes[0][0])

    walls = [e.wall_s for executed, _ in passes for e in executed]
    pairs = sum(c.pairs for c in workload.commands)
    record.report = [f"{len(passes)} passes of {len(workload.commands)} commands, "
                       f"{pairs} pairs per pass",
                       f"command wall time {percentile_report(walls)}",
                       f"setup {percentile_report(setup_walls)}"]
    return {
        "pairs_per_s": statistics.median(pairs / sum(e.wall_s for e in executed)
                                         for executed, _ in passes),
        "cmd_p50_s": statistics.median(walls),
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": max(e.rss_mb for executed, _ in passes for e in executed),
        "cpu_s": statistics.median(sum(e.cpu_s for e in executed) for executed, _ in passes),
    }


def traced(workload: Workload, seconds: float, work: Path, record: Record) -> dict:
    """Per-layer metrics from in-process passes with and without spans.

    Commands run with --workers 1: spans recorded in pool workers would be lost.
    """
    for command in workload.commands:
        if "--workers" in command.args:
            command.args[command.args.index("--workers") + 1] = "1"
    dirs = [work / "out" / str(i) for i in range(len(workload.commands))]
    plain_walls, traced_walls, layers = [], [], []
    reference = None

    def one_pass():
        nonlocal reference
        # each command runs untraced and traced back to back, the order
        # alternating, so host speed drift cancels out of the overhead
        plain, spanned, tracer = [], [], Tracer()
        for i, (command, out_dir) in enumerate(zip(workload.commands, dirs)):
            for traced_run in ((False, True) if (i + len(layers)) % 2 == 0 else (True, False)):
                if traced_run:
                    with instrument(tracer):
                        spanned.append(run_in_process(command.key, command.args, out_dir))
                else:
                    plain.append(run_in_process(command.key, command.args, out_dir))
        # traced outputs must be byte-identical to the untraced ones
        digests = check_pass(workload.commands, plain, reference, record)
        reference = reference or digests
        check_pass(workload.commands, spanned, reference, record)
        plain_walls.append(sum(e.wall_s for e in plain))
        traced_walls.append(sum(e.wall_s for e in spanned))
        layer = tracer.layer_metrics(traced_walls[-1])
        layer["cli.out_bytes"] = sum(len(data) for e in spanned for data in e.out.files.values())
        layers.append(layer)
        record.spans = tracer.to_json()

    # the first in-process command of a process pays one-off costs (heap
    # growth, lazy imports) that would otherwise land on the untraced pass
    warm = workload.commands[0]
    check_pass([warm], [run_in_process(warm.key, warm.args, dirs[0])], None, record)
    run_passes(seconds, one_pass)
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name in layers[0]}
    metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced_walls) /
                                             statistics.median(plain_walls) - 1.0)
    record.command_lines = [shlex.join(["axmul", *c.args, "--out", str(d)])
                            for c, d in zip(workload.commands, dirs)]
    record.report = [f"{len(layers)} passes, each command untraced and traced, in-process, "
                     f"--workers 1",
                     f"untraced pass {statistics.median(plain_walls):.4f} s, "
                     f"traced pass {statistics.median(traced_walls):.4f} s"]
    return {name: metrics[name] for name in LAYER_UNITS}


def workload_figures(executed: list[Executed]) -> dict:
    """Figures reported beside the metrics: for the paper's table, the
    designs within every published gate."""
    figures = {}
    for e in executed:
        if e.key == "table" and e.out.returncode == 0:
            try:
                figures["calib_in_gate"] = calib_in_gate(e.out)
            except (KeyError, ValueError) as exc:
                figures["calib_in_gate"] = f"unreadable table: {exc}"
    return figures


def git(*args: str) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(workload: Workload, trace: int, loadavg: list[float], record: Record) -> dict:
    import numpy

    sources = sorted((ROOT / "src" / "axmul").rglob("*"))
    source_digest = hashlib.sha256()
    for path in sources:
        if path.is_file() and path.suffix in (".py", ".json"):
            source_digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            source_digest.update(path.read_bytes())
    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "trace": trace,
        "commit": commit,
        "dirty": bool(status) if commit else None,
        "source_sha256": source_digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_at_start": loadavg,
        "libraries": {workload.library: sha256_file(ROOT / workload.library)},
        "drawn": workload.drawn,
        "commands": record.command_lines,
        **({"traced_workers": 1} if trace else {}),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "axmul" / "cli.py").is_file():
        print(f"bench: no axmul sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    loadavg = list(os.getloadavg())
    record = Record()
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work, ROOT)
        measure = traced if args.trace else end_to_end
        metrics = measure(workload, args.seconds, work, record)
        man = manifest(workload, args.trace, loadavg, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = LAYER_UNITS if args.trace else E2E_UNITS
    correct = record.failed == 0 and not record.errors
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in record.report:
        print(f"  {line}")
    for name, value in metrics.items():
        print(f"  {name:<26} {value:.6g} {units[name]}")
    print(f"  {'fail_rate':<26} {record.failed / record.attempted:.6g} ratio "
          f"({record.failed} of {record.attempted} commands)")
    for name, value in record.figures.items():
        print(f"  {name:<26} {value} designs of 20")
    for error in record.errors:
        print(f"bench: check failed: {error}", file=sys.stderr)
    print("manifest " + json.dumps(man, sort_keys=True))
    result = {"manifest": man, "metrics": metrics, "errors": record.errors,
              "figures": record.figures, "spans": record.spans}
    (WORK_ROOT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
