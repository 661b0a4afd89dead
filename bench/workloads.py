"""Benchmark workloads: seed-drawn inputs, one pass of axmul commands, output checks.

A workload is a list of CLI commands (one "pass") plus a check for every
command.  Inputs come from the seed alone; the program only ever sees the
generated library file and its command-line flags.  The runner adds
`--out <dir>` to each command, so the argument lists here are what a user
would type apart from the output directory.

Checks are bench-side oracles: committed byte digests where the inputs are
fixed, and invariants (pair counts, complete cluster grids, agreement
between commands) where the seed draws the inputs.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
SHIPPED_LIBRARY = "src/axmul/data/ama_adders.json"   # relative to the checkout root

EXACT_SUM_BITS = "01101001"
EXACT_COUT_BITS = "00010111"
AMA_TYPES = ("AMA1", "AMA2", "AMA3", "AMA4", "AMA5")
DEGREES = ("D1", "D2", "D3", "D4")
ARCHITECTURES = ("row_ripple", "carry_save")


class CheckFailed(Exception):
    """An output of a command does not meet its check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Output:
    """What one command left behind: exit code, stdout and its output files."""

    returncode: int
    stdout: bytes
    files: dict[str, bytes]

    def digests(self) -> dict:
        return {"stdout": sha256(self.stdout),
                "files": {name: sha256(data) for name, data in sorted(self.files.items())}}

    def json(self, name: str):
        expect(name in self.files, f"missing output {name}")
        return json.loads(self.files[name])

    def csv_rows(self, name: str) -> list[list[str]]:
        expect(name in self.files, f"missing output {name}")
        lines = self.files[name].decode("utf-8").splitlines()
        return [line.split(",") for line in lines[1:]]


# A check sees the command's output and every output of the same pass by key.
Check = Callable[[Output, dict[str, Output]], None]


@dataclass
class Command:
    key: str              # unique within a pass
    args: list[str]       # axmul arguments, without --out
    pairs: int            # exhaustive operand pairs covered, once per design
    checks: list[Check]


@dataclass
class Workload:
    name: str
    seed: int
    library: str          # library file, relative to the checkout root
    commands: list[Command]
    drawn: dict = field(default_factory=dict)   # seed-drawn choices, for the manifest


def check_command(command: Command, out: Output, outputs: dict[str, Output]) -> list[str]:
    """Every reason the command failed; empty when it passed."""
    if out.returncode != 0:
        return [f"{command.key}: exit code {out.returncode}"]
    errors = []
    for check in command.checks:
        try:
            check(out, outputs)
        except CheckFailed as exc:
            errors.append(f"{command.key}: {exc}")
        except (KeyError, IndexError, ValueError, TypeError) as exc:
            errors.append(f"{command.key}: malformed output ({type(exc).__name__}: {exc})")
    return errors


# ---------------------------------------------------------------- checks

def digests_equal(workload: str, key: str) -> Check:
    """Byte-identical to the digests committed under expected/ for this command."""
    def check(out, _outputs):
        expected = load_expected(workload)["commands"][key]
        got = out.digests()
        expect(got["stdout"] == expected["stdout"], "stdout differs from the committed digest")
        expect(sorted(got["files"]) == sorted(expected["files"]),
               f"output files {sorted(got['files'])} != {sorted(expected['files'])}")
        for name, digest in expected["files"].items():
            expect(got["files"][name] == digest, f"{name} differs from the committed digest")
    return check


def validate_stdout(library_text: str) -> bytes:
    """The exact `axmul validate` report for a library, from its truth tables."""
    entries = json.loads(library_text)
    if "exact" not in [e["name"] for e in entries]:
        entries.append({"name": "exact", "sum_bits": EXACT_SUM_BITS,
                        "cout_bits": EXACT_COUT_BITS})
    lines = []
    for e in entries:
        sum_rows = [i for i in range(8) if e["sum_bits"][i] != EXACT_SUM_BITS[i]]
        cout_rows = [i for i in range(8) if e["cout_bits"][i] != EXACT_COUT_BITS[i]]
        count = len(sum_rows) + len(cout_rows)
        detail = f" (sum rows {sum_rows}, cout rows {cout_rows})" if count else ""
        lines.append(f"{e['name']}: {count} erroneous rows{detail}\n")
    return "".join(lines).encode("utf-8")


def control_sweep(width: int) -> Check:
    """The exact design must report zero error over all 4^n pairs."""
    def check(out, _outputs):
        doc = out.json("sweep_exact_d0.json")
        expect(doc["er"] == 0 and doc["max_ed"] == 0, f"exact control reports er={doc['er']}")
        expect(doc["count"] == 4 ** width, f"control count {doc['count']} != 4^{width}")
        expect(out.stdout.startswith(b"exact_d0: er=0 "), "control stdout does not report er=0")
    return check


def sweep_counts(name: str, width: int) -> Check:
    def check(out, _outputs):
        doc = out.json(f"sweep_{name}.json")
        expect(doc["count"] == 4 ** width, f"sweep count {doc['count']} != 4^{width}")
        rows = out.csv_rows(f"sweep_{name}.csv")
        expect(len(rows) == 1 and rows[0][-1] == str(4 ** width), "sweep csv count")
    return check


def _complete_grid(rows: list[list[str]], side: int, what: str) -> None:
    cells = {(int(r[0]), int(r[1])) for r in rows}
    expect(len(rows) == side * side and
           cells == {(a, b) for a in range(side) for b in range(side)},
           f"{what} is not a complete {side}x{side} grid")


def cluster_grid(name: str, side: int, sweep_key: str | None = None) -> Check:
    """A complete cluster grid; with a sweep of the same design, equal averages."""
    def check(out, outputs):
        _complete_grid(out.csv_rows(f"clusters_{name}.csv"), side, "cluster csv")
        matrix = out.files[f"clusters_{name}_ned.txt"].decode("utf-8").splitlines()
        expect(len(matrix) == side and all(len(r.split()) == side for r in matrix),
               "NED matrix shape")
        expect(out.files[f"clusters_{name}.svg"].startswith(b"<svg"), "cluster svg")
        doc = out.json(f"clusters_{name}.json")
        if sweep_key is not None:
            sweep = outputs[sweep_key].json(f"sweep_{name}.json")
            expect(doc["ned_avg"] == sweep["ned_clustered_avg"] and
                   doc["psnr_avg"] == sweep["psnr_clustered_avg"],
                   "cluster averages disagree with the sweep")
    return check


def histogram_matches_sweep(name: str, width: int, sweep_key: str) -> Check:
    def check(out, outputs):
        doc = out.json(f"histogram_{name}.json")
        sweep = outputs[sweep_key].json(f"sweep_{name}.json")
        expect(doc["total_count"] == 4 ** width, f"histogram total {doc['total_count']}")
        expect(sum(int(r[1]) for r in out.csv_rows(f"histogram_{name}.csv")) == 4 ** width,
               "histogram bins do not sum to 4^n")
        expect(doc["max_ed"] == sweep["max_ed"], "histogram max_ed disagrees with the sweep")
        expect(doc["mean_ed"] == sweep["med"], "histogram mean_ed disagrees with the sweep med")
    return check


def table_rows(out, _outputs):
    doc = out.json("library_table.json")
    expect([d["ordinal"] for d in doc] == list(range(1, 21)), "table ordinals are not 1..20")
    expect(all(d["count"] == 4 ** 8 for d in doc), "table row count != 4^8")


def selection_grid(side: int) -> Check:
    def check(out, _outputs):
        rows = out.csv_rows("selection.csv")
        _complete_grid(rows, side, "selection csv")
        allowed = {str(k) for k in range(1, 21)} | {"exact"}
        expect({r[2] for r in rows} <= allowed, "selection names a design outside 1..20")
        counts = out.json("selection.json")["usage_counts"]
        expect(sum(counts.values()) == side * side, "selection usage counts")
    return check


def calib_in_gate(out: Output) -> int:
    """Designs within every published gate, from the table's JSON output."""
    from axmul.calibration import compare_to_published

    rows = [SimpleNamespace(
        design=SimpleNamespace(label=d["design"], type_knob=d["type"], degree_knob=d["degree"]),
        report=SimpleNamespace(er=d["er"], med=d["med"], ned_clustered_avg=d["ned_clustered_avg"],
                               mred=d["mred"], mse=d["mse"],
                               psnr_clustered_avg=d["psnr_clustered_avg"]))
        for d in out.json("library_table.json")]
    return compare_to_published(rows)["designs_within"]


def calib_equals(workload: str) -> Check:
    def check(out, _outputs):
        expected = load_expected(workload)["calib_in_gate"]
        got = calib_in_gate(out)
        expect(got == expected, f"calib_in_gate {got} != {expected}")
    return check


# ---------------------------------------------------------------- inputs

def random_library(rng: random.Random, count: int) -> str:
    """Exact cell plus `count` cells, each with 1 to 4 truth-table rows flipped."""
    entries = [{"name": "exact", "sum_bits": EXACT_SUM_BITS, "cout_bits": EXACT_COUT_BITS}]
    for k in range(1, count + 1):
        sum_bits, cout_bits = list(EXACT_SUM_BITS), list(EXACT_COUT_BITS)
        for row in sorted(rng.sample(range(8), rng.randint(1, 4))):
            output = rng.choice(("sum", "cout", "both"))
            if output != "cout":
                sum_bits[row] = "10"[int(sum_bits[row])]
            if output != "sum":
                cout_bits[row] = "10"[int(cout_bits[row])]
        entries.append({"name": f"RND{k}", "sum_bits": "".join(sum_bits),
                        "cout_bits": "".join(cout_bits)})
    return json.dumps(entries, indent=2) + "\n"


@functools.cache
def load_expected(workload: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{workload}.json").read_text(encoding="utf-8"))


def _control(common: list[str], width: int, workload: str | None) -> Command:
    """One exact-design sweep per pass; with a workload name, also digest-checked."""
    checks = [control_sweep(width)]
    if workload is not None:
        checks.append(digests_equal(workload, "control"))
    return Command("control", ["sweep", *common, "--type", "exact", "--degree", "0",
                               "--workers", "1"], 4 ** width, checks)


def paper_table(seed: int, work: Path, root: Path) -> Workload:
    """The paper's own experiment; the inputs are fixed, so the seed is unused."""
    name = "paper-table-w8"
    common = ["--library", SHIPPED_LIBRARY, "--width", "8", "--cluster-size", "16",
              "--architecture", "row_ripple"]
    commands = [
        Command("table", ["table", *common, "--workers", "2"], 20 * 4 ** 8,
                [digests_equal(name, "table"), table_rows, calib_equals(name)]),
        Command("select", ["select", *common, "--workers", "2"], 20 * 4 ** 8,
                [digests_equal(name, "select"), selection_grid(16)]),
        _control(common, 8, name),
    ]
    return Workload(name, seed, SHIPPED_LIBRARY, commands)


def fine_cluster_commands(designs: list[tuple[str, str]]) -> list[Command]:
    """Selection at cluster size 2, then every output format for each design."""
    name = "fine-clusters-w8"
    common = ["--library", SHIPPED_LIBRARY, "--width", "8", "--cluster-size", "2",
              "--architecture", "row_ripple"]
    commands = [Command("select", ["select", *common, "--workers", "1"], 20 * 4 ** 8,
                        [digests_equal(name, "select"), selection_grid(128)])]
    for adder, degree in designs:
        key = f"clusters:{adder}_{degree}"
        commands.append(Command(
            key, ["clusters", *common, "--type", adder, "--degree", degree,
                  "--format", "csv,json,svg"], 4 ** 8,
            [digests_equal(name, key), cluster_grid(f"{adder}_{degree}", 128)]))
    commands.append(_control(common, 8, name))
    return commands


def fine_clusters(seed: int, work: Path, root: Path) -> Workload:
    rng = random.Random(seed)
    designs = [(AMA_TYPES[i // 4], DEGREES[i % 4]) for i in rng.sample(range(20), 2)]
    return Workload("fine-clusters-w8", seed, SHIPPED_LIBRARY,
                    fine_cluster_commands(designs),
                    {"designs": [f"{a}/{d}" for a, d in designs]})


WIDE_WIDTH = 10


def random_wide(seed: int, work: Path, root: Path) -> Workload:
    """Seed-drawn cells at width 10: sweep, clusters and histogram per design.

    One design per architecture, so every seed does the same amount of
    evaluation and the spread across seeds reflects the program.
    """
    rng = random.Random(seed)
    library = work / "library.json"
    (root / library).write_text(random_library(rng, len(ARCHITECTURES)), encoding="utf-8")
    architectures = list(ARCHITECTURES)
    rng.shuffle(architectures)
    n = WIDE_WIDTH
    commands, drawn = [], []
    for k, arch in enumerate(architectures, start=1):
        adder, degree = f"RND{k}", rng.randint(10, 20)
        name = f"{adder}_d{degree}"
        drawn.append(f"{adder}/{arch}/degree {degree}")
        common = ["--library", str(library), "--width", str(n), "--cluster-size", "16",
                  "--architecture", arch, "--type", adder, "--degree", str(degree),
                  "--workers", "1"]
        sweep_key = f"sweep:{name}"
        commands += [
            Command(sweep_key, ["sweep", *common], 4 ** n, [sweep_counts(name, n)]),
            Command(f"clusters:{name}", ["clusters", *common], 4 ** n,
                    [cluster_grid(name, (1 << n) // 16, sweep_key)]),
            Command(f"histogram:{name}", ["histogram", *common], 4 ** n,
                    [histogram_matches_sweep(name, n, sweep_key)]),
        ]
    # a w=8 control keeps the command-time median inside the group of
    # clusters/histogram commands instead of on the edge of the sweeps
    commands.append(_control(["--library", str(library), "--width", "8",
                              "--cluster-size", "16", "--architecture", "row_ripple"],
                             8, None))
    return Workload("random-wide-w10", seed, str(library), commands, {"designs": drawn})


WORKLOADS = {
    "paper-table-w8": paper_table,
    "random-wide-w10": random_wide,
    "fine-clusters-w8": fine_clusters,
}
