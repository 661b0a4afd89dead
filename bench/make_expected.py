"""Write the committed output digests of the fixed-input commands.

The paper-table-w8 and fine-clusters-w8 workloads check their outputs
against expected/<workload>.json.  Regenerate those files only in a change
that is meant to alter axmul's outputs, and say so in that change:

    python3 bench/make_expected.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import ROOT, WORK_ROOT, child_env, run_process
from workloads import (AMA_TYPES, DEGREES, EXPECTED_DIR, calib_in_gate,
                       fine_cluster_commands, paper_table)


def run_once(commands, work, env) -> dict:
    outputs = {}
    for i, command in enumerate(commands):
        done = run_process(command.key, command.args, work / "out" / str(i), work, env)
        if done.out.returncode != 0:
            raise SystemExit(f"{command.key} exited {done.out.returncode}")
        outputs[command.key] = done.out
    return outputs


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    work = WORK_ROOT / f"expected-{os.getpid()}"
    work.mkdir(parents=True)
    env = child_env()
    try:
        table = run_once(paper_table(0, work, ROOT).commands, work, env)
        fine = run_once(fine_cluster_commands(
            [(adder, degree) for adder in AMA_TYPES for degree in DEGREES]), work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    docs = {
        "paper-table-w8": {"commands": {k: o.digests() for k, o in table.items()},
                           "calib_in_gate": calib_in_gate(table["table"])},
        "fine-clusters-w8": {"commands": {k: o.digests() for k, o in fine.items()}},
    }
    EXPECTED_DIR.mkdir(exist_ok=True)
    for name, doc in docs.items():
        (EXPECTED_DIR / f"{name}.json").write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {EXPECTED_DIR / name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
