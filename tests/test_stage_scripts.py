"""The stage-timing scripts `audit_stages.py`, `decision_stages.py`,
`glue_stages.py` and `verify_stages.py` reach private names of the
package and are not collected by pytest: each runs here once, at one
batch or op and one repeat, as a child process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, workloads", [
    ("audit_stages.py", ["graphs"]),
    ("decision_stages.py", ["`ktt_complete`", "`psi_random`"]),
    ("glue_stages.py", ["screened hopeless", "hopeless after rows",
                        "too few free", "budget exhausted", "glued"]),
    ("verify_stages.py", ["`ktt_complete`", "`sphere_sweep`"]),
])
def test_stage_script_prints_one_row_per_workload(script, workloads):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        str(ROOT / d) for d in ("src", "perfbench")))
    run = subprocess.run([sys.executable, str(ROOT / "tests" / script),
                          "1", "1"], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    rows = [line for line in run.stdout.splitlines()
            if not line.startswith(("| workload", "|---"))]
    assert len(rows) == len(workloads)
    for row, name in zip(rows, workloads):
        assert name in row, row
