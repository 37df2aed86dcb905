"""The compile path does not import networkx.

``import networkx`` costs more than the rest of the package import put
together, and a fresh import is part of every process start (CLI runs,
pool workers, service workers).  The point-to-point router carries its
own port of networkx's bidirectional BFS, and only the export helper
``Ddg.to_networkx`` and the frozen reference pipeline in
``repro.baselines`` (imported on demand) still use networkx.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _imports_networkx(statement: str) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    probe = f"{statement}\nimport sys\nprint('networkx' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return result.stdout.strip().splitlines()[-1] == "True"


def test_engine_experiment_and_service_leave_networkx_out():
    assert not _imports_networkx(
        "import repro.analysis.engine, repro.analysis.experiment, "
        "repro.service\n"
        "from repro.core.driver import compile_loop\n"
        "from repro.machine.presets import four_cluster_grid\n"
        "from repro.workloads import paper_suite\n"
        "compile_loop(paper_suite(1)[0], four_cluster_grid())"
    )


def test_to_networkx_still_imports_it_on_use():
    assert _imports_networkx(
        "from repro.workloads import paper_suite\n"
        "paper_suite(1)[0].to_networkx()"
    )
