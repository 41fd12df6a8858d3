"""The package imports with only its declared dependencies (numpy, scipy).

networkx serves two helpers — :func:`repro.circuits.dag.circuit_dependency_graph`
and :func:`repro.applications.hubo.generators.maxcut_problem`'s annotation —
so it is imported on demand, never by ``import repro``.  The check runs in a
subprocess with networkx blocked, so a module-level import anywhere in the
package fails it whatever this process has already imported.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

PROBE = textwrap.dedent(
    """
    import sys
    sys.modules["networkx"] = None  # any import of networkx now raises ImportError
    import repro, repro.runtime, repro.service
    from repro.circuits import QuantumCircuit, critical_path_length
    circuit = QuantumCircuit(2)
    circuit.cx(0, 1)
    assert critical_path_length(circuit) == 1
    loaded = [name for name, module in sys.modules.items()
              if name.split(".")[0] == "networkx" and module is not None]
    assert not loaded, loaded
    """
)


def test_import_repro_without_networkx():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
        "PYTHONPATH", ""
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, timeout=120, env=env
    )
    assert result.returncode == 0, result.stderr
