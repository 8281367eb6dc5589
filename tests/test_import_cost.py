"""Import-cost guard: importing the library loads no third party but NumPy.

SciPy is imported only where it is called (the two fits and ``expm`` for
canonical gates), and the compiler's graphs are plain ``Topology`` objects,
so a figure that fits nothing starts without loading SciPy or any graph
library.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Run in a fresh interpreter: lists the installed top-level packages (those
# under site-packages) that the import adds to ``sys.modules``.
_PROBE = """
import json, site, sys
roots = tuple(site.getsitepackages() + [site.getusersitepackages()])
before = set(sys.modules)
import repro, repro.experiments
added = {
    name.split(".")[0]
    for name in set(sys.modules) - before
    if (getattr(sys.modules[name], "__file__", None) or "").startswith(roots)
}
print(json.dumps(sorted(added - {"repro"})))
"""


def test_import_loads_numpy_only():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = json.loads(out.stdout)
    assert "scipy" not in loaded
    assert set(loaded) <= {"numpy"}, loaded
