"""Public-API surface tests: everything documented resolves and works."""

import re
from pathlib import Path

import repro

README = Path(__file__).resolve().parents[1] / "README.md"


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_readme_quickstart_snippet(self):
        """The README's quickstart code (its first python block) runs verbatim."""
        snippet = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
        namespace = {}
        exec(compile(snippet, str(README), "exec"), namespace)
        assert -1.0 <= namespace["batch"]["ca_ec+dd"].values["x2"] <= 1.0

    def test_subpackage_all_exports_resolve(self):
        import repro.benchmarking
        import repro.circuits
        import repro.compiler
        import repro.device
        import repro.experiments
        import repro.pauli
        import repro.sim

        for module in (
            repro.circuits,
            repro.pauli,
            repro.device,
            repro.sim,
            repro.compiler,
            repro.benchmarking,
            repro.experiments,
        ):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)

    def test_every_public_callable_has_docstring(self):
        import inspect

        missing = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not inspect.getdoc(obj):
                missing.append(name)
        assert not missing, missing

    def test_strategies_registry_documented(self):
        from repro import STRATEGIES

        assert set(STRATEGIES) == {
            "none",
            "dd",
            "staggered_dd",
            "ca_dd",
            "ca_ec",
            "ca_ec+dd",
            "ec+aligned_dd",
        }
