"""Documentation-site structural tests.

The full Sphinx build runs in the CI ``docs`` job (sphinx is not a runtime
dependency); these tests run ``docs/check_docs.py`` — the dependency-free
validator covering the same invariants (rst syntax, toctree reachability,
autodoc imports, literalinclude paths, public docstrings) — so a broken
docs change fails the regular suite too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

DOCS = Path(__file__).resolve().parents[1] / "docs"


@pytest.fixture(scope="module")
def check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", DOCS / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocsSite:
    def test_validator_passes(self, check_docs, capsys):
        assert check_docs.main() == 0, capsys.readouterr().err

    def test_site_skeleton_present(self):
        for page in (
            "conf.py",
            "index.rst",
            "architecture.rst",
            "howto/backends.rst",
            "howto/reproducibility.rst",
            "api/index.rst",
            "examples/index.rst",
        ):
            assert (DOCS / page).is_file(), f"docs/{page} missing"

    def test_every_example_script_has_a_gallery_page(self):
        examples = Path(__file__).resolve().parents[1] / "examples"
        for script in examples.glob("*.py"):
            page = DOCS / "examples" / f"{script.stem}.rst"
            assert page.is_file(), f"no gallery page for examples/{script.name}"
            assert f"examples/{script.name}" in page.read_text()

    def test_conf_version_tracks_package(self, check_docs):
        import repro

        conf_path = DOCS / "conf.py"
        conf_ns = {"__file__": str(conf_path)}
        sys.path.insert(0, str(DOCS))
        try:
            exec(compile(conf_path.read_text(), str(conf_path), "exec"), conf_ns)
        finally:
            sys.path.remove(str(DOCS))
        assert conf_ns["release"] == repro.__version__
        assert "sphinx.ext.autodoc" in conf_ns["extensions"]
        assert "sphinx.ext.napoleon" in conf_ns["extensions"]
