"""External tooling gates (ruff, mypy) — skipped where the tools are absent.

The container used for the tier-1 suite does not ship ruff or mypy; CI
installs them via the ``lint`` extra (``pip install -e .[lint]``).  These
tests validate the checked-in configs whenever the tools are available and
degrade to skips otherwise, so the suite never depends on a pip install.
"""

import configparser
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

HAS_RUFF = shutil.which("ruff") is not None
try:
    import mypy  # noqa: F401

    HAS_MYPY = True
except ImportError:
    HAS_MYPY = False


class TestConfigsCheckedIn:
    """The configs themselves must exist and stay coherent without the tools."""

    def test_ruff_config_exists_and_selects_pyflakes(self):
        text = (REPO_ROOT / ".ruff.toml").read_text()
        assert '"F"' in text  # pyflakes family enabled
        # No fixture tree of deliberate violations is left to exclude.
        assert "exclude" not in text

    def test_mypy_config_is_strict_on_core_and_campaign(self):
        parser = configparser.ConfigParser()
        parser.read(REPO_ROOT / "setup.cfg")
        assert parser.has_section("mypy")
        assert not parser.has_option("mypy", "exclude")
        for section in ("mypy-repro.core.*", "mypy-repro.campaign.*"):
            assert parser.has_section(section), section
            assert parser.getboolean(section, "disallow_untyped_defs")
            assert parser.getboolean(section, "disallow_incomplete_defs")

    def test_py_typed_marker_is_packaged(self):
        assert (REPO_ROOT / "src" / "repro" / "py.typed").exists()
        parser = configparser.ConfigParser()
        parser.read(REPO_ROOT / "setup.cfg")
        assert "py.typed" in parser.get("options.package_data", "repro")

    def test_lint_extra_declares_the_tools(self):
        parser = configparser.ConfigParser()
        parser.read(REPO_ROOT / "setup.cfg")
        extra = parser.get("options.extras_require", "lint")
        assert "mypy" in extra
        assert "ruff" in extra


@pytest.mark.skipif(not HAS_RUFF, reason="ruff not installed (CI-only gate)")
class TestRuff:
    def test_src_is_ruff_clean(self):
        proc = subprocess.run(
            ["ruff", "check", "src", "examples", "benchmarks"],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(not HAS_MYPY, reason="mypy not installed (CI-only gate)")
class TestMypy:
    def test_typed_core_passes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file", "setup.cfg"],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
