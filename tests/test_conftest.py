import os
import subprocess
import sys
from pathlib import Path

from tests.conftest import REPO

NAMED = "@pytest.mark.xfail(strict=True, raises=AssertionError)\ndef test_named():\n    assert False\n"
UNNAMED = "@pytest.mark.xfail(strict=True)\ndef test_unnamed():\n    assert False\n"


def run_pytest(tmp_path, *tests):
    (tmp_path / "conftest.py").write_text((Path(__file__).parent / "conftest.py").read_text())
    (tmp_path / "test_pins.py").write_text("import pytest\n\n\n" + "\n\n".join(tests))
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--rootdir", str(tmp_path), str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": pythonpath}
    return subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)


def test_an_xfail_mark_must_name_its_exception(tmp_path):
    result = run_pytest(tmp_path, NAMED, UNNAMED)
    assert result.returncode == 4, result.stdout + result.stderr  # pytest's usage error: nothing runs
    assert "an xfail mark must name its exception with raises=: test_pins.py::test_unnamed" in result.stderr
    assert "test_named" not in result.stderr


def test_an_xfail_mark_that_names_its_exception_runs(tmp_path):
    result = run_pytest(tmp_path, NAMED)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "1 xfailed" in result.stdout
