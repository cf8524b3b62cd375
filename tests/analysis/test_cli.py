"""End-to-end tests for the ``scripts/simlint.py`` CLI."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SIMLINT = REPO_ROOT / "scripts" / "simlint.py"

CLEAN_SOURCE = "X = 1\n"
DIRTY_SOURCE = (
    "import time\n"
    "\n"
    "def stamp():\n"
    "    return time.time()\n"
)


def run_cli(*args, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, str(SIMLINT), *args],
        capture_output=True, text=True, cwd=cwd)


def test_clean_file_exits_zero(tmp_path):
    target = tmp_path / "clean.py"
    target.write_text(CLEAN_SOURCE)
    result = run_cli(str(target))
    assert result.returncode == 0
    assert "clean" in result.stdout


def test_violations_exit_one_with_location(tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY_SOURCE)
    result = run_cli(str(target))
    assert result.returncode == 1
    assert "DET02" in result.stdout
    assert f"{target}:4:" in result.stdout


def test_fixit_shown_and_suppressed(tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY_SOURCE)
    with_fix = run_cli(str(target))
    assert "fix:" in with_fix.stdout
    without_fix = run_cli(str(target), "--no-fixits")
    assert "fix:" not in without_fix.stdout


def test_json_report(tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY_SOURCE)
    result = run_cli(str(target), "--json")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["violation_count"] == 1
    [violation] = payload["violations"]
    assert violation["code"] == "DET02"
    assert violation["line"] == 4


def test_select_narrows_rules(tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY_SOURCE)
    result = run_cli(str(target), "--select", "DET01")
    assert result.returncode == 0


def test_disable_by_name(tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text(DIRTY_SOURCE)
    result = run_cli(str(target), "--disable", "wall-clock")
    assert result.returncode == 0


def test_unknown_rule_is_usage_error(tmp_path):
    target = tmp_path / "clean.py"
    target.write_text(CLEAN_SOURCE)
    result = run_cli(str(target), "--select", "NOPE99")
    assert result.returncode == 2
    assert "unknown simlint rule" in result.stderr


def test_missing_path_is_usage_error():
    result = run_cli("/no/such/path.py")
    assert result.returncode == 2


def test_no_paths_is_usage_error():
    result = run_cli()
    assert result.returncode == 2


def test_list_rules():
    result = run_cli("--list-rules")
    assert result.returncode == 0
    for code in ("DET01", "DET02", "DET03", "DET04",
                 "KP01", "KP02", "KP03", "KP04",
                 "WQ01", "WQ02", "WQ03"):
        assert code in result.stdout


def test_syntax_error_reported_as_violation(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def broken(:\n")
    nul = tmp_path / "nul.py"     # ValueError, not SyntaxError, on 3.10
    nul.write_bytes(b"X = 1\x00\n")
    result = run_cli(str(target), str(nul))
    assert result.returncode == 1
    assert f"{target}:1:" in result.stdout
    assert f"{nul}:1:1: E000[parse-error]" in result.stdout


@pytest.mark.parametrize("flag", [
    ["--jobs", "2"], ["--cache-dir", "d"], ["--baseline", "f"],
    ["--write-baseline", "f"], ["--output", "json"], ["--fix"]],
    ids=lambda flag: flag[0])
def test_retired_flag_is_usage_error(tmp_path, flag):
    target = tmp_path / "clean.py"
    target.write_text(CLEAN_SOURCE)
    result = run_cli(str(target), *flag, cwd=tmp_path)
    assert result.returncode == 2
    assert "unrecognized arguments" in result.stderr
    assert sorted(tmp_path.iterdir()) == [target]   # nothing written


@pytest.mark.parametrize("kwarg", [{"jobs": 2}, {"cache_dir": "d"}],
                         ids=lambda kwarg: next(iter(kwarg)))
def test_retired_lint_paths_kwarg_raises(tmp_path, kwarg):
    target = tmp_path / "clean.py"
    target.write_text(CLEAN_SOURCE)
    with pytest.raises(TypeError):
        lint_paths([str(target)], **kwarg)


def test_coding_cookie_file_is_linted(tmp_path):
    # PEP 263: the interpreter runs this latin-1 file, so simlint lints it.
    target = tmp_path / "cookie.py"
    target.write_bytes(b"# -*- coding: latin-1 -*-\nX = '\xe9'\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY_SOURCE)
    assert subprocess.run([sys.executable, str(target)]).returncode == 0
    result = run_cli(str(target), str(dirty))
    assert result.returncode == 1, result.stderr
    assert result.stderr == ""
    assert f"{dirty}:4:" in result.stdout
    assert "cookie.py" not in result.stdout
    assert "2 file(s) checked, 1 violation(s)" in result.stdout


def test_undecodable_file_is_a_parse_error_at_its_path(tmp_path):
    # Non-ASCII bytes under an ascii cookie, and invalid UTF-8 without one.
    ascii_cookie = tmp_path / "ascii_cookie.py"
    ascii_cookie.write_bytes(b"# -*- coding: ascii -*-\nX = '\xe9'\n")
    no_cookie = tmp_path / "no_cookie.py"
    no_cookie.write_bytes(b"X = 1\nY = 2\nZ = '\xe9'\n")
    dirty = tmp_path / "dirty.py"
    dirty.write_text(DIRTY_SOURCE)
    result = run_cli(str(ascii_cookie), str(no_cookie), str(dirty))
    assert result.returncode == 1, result.stderr
    assert f"{ascii_cookie}:1:1: E000[parse-error] cannot decode:" \
        in result.stdout
    assert f"{no_cookie}:1:1: E000[parse-error] cannot decode:" \
        in result.stdout
    assert f"{dirty}:4:" in result.stdout
    assert "3 file(s) checked, 3 violation(s)" in result.stdout


def test_cross_file_finding_via_cli(tmp_path):
    # A taint source and its sink in different files: only whole-program
    # analysis connects them, and the report names both ends.
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "helpers.py").write_text(
        "def fill(memory, addr):\n"
        "    memory.write(addr, b'x')\n")
    (pkg / "writer.py").write_text(
        "from repro.core.helpers import fill\n\n"
        "class Writer:\n"
        "    def run(self, sim):\n"
        "        yield sim.timeout(1)\n"
        "        addr = self.queue.slot_address(0)\n"
        "        fill(self.memory, addr)\n")
    result = run_cli(str(tmp_path / "repro"))
    assert result.returncode == 1
    assert "WQ11" in result.stdout
    assert "helpers.py:2:" in result.stdout       # sink
    assert "source:" in result.stdout             # cross-file anchor
    assert "writer.py:4" in result.stdout
