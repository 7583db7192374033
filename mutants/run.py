"""Apply each mutant of ``mutants/mutants.py`` to a copy of ``src/`` and
require its named tests to fail there.

    python mutants/run.py

First the unmutated copy must pass every named test.  Then, per mutant, a
fresh copy of ``src/`` gets the one replacement, and pytest runs that
mutant's tests against the copy (``-o pythonpath`` for the tests,
``PYTHONPATH`` for the interpreters they start).  Each named test must be
reported FAILED; one that passes, errors or is not found leaves the mutant
alive.  An old text that does not occur exactly once stops the run with
exit 2, so a refactor cannot silently retire its mutants.  Exit 0 when
every mutant is caught, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from mutants import MUTANTS  # this script's directory is first on sys.path

ROOT = Path(__file__).resolve().parent.parent


def outcomes(src: Path, tests: list[str]) -> dict[str, str]:
    """Each reported test id of one pytest run against ``src``, with its outcome."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *tests]
    run = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    out = {}
    for line in run.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            out[rest.split(" - ")[0]] = word
    return out


def copy_src(into: Path, mutant: dict | None = None) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant:
        path = src / mutant["file"]
        text = path.read_text()
        found = text.count(mutant["old"])
        if found != 1:
            print(f"mutant {mutant['name']}: its old text occurs {found} times in "
                  f"src/{mutant['file']}, not once; update mutants/mutants.py", file=sys.stderr)
            sys.exit(2)
        path.write_text(text.replace(mutant["old"], mutant["new"]))
    return src


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        # check every old text before any test runs
        for k, m in enumerate(MUTANTS):
            copy_src(Path(tmp) / str(k), m)
        tests = sorted({t for m in MUTANTS for t in m["tests"]})
        base = outcomes(copy_src(Path(tmp) / "clean"), tests)
        broken = {t: base.get(t, "not run") for t in tests if base.get(t) != "PASSED"}
        if broken:
            print(f"the unmutated copy does not pass: {broken}")
            return 1
        alive = 0
        for k, m in enumerate(MUTANTS):
            got = outcomes(Path(tmp) / str(k) / "src", m["tests"])
            missed = {t: got.get(t, "not run") for t in m["tests"] if got.get(t) != "FAILED"}
            alive += bool(missed)
            print(f"{m['name']}: " + (f"ALIVE, not failed: {missed}" if missed else "caught"))
    print(f"{len(MUTANTS) - alive} of {len(MUTANTS)} mutants caught")
    return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
