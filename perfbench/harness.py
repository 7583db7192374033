"""Shared pieces of the benchmark: workloads, statistics, output checks,
process measurement, machine-speed calibration and machine metadata.

Only the standard library is imported here, so that the processes the
benchmark forks inherit a small, fixed RSS from it; kaprekar4 is imported
only by the processes that run it and by the output checks after the timed
window.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

ORACLE_BASE = 40
ORACLE_NUMERALS = 256


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a kaprekar4 CLI command, or the oracle driver
    when ``cli`` is empty."""

    name: str
    cli: tuple[str, ...]
    jobs: int  # worker processes of the timed run

    @property
    def entry(self) -> str:
        """The module a fresh interpreter imports for ``setup_s``."""
        return "kaprekar4.cli" if self.cli else "kaprekar4"

    @property
    def argv(self) -> tuple[str, ...]:
        """Arguments after ``python3`` for the timed run."""
        if self.cli:
            return ("-m", "kaprekar4.cli", *self.cli)
        return (str(BENCH_DIR / "oracle_driver.py"),)

    @property
    def traced_cli(self) -> tuple[str, ...]:
        """CLI arguments of the in-process runs, which use no pool."""
        args = list(self.cli)
        if "--jobs" in args:
            del args[args.index("--jobs"):args.index("--jobs") + 2]
        return (*args, "--jobs", "1")


WORKLOADS = {
    w.name: w
    for w in (
        # many small and mid-size bases through the process pool; the
        # forward cross-check in pair_distance_map dominates
        Workload("sweep", ("sweep", "--bases", "2..200", "--metrics", "mb,cb",
                           "--format", "csv", "--jobs", "2"), jobs=2),
        # one 5*2^6 base: pair counting plus every deep check
        Workload("verify-deep", ("verify", "--bases", "320..320", "--depth", "deep",
                                 "--format", "json"), jobs=1),
        # the numpy integer route over all 40^4 states; the pair layer is idle
        Workload("oracle", (), jobs=1),
    )
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def oracle_numerals(seed: int, count: int = ORACLE_NUMERALS) -> list[int]:
    """Numerals of the oracle's base, as values in [0, base^4), drawn from ``seed``."""
    rng = random.Random(seed)
    return [rng.randrange(ORACLE_BASE**4) for _ in range(count)]


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) with the default method of ``statistics.quantiles``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fail_ratio(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no run was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def check_output(reference: dict, workload: str, exit_code: int, digest: str) -> str | None:
    """None when a run's exit code and output digest match the reference,
    else the reason it does not."""
    ref = reference[workload]
    if exit_code != ref["exit_code"]:
        return f"exit code {exit_code}, expected {ref['exit_code']}"
    if digest != ref["sha256"]:
        return f"output sha256 {digest[:12]}..., expected {ref['sha256'][:12]}..."
    return None


def oracle_report_digest(payload: dict) -> str:
    """Digest of the seed-independent part of the oracle driver's output."""
    return sha256(json.dumps(payload["report"], sort_keys=True).encode())


def trajectory_distances(numerals: list[int]) -> list[int | None]:
    """Each numeral's distance to the fixed numeral by ``trajectory``.

    Used outside the timed window; imports kaprekar4 from ``src``.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from kaprekar4 import to_digits, trajectory

    return [trajectory(to_digits(v, ORACLE_BASE)).distance for v in numerals]


def check_numeral_distances(payload: dict, numerals: list[int],
                            expected: list[int | None]) -> str | None:
    """None when the oracle printed the ``trajectory`` distance of every
    numeral, else the first disagreement."""
    got = payload["distances"]
    if len(got) != len(numerals):
        return f"{len(got)} distances for {len(numerals)} numerals"
    for value, dist, want in zip(numerals, got, expected):
        if dist != want:
            return f"numeral {value}: distance {dist}, trajectory gives {want}"
    return None


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class ProcessSample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes = field(repr=False)


def run_process(argv: list[str], stdin: bytes = b"", limit_s: float = 170.0) -> ProcessSample:
    """Run ``python3 argv`` to completion and measure its process tree.

    ``os.wait4`` returns the child's CPU time including every descendant it
    reaped (the pool workers) and the largest peak RSS among them.  The
    process group is killed after ``limit_s`` seconds.
    """
    with tempfile.TemporaryFile(dir=BENCH_DIR) as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            stdin=subprocess.PIPE,
            stdout=out,
            cwd=ROOT,
            env=child_env(),
            start_new_session=True,
        )
        killer = threading.Timer(limit_s, _kill_group, (proc.pid,))
        killer.start()
        try:
            try:
                proc.stdin.write(stdin)
                proc.stdin.close()
            except BrokenPipeError:
                pass  # the child exited early; its exit code tells why
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    return ProcessSample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        exit_code=proc.returncode,
        stdout=stdout,
    )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def import_time(module: str) -> float:
    """Wall time of a fresh interpreter that only imports ``module``."""
    sample = run_process(["-c", f"import {module}"], limit_s=60.0)
    if sample.exit_code != 0:
        raise RuntimeError(f"importing {module} failed with exit code {sample.exit_code}")
    return sample.wall_s


class Calibration:
    """Samples the machine's speed through the ``calibrate.py`` helper.

    On shared machines the speed drifts over minutes, and kaprekar4's runs
    drift with it.  The median kernel time over a measurement, sampled
    between its runs, tracks that drift.  ``factor`` converts seconds
    measured now into seconds on a machine where the kernel takes
    ``REFERENCE_S``.  Use it as a context manager; the helper is stopped
    and waited for on exit.
    """

    REFERENCE_S = 0.008

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "calibrate.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def __enter__(self) -> "Calibration":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def measure(self) -> None:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the calibration helper exited")
        self.samples.extend(float(x) for x in line.split())

    def factor(self) -> float:
        return self.REFERENCE_S / statistics.median(self.samples)


# ---------------------------------------------------------------------------
# Metadata
# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "kaprekar4").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_metadata() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "ram_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def write_results(name: str, payload: dict) -> Path:
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    path = results / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
