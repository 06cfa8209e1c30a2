"""Shared plumbing for the benchmark: paths, child processes, statistics, output.

The benchmark runs from the root of a source checkout.  The program under
test is the ``repro`` package in ``src/``; every child process gets that
directory on ``PYTHONPATH`` and nothing else of the benchmark's.
"""

from __future__ import annotations

import atexit
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for netlists, CSVs, sockets and span dumps.  It lives in
#: the checkout (the benchmark writes nowhere else) and is removed when
#: a run ends.
TMP_ROOT = ROOT / ".perfbench_tmp"

#: Hard ceiling for any one child process; a run must end within 180 s.
CHILD_TIMEOUT_S = 150.0


class CheckFailed(Exception):
    """An output check or a benchmark invariant did not hold."""


def program_available() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def use_program_in_process() -> None:
    """Make ``import repro`` resolve to the checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # One BLAS thread per process: the host has few cores and the
    # benchmark must not let library thread pools fight the workload.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    return env


def compile_program() -> None:
    """Byte-compile ``src/`` once so no timed child pays the compile."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        check=True, env=program_env(), cwd=ROOT,
        stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
    )


@contextmanager
def workdir():
    """A private scratch directory under :data:`TMP_ROOT`, removed on exit."""
    path = TMP_ROOT / f"run{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still owns a directory there


class ChildResult:
    __slots__ = ("returncode", "wall_s", "cpu_s", "maxrss_mb", "stderr")

    def __init__(self, returncode, wall_s, cpu_s, maxrss_mb, stderr):
        self.returncode = returncode
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.maxrss_mb = maxrss_mb
        self.stderr = stderr


def run_child(argv, stderr_path: Path, stdout=subprocess.DEVNULL,
              timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one child to completion; wall time and its own CPU time and peak RSS."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=err,
                                env=program_env(), cwd=ROOT)
        returncode, cpu_s, maxrss_mb = wait_child(proc, timeout)
        wall = time.perf_counter() - start
    return ChildResult(returncode, wall, cpu_s, maxrss_mb,
                       stderr_path.read_text(errors="replace"))


def wait_child(proc, timeout: float) -> tuple[int, float, float]:
    """Wait for ``proc`` (killed after ``timeout`` s); its exit code, CPU s and peak RSS MB.

    ``os.wait4`` returns the resource usage of exactly this child, so the
    figures are the program's, not the benchmark's.
    """
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def process_cpu_s(pid: int) -> float:
    """CPU seconds a live process has used so far, its reaped children included.

    Read from ``/proc/<pid>/stat`` (Linux): user and system time of all its
    threads, plus those of the children it has waited for.
    """
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        # The command name (field 2) may hold spaces; the fields after it
        # start at "state", so utime..cstime are 11..14 counted from there.
        fields = handle.read().rsplit(")", 1)[1].split()
    return sum(int(value) for value in fields[11:15]) / os.sysconf("SC_CLK_TCK")


def child_argv(script: str, *args: str) -> list[str]:
    """argv for one of the benchmark's own helper scripts."""
    return [sys.executable, str(BENCH_DIR / script), *args]


def repro_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


# ------------------------------------------------------- host speed

#: CPU seconds the calibration kernel takes at the reference host speed.
#: On the shared 2-vCPU VM the benchmark was built on (Intel Xeon, 2.1 GHz)
#: the CPU time of fixed work swung by up to 1.6x from one minute to the
#: next as other tenants came and went; the kernel took 0.017-0.027 s.
CALIBRATION_REF_S = 0.025

#: The calibration process: it runs a fixed kernel once per line on stdin
#: and answers with the kernel's CPU seconds.  The kernel mixes the two
#: kinds of work the program does, dict churn in pure Python and
#: elementwise NumPy passes that allocate their results.
CALIBRATOR = """
import sys, time
import numpy as np
base = np.linspace(0.0, 1.0, 200_000)

def kernel():
    start = time.process_time()
    counts = {}
    for i in range(60_000):
        counts[i % 977] = counts.get(i % 977, 0) + i
    sorted(counts.values())
    x = base
    for _ in range(20):
        x = np.sqrt(x * 1.0001 + 0.5)
    return time.process_time() - start

kernel()  # warm-up, not reported
for _ in sys.stdin:
    print(kernel(), flush=True)
"""

_calibrator = None


def calibration_s() -> float:
    """CPU seconds of one run of the calibration kernel.

    cold_cli and whatif_chain run it before every set-up and every op,
    never concurrently with them, and their gated CPU figures are scaled
    by ``CALIBRATION_REF_S / median(kernel times)``
    (:meth:`PassResult.host_speed`): a slow phase of the host slows the
    kernel and the program alike and cancels out.  serve_mix is not
    scaled (see :mod:`wl_serve`).  The kernel runs in a process of its
    own, started on first use and ended by :func:`stop_calibrator`, so its
    memory state is the same in every run whatever the measuring process
    holds.
    """
    global _calibrator
    if _calibrator is None:
        _calibrator = subprocess.Popen(
            [sys.executable, "-c", CALIBRATOR], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, cwd=ROOT, env=program_env())
        atexit.register(stop_calibrator)
    _calibrator.stdin.write("\n")
    _calibrator.stdin.flush()
    return float(_calibrator.stdout.readline())


def stop_calibrator() -> None:
    """End the calibration process, if one runs, and wait for it."""
    global _calibrator
    if _calibrator is not None:
        proc, _calibrator = _calibrator, None
        proc.stdin.close()
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


# ------------------------------------------------------------- statistics


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value)`` or ``None`` below eleven samples.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    index = n - 11
    return 100.0 * (index + 1) / n, ordered[index]


# ----------------------------------------------------------------- output


def emit(result: dict, lines: list[str]) -> None:
    """Human-readable lines, then the one-line JSON result, last on stdout."""
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    sys.stdout.flush()


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class PassResult:
    """What one measured pass of a workload produced."""

    def __init__(self):
        #: Per set-up: wall seconds, and CPU seconds of the program.
        self.setup_wall_s: list[float] = []
        self.setup_cpu_s: list[float] = []
        #: Per latency sample: wall seconds as the caller sees them, and
        #: CPU seconds the program spent (where known).
        self.latencies_s: list[float] = []
        self.cpu_s: list[float] = []
        #: :func:`calibration_s` samples taken between measured pieces, or
        #: None for a workload whose CPU figures are not scaled.
        self.calibration_s: list[float] | None = None
        self.loop_wall_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        #: Op stream -> one tuple of counts per op, in op order (the
        #: determinism check compares two passes stream by stream).
        self.counts: dict[str, list[tuple]] = {}
        #: Span dumps of every traced process (empty when untraced).
        self.dumps: list[dict] = []
        self.lines: list[str] = []
        self.extra: dict = {}

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def host_speed(self) -> float:
        """How fast the host ran the calibration kernel, relative to the reference.

        1.0 for a workload that takes no calibration samples.
        """
        if self.calibration_s is None:
            return 1.0
        if not self.calibration_s:
            raise CheckFailed("the pass took no calibration samples")
        return CALIBRATION_REF_S / median(self.calibration_s)

    def end_to_end(self) -> dict:
        """The gated metrics: CPU time at the reference host speed, and memory."""
        speed = self.host_speed()
        return {
            "setup_s": median(self.setup_cpu_s) * speed,
            "op_cpu_ms": 1000.0 * median(self.cpu_s) * speed,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def raw_cpu(self) -> dict:
        """The CPU figures as measured, before scaling to the reference speed."""
        return {
            "setup_raw_s": median(self.setup_cpu_s),
            "op_cpu_raw_ms": 1000.0 * median(self.cpu_s),
            "host_speed": self.host_speed(),
        }

    def wall_clock(self) -> dict:
        """Printed, not gated: wall time swings with the host (see run.py)."""
        return {
            "setup_wall_s": median(self.setup_wall_s),
            "op_p50_ms": 1000.0 * median(self.latencies_s),
            "ops_per_s": self.completed / self.loop_wall_s if self.loop_wall_s else 0.0,
        }


def load_dump(path: Path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
