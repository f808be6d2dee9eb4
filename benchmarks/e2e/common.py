"""Paths, run directories and the small statistics the benchmark reports.

The benchmark keeps its own percentile and median helpers instead of
importing the program's, so a change to the program cannot change how the
benchmark summarises it.
"""

from __future__ import annotations

import math
import os
import pathlib
import shutil
import signal
import sys
import time
from typing import Dict, Iterable, List, Sequence

HERE = pathlib.Path(__file__).resolve().parent
#: Root of the checkout: ``benchmarks/e2e`` sits two levels below it.
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space for stores, sockets, results and traces (git-ignored).
RUN_ROOT = ROOT / ".e2e_run"
#: ``prctl`` option that makes a process the reaper of its orphaned
#: descendants (linux/prctl.h).
_PR_SET_CHILD_SUBREAPER = 36


def require_source_tree() -> None:
    """Put ``src/`` on the import path, or exit 2 when it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e benchmark: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def adopt_orphans() -> bool:
    """Become the reaper of every process this one starts, directly or not.

    A process whose parent ends first -- a daemon's shared-memory resource
    tracker outlives the daemon by a moment -- is then re-parented here
    instead of to init, so :func:`stop_children` and the daemon's own stop
    can wait for it.  Returns whether the call was allowed.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def reap_exited(group: int = -1) -> None:
    """Collect every child that has ended, or only those of process group
    ``group`` when it is given."""
    try:
        while os.waitpid(-group if group > 0 else -1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


def children() -> List[int]:
    """Pids of this process's live and unreaped children."""
    pids: List[int] = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children", "r", encoding="ascii") as handle:
                pids += [int(pid) for pid in handle.read().split()]
        except OSError:
            pass
    return pids


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    The shared-memory resource tracker that ``multiprocessing`` starts for
    this process is told to stop first; left alone it ends only once it
    sees this process exit, so it would outlive the run.  Whatever else is
    still running after ``timeout`` seconds is killed, and waited for five
    seconds more.
    """
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()  # type: ignore[attr-defined]
    except (AttributeError, ChildProcessError, OSError):
        pass
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline + 5.0:
        reap_exited()
        alive = children()
        if not alive:
            return
        if time.monotonic() >= deadline:
            for pid in alive:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def fresh_dir(name: str) -> pathlib.Path:
    """An empty directory under the run root (relative names keep the
    daemon's Unix socket path short wherever the checkout lives)."""
    path = RUN_ROOT / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def relative(path: pathlib.Path) -> str:
    return os.path.relpath(path, ROOT)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return float(ordered[min(rank, len(ordered)) - 1])


def median(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[middle])
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def geometric_mean(values: Sequence[float]) -> float:
    return math.exp(mean(math.log(value) for value in values)) if values else 0.0


def pss_kb(pid: int) -> int:
    """Proportional set size of one process's data, from ``smaps_rollup``:
    its anonymous and shared-memory pages.

    File-backed pages -- the interpreter's and the libraries' code -- are
    left out: their share depends on how many processes on the host map the
    same files, and how the page cache holds them, which moved a daemon's
    total by 8 MB per process between runs of the same code.
    """
    fields = {}
    with open(f"/proc/{pid}/smaps_rollup", "r", encoding="ascii") as handle:
        for line in handle:
            name, _, rest = line.partition(":")
            fields[name] = rest
    try:
        return int(fields["Pss_Anon"].split()[0]) + int(fields["Pss_Shmem"].split()[0])
    except KeyError:
        raise RuntimeError(f"no Pss_Anon/Pss_Shmem lines for pid {pid}") from None


def shm_names() -> List[str]:
    """Names of the POSIX shared-memory segments the program publishes."""
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith("psm_"))
    except FileNotFoundError:
        return []


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
