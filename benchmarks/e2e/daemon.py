"""One serving daemon as a subprocess: ``python -m repro serve``.

The daemon listens on a Unix socket and keeps its artifact store in a
fresh directory under the run root; both are given as paths relative to
the checkout, which is also the daemon's working directory, so the socket
path stays short however deep the checkout lives.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List

from common import ROOT, SRC, fresh_dir, pss_kb, reap_exited, relative

#: Worker processes per daemon: one per core of the two-core machine the
#: benchmark is sized for.
WORKERS = 2
#: Seconds a daemon may take to build and start listening.
_START_TIMEOUT_S = 120.0
_STOP_TIMEOUT_S = 30.0
#: Seconds a killed process may take to be gone before the wait gives up.
_KILL_GRACE_S = 5.0


class Daemon:
    """A running ``repro serve`` process and its run directory."""

    def __init__(self, workload, tag: str) -> None:
        self.run_dir = fresh_dir(f"{workload.name}-{tag}-{os.getpid()}")
        self.socket = relative(self.run_dir / "d.sock")
        self.store_dir = self.run_dir / "store"
        self._log = open(self.run_dir / "daemon.log", "wb")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        command = [
            sys.executable, "-m", "repro", "serve",
            *workload.serve_args(),
            "--workers", str(WORKERS),
            "--socket", self.socket,
            "--store-dir", relative(self.store_dir),
        ]
        #: Shared-memory segments seen mapped by the daemon's processes.
        self.segments: set = set()
        self.started = time.perf_counter()
        # Its own session, so a kill reaches the forked workers as well.
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
        )

    @property
    def address(self):
        return ("unix", self.socket)

    def wait_ready(self) -> None:
        """Block until the daemon prints its listening line."""
        import selectors

        selector = selectors.DefaultSelector()
        selector.register(self.process.stdout, selectors.EVENT_READ)
        deadline = time.monotonic() + _START_TIMEOUT_S
        try:
            while time.monotonic() < deadline:
                if selector.select(timeout=0.5):
                    line = self.process.stdout.readline().decode("utf-8", "replace")
                    if line.startswith("serving on"):
                        return
                    if not line:
                        break
                elif self.process.poll() is not None:
                    break
        finally:
            selector.close()
        self.kill()
        raise RuntimeError(
            f"daemon did not start; log: {self.run_dir / 'daemon.log'}"
        )

    def client(self, timeout: float = 60.0):
        from repro.serving.client import ServingClient

        return ServingClient(self.address, timeout=timeout)

    def info(self) -> Dict[str, Any]:
        with self.client() as client:
            return client.info()

    def worker_pids(self) -> List[int]:
        return [int(row["pid"]) for row in self.info()["workers"]]

    def note_segments(self) -> None:
        """Remember the segments the daemon's processes map right now."""
        for pid in [self.process.pid, *self._children()]:
            try:
                with open(f"/proc/{pid}/maps", "r", encoding="ascii") as handle:
                    for line in handle:
                        path = line.rstrip("\n").rsplit(" ", 1)[-1]
                        if path.startswith("/dev/shm/psm_"):
                            self.segments.add(path[len("/dev/shm/"):])
            except OSError:
                pass

    def _children(self) -> List[int]:
        try:
            with open(f"/proc/{self.process.pid}/task/{self.process.pid}/children") as handle:
                return [int(pid) for pid in handle.read().split()]
        except OSError:
            return []

    def pss_kb(self) -> Dict[str, int]:
        """``Pss`` of the server process and of each worker."""
        return {
            "server": pss_kb(self.process.pid),
            "workers": [pss_kb(pid) for pid in self.worker_pids()],
        }

    def stop(self) -> int:
        """Shut down through the protocol; returns the exit code."""
        self.note_segments()
        try:
            with self.client(timeout=10.0) as client:
                client.shutdown()
        except OSError:
            pass
        try:
            code = self.process.wait(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            return -9
        self._drain(_STOP_TIMEOUT_S)
        self._close()
        return code

    def kill(self) -> None:
        """SIGKILL the daemon and its workers; unlink what they published."""
        self.note_segments()
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self._drain(0.0)
        self._close()
        for name in self.leftover_segments():
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except FileNotFoundError:
                pass

    def _drain(self, timeout: float) -> None:
        """Wait until no process of the daemon's session is left -- its
        resource tracker ends a moment after the daemon -- and kill what
        is still there after ``timeout`` seconds."""
        group = self.process.pid
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline + _KILL_GRACE_S:
            reap_exited(group)
            late = time.monotonic() >= deadline
            try:
                os.killpg(group, signal.SIGKILL if late else 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)

    def _close(self) -> None:
        self.process.stdout.close()
        self._log.close()

    def leftover_segments(self) -> List[str]:
        """Segments the daemon mapped that still exist after it ended."""
        return sorted(name for name in self.segments if os.path.exists(f"/dev/shm/{name}"))

    def remove_run_dir(self) -> None:
        import shutil

        shutil.rmtree(self.run_dir, ignore_errors=True)


def cold_start(workload, tag: str, first_query, check) -> "tuple[Daemon, float]":
    """Spawn a daemon on an empty store and time it to its first correct
    answer; ``check(query, response)`` raises on a wrong one."""
    daemon = Daemon(workload, tag)
    try:
        daemon.wait_ready()
        method, source, target, offset = first_query
        with daemon.client() as client:
            response = client.query(method, source, target, tune_in_offset=offset)
        elapsed = time.perf_counter() - daemon.started
        check(first_query, response)
    except BaseException:
        daemon.kill()
        raise
    return daemon, elapsed
