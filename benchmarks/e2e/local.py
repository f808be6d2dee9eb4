"""The daemon's own code, run in the benchmark process.

:class:`LocalServer` is an :class:`~repro.serving.server.AirServer` with no
sockets and no worker processes, plus one
:class:`~repro.serving.worker.WorkerRuntime` on its segment.  It publishes
through the server's ``_publish_segment``, refreshes through the server's
``_refresh`` handler and answers through the worker's ``handle``, so it
does what one daemon and one of its workers do per request and per
refresh, with no process boundary in the way.  The untraced run times
requests and refreshes on it, where the host's noise lets them repeat,
and the traced run replays the same calls under spans.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Sequence, Tuple

from measure import serve_config


class LocalServer:
    """One daemon and one of its workers, in this process."""

    def __init__(self, workload, store_dir) -> None:
        from repro.engine.system import AirSystem
        from repro.serving.server import AirServer
        from repro.serving.worker import WorkerRuntime
        from repro.store import ArtifactStore

        config = serve_config(workload, store_dir)
        self.server = AirServer(config)
        self.runtime = None
        # What ``AirServer.start`` does before it spawns workers and listens.
        self.server.system = AirSystem.from_config(
            config.experiment_config(), store=ArtifactStore(store_dir)
        )
        try:
            self.server.segment = self.server._publish_segment()
            self.runtime = WorkerRuntime(0, config=config.experiment_config())
            self.runtime.load_segment(self.server.segment.name)
        except BaseException:
            self.close()
            raise

    @property
    def system(self):
        """The server's own system: built directly, never from a segment."""
        return self.server.system

    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return self.runtime.handle(request)

    def refresh(self, batch: Sequence[Tuple[int, int, float]]) -> Dict[str, Any]:
        """One refresh through the server's handler, then the worker swap."""
        reply = asyncio.run(self._refresh(batch))
        if reply.get("degraded"):
            raise RuntimeError(f"local refresh degraded: {reply.get('error')}")
        self.runtime.load_segment(self.server.segment.name)
        return reply

    async def _refresh(self, batch) -> Dict[str, Any]:
        if self.server._admin_lock is None:
            self.server._admin_lock = asyncio.Lock()
        return await self.server._refresh({"updates": [list(update) for update in batch]})

    def close(self) -> None:
        """Release the worker's mapping and the last segment (the handler
        unlinked every older one)."""
        if self.runtime is not None:
            self.runtime.shutdown()
        if self.server.segment is not None:
            self.server.segment.unlink()
            self.server.segment.close()
            self.server.segment = None
