"""Server lifecycle: event loop, signals, and in-thread embedding.

Two ways to run a :class:`~repro.server.app.DesignServer`:

* :func:`serve` — the ``repro serve`` CLI path. Owns the event loop,
  installs SIGTERM/SIGINT handlers, blocks until a signal arrives, then
  drains gracefully (stop accepting → finish in-flight → close the
  service, reaping its process pool).
* :func:`start_in_thread` — embeds the whole stack in a background
  thread with its own loop, returning a :class:`ServerHandle` whose
  ``url`` is immediately usable and whose ``stop()`` performs the same
  graceful drain. Tests, the smoke driver, and in-process load tests
  use this; it is also the reference for "how do I run this behind my
  own supervisor".
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
from typing import Callable, Optional

from ..errors import ServerError
from ..obs.runtime.events import EventLog
from ..obs.trace import Tracer
from ..service.api import DesignService
from ..service.metrics import MetricsRegistry
from .app import DesignServer, ServerConfig


def build_service(config: ServerConfig) -> DesignService:
    """The service a standalone server wraps, per the config knobs."""
    return DesignService(jobs=config.jobs, cache_dir=config.cache_dir)


async def run_server(
    config: ServerConfig,
    service: Optional[DesignService] = None,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    events: Optional[EventLog] = None,
    stop: Optional[asyncio.Event] = None,
    install_signals: bool = False,
    ready: Optional[Callable[[DesignServer], None]] = None,
) -> bool:
    """Start, wait for ``stop`` (or a signal), drain, close.

    Returns whether the drain completed inside its budget. The service
    is closed on exit only if this function created it.
    """
    own_service = service is None
    if service is None:
        service = build_service(config)
    server = DesignServer(
        service, config=config, registry=registry, tracer=tracer,
        events=events,
    )
    stop_event = stop if stop is not None else asyncio.Event()
    await server.start()
    loop = asyncio.get_running_loop()
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, stop_event.set)
        # SIGQUIT is the operator's "explain yourself" signal (the JVM
        # thread-dump convention): write a flight report and keep
        # serving. The handler only schedules the dump; the write runs
        # on the default executor so the loop never blocks on disk.
        def _sigquit_dump() -> None:
            loop.run_in_executor(None, server.flight_dump, "sigquit")

        with contextlib.suppress(NotImplementedError, ValueError):
            loop.add_signal_handler(signal.SIGQUIT, _sigquit_dump)
    try:
        if ready is not None:
            ready(server)
        await stop_event.wait()
        return await server.drain()
    except asyncio.CancelledError:
        raise
    except BaseException as exc:
        # Crash path: capture the process state *before* unwinding so
        # the post-mortem shows what every thread was doing.
        with contextlib.suppress(Exception):
            server.flight_dump(f"crash:{type(exc).__name__}")
        raise
    finally:
        if install_signals:
            signums = (signal.SIGTERM, signal.SIGINT, signal.SIGQUIT)
            for signum in signums:
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.remove_signal_handler(signum)
        if own_service:
            service.close()


def serve(
    config: ServerConfig,
    ready: Optional[Callable[[DesignServer], None]] = None,
) -> int:
    """Blocking entry point for ``repro serve``; returns an exit code."""
    drained = asyncio.run(
        run_server(config, install_signals=True, ready=ready)
    )
    return 0 if drained else 1


class ServerHandle:
    """A server running in a daemon thread, stoppable from the outside."""

    def __init__(
        self,
        config: ServerConfig,
        service: Optional[DesignService] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        events: Optional[EventLog] = None,
    ) -> None:
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self.server: Optional[DesignServer] = None
        self.drained: Optional[bool] = None
        self.error: Optional[BaseException] = None

        def _main() -> None:
            async def _run() -> None:
                self._loop = asyncio.get_running_loop()
                self._stop_event = asyncio.Event()

                def _on_ready(server: DesignServer) -> None:
                    self.server = server
                    self._ready.set()

                self.drained = await run_server(
                    config,
                    service=service,
                    registry=registry,
                    tracer=tracer,
                    events=events,
                    stop=self._stop_event,
                    ready=_on_ready,
                )

            try:
                asyncio.run(_run())
            except BaseException as exc:  # surfaced by url/stop below
                self.error = exc
            finally:
                self._ready.set()
                self._stopped.set()

        self._thread = threading.Thread(
            target=_main, name="repro-server", daemon=True
        )
        self._thread.start()

    @property
    def url(self) -> str:
        """Base URL once the server is listening (blocks until then)."""
        self._ready.wait(timeout=30.0)
        if self.server is None:
            raise ServerError(
                f"server failed to start: {self.error!r}"
            ) from self.error
        return self.server.url

    @property
    def port(self) -> int:
        self._ready.wait(timeout=30.0)
        if self.server is None:
            raise ServerError(
                f"server failed to start: {self.error!r}"
            ) from self.error
        return self.server.port

    def stop(self, timeout_s: float = 30.0) -> Optional[bool]:
        """Signal the loop to drain and join the thread.

        Returns the drain verdict (``None`` if the thread never ran a
        drain, e.g. startup failed). Safe to call repeatedly.
        """
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None:
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(stop_event.set)
        self._stopped.wait(timeout=timeout_s)
        self._thread.join(timeout=timeout_s)
        return self.drained

    def __enter__(self) -> "ServerHandle":
        self.url  # block until listening (or raise the startup error)
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def start_in_thread(
    config: ServerConfig,
    service: Optional[DesignService] = None,
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
    events: Optional[EventLog] = None,
) -> ServerHandle:
    """Run a server in a background thread; see :class:`ServerHandle`."""
    return ServerHandle(
        config, service=service, registry=registry, tracer=tracer,
        events=events,
    )
