"""Timing shims around each layer's public entry points.

The shims live in the benchmark, not in ``repro``: :func:`install`
rebinds the names the design path looks up at call time and returns a
function that puts the originals back. Each shim records its call's
*self* time (duration minus the time of shimmed calls nested inside
it), so the layers of one op never overlap and their sum is exactly
the time spent inside the outermost shim.

Layer -> shimmed names (module where the caller looks them up):

* ``apps.profile`` — ``apps.calibration.quantities_from_profile``
* ``apps.fit`` — ``apps.calibration.fit_quantities`` (trace path only;
  the static path's call is part of ``static.fit``)
* ``static.fit`` — ``static.fit.fit_static``
* ``core.design`` — ``flow.design_interconnect``
* ``core.analytic`` — ``flow.AnalyticModel`` construction and its
  ``software`` / ``baseline`` / ``proposed`` methods
* ``sim.software`` / ``sim.baseline`` / ``sim.proposed`` —
  ``flow.simulate_*``
* ``hw`` — ``flow.estimate_baseline``, ``flow.estimate_system``,
  ``flow.compare_energy``
* ``flow.unattributed`` — ``service.executor.run_experiment`` (its
  self time is the flow's own work between the layers above)
* ``service.overhead`` — ``DesignService.submit_many`` (its self time
  is fingerprinting, cache, coalescing, and summary building)

Inside the server, ``submit_many`` serves a whole micro-batch, and
every request in it waits for all of it, so each record of a batch is
weighted by the batch size: the weighted totals are per-request time.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List

LAYERS = (
    "apps.profile", "apps.fit", "static.fit", "core.design",
    "core.analytic", "sim.software", "sim.baseline", "sim.proposed", "hw",
    "flow.unattributed", "service.overhead",
)
#: The layer of the outermost shim: its total is the time inside the
#: service, the quantity the layers add up to.
ROOT = "service.overhead"


class Ledger:
    """Thread-safe accumulator of per-layer self time and call counts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYERS}
        self.calls: Dict[str, int] = {name: 0 for name in LAYERS}
        #: Weighted total time inside the root shim.
        self.root_s = 0.0
        #: Requests the root shim served (sum of weights).
        self.root_requests = 0

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self, layer: str, fn: Callable[..., Any],
        weight_of: Callable[..., int] = lambda *a, **kw: 1,
    ) -> Callable[..., Any]:
        """``fn`` with its self time charged to ``layer``.

        ``weight_of`` gives a root call's weight from its arguments;
        nested calls inherit the weight of their root.
        """
        ledger = self

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack = ledger._stack()
            weight = stack[0][1] if stack else weight_of(*args, **kwargs)
            frame = [0.0, weight]  # [child seconds, weight]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with ledger._lock:
                    ledger.self_s[layer] += weight * (elapsed - frame[0])
                    ledger.calls[layer] += 1
                    if not stack:
                        ledger.root_s += weight * elapsed
                        ledger.root_requests += weight

        return timed

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "root_s": self.root_s,
                "root_requests": self.root_requests,
            }


def diff(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """What happened between two :meth:`Ledger.snapshot` results."""
    return {
        "self_s": {k: after["self_s"][k] - before["self_s"][k]
                   for k in LAYERS},
        "calls": {k: after["calls"][k] - before["calls"][k] for k in LAYERS},
        "root_s": after["root_s"] - before["root_s"],
        "root_requests": after["root_requests"] - before["root_requests"],
    }


def install(ledger: Ledger) -> Callable[[], None]:
    """Install the shims; returns the function that removes them."""
    from repro import flow
    from repro.apps import calibration
    from repro.service import executor
    from repro.service.api import DesignService
    from repro.static import fit as static_fit

    saved: List[tuple] = []

    def patch(owner: Any, name: str, layer: str, **kw: Any) -> None:
        original = getattr(owner, name)
        saved.append((owner, name, original))
        setattr(owner, name, ledger.wrap(layer, original, **kw))

    patch(calibration, "quantities_from_profile", "apps.profile")
    patch(calibration, "fit_quantities", "apps.fit")
    patch(static_fit, "fit_static", "static.fit")
    patch(flow, "design_interconnect", "core.design")
    for name in ("simulate_software", "simulate_baseline", "simulate_proposed"):
        patch(flow, name, "sim." + name[len("simulate_"):])
    for name in ("estimate_baseline", "estimate_system", "compare_energy"):
        patch(flow, name, "hw")
    patch(executor, "run_experiment", "flow.unattributed")
    patch(DesignService, "submit_many", ROOT,
          weight_of=lambda self, jobs, *a, **kw: len(jobs))

    base = flow.AnalyticModel

    class TimedAnalyticModel(base):  # type: ignore[misc, valid-type]
        __init__ = ledger.wrap("core.analytic", base.__init__)
        software = ledger.wrap("core.analytic", base.software)
        baseline = ledger.wrap("core.analytic", base.baseline)
        proposed = ledger.wrap("core.analytic", base.proposed)

    saved.append((flow, "AnalyticModel", base))
    flow.AnalyticModel = TimedAnalyticModel

    def uninstall() -> None:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)

    return uninstall
