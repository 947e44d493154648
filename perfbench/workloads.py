"""Seeded op generators for the three benchmark workloads.

Every workload draws its ops from a finite, enumerable *universe* of
design jobs, so that every op has a committed reference result in
``refs.txt`` (see ``refs.py``). The run seed only chooses which
universe members are used and in what order; the *composition* of a
mix block is fixed, so runs with different seeds do the same kind of
work and their timings are comparable.

* ``sweep-trace`` — traced-graph sweep points with simulation. A block
  holds, for every (app, scale) class, ``TRIPLES_PER_BLOCK[scale]``
  fresh (app, scale, seed) triples, each crossed with all
  ``SWEEP_PARAMS`` variants. Scale-1 classes get two triples per block
  and scale-2 classes one, which puts the p50 between fluid@1 and
  canny@2 (about 20 ms each) instead of on the 21 → 33 ms gap that
  equal weights would give.
* ``static-sim`` — static-graph points at scales 2 and 3. A block holds
  every (app, scale, params) combination once, each with a fresh seed;
  the seed changes the fingerprint, not the result.
* ``served-mix`` — for each of two clients, blocks of ``HOT_PER_BLOCK``
  cache hits on its own hot set plus ``MISSES_PER_BLOCK`` cold misses
  with distinct params. The two hot sets are disjoint and no miss
  repeats, so every op is exactly one cache lookup on the server and
  the designed hit/miss counts must equal the server's counters.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.service.jobs import DesignJob
from repro.sim.systems import SystemParams

WORKLOADS = ("sweep-trace", "static-sim", "served-mix")

APPS = ("canny", "jpeg", "klt", "fluid")

# -- sweep-trace -------------------------------------------------------------
#: Bus width, NoC link width and transport variants of one sweep point.
SWEEP_PARAMS = (
    SystemParams(),
    SystemParams(bus_width_bytes=4),
    SystemParams(noc_link_width_bytes=8),
    SystemParams(noc_transport="wormhole"),
)
SWEEP_SCALES = (1, 2)
TRIPLES_PER_BLOCK = {1: 2, 2: 1}
#: Blocks in one pass over the universe; a 50 s run uses about 45.
SWEEP_BLOCKS = 144

# -- static-sim --------------------------------------------------------------
STATIC_APPS = ("canny", "klt", "fluid")
STATIC_SCALES = (2, 3)
#: Variants that take different simulation paths.
STATIC_PARAMS = (
    SystemParams(),
    SystemParams(noc_transport="wormhole"),
    SystemParams(noc_qos=True),
    SystemParams(dma_setup_cycles=200),
)
#: Blocks in one pass over the universe; a 50 s run uses about 75.
STATIC_BLOCKS = 96

# -- served-mix --------------------------------------------------------------
CLIENTS = 2
HOT_PER_CLIENT = 12
HOT_PER_BLOCK = 8
MISSES_PER_BLOCK = 2
#: Hot candidates: every app at scale 1 under these params and seeds.
HOT_PARAMS = (
    SystemParams(),
    SystemParams(bus_width_bytes=4),
    SystemParams(bus_width_bytes=16),
    SystemParams(noc_link_width_bytes=8),
    SystemParams(noc_transport="wormhole"),
    SystemParams(noc_qos=True),
    SystemParams(dma_setup_cycles=20),
    SystemParams(dma_setup_cycles=80),
)
HOT_SEEDS = (0, 1, 2, 3)
#: Misses: every app at scale 1, seed 0, over a grid of distinct params.
MISS_BUS_WIDTHS = (4, 8, 16)
MISS_LINK_WIDTHS = (4, 8)
MISS_TRANSPORTS = ("store_forward", "wormhole")
MISS_QOS = (False, True)
MISS_DMA_SETUP = tuple(range(100, 196))

#: Seed of the jobs that warm code paths before timing; outside every
#: universe, so warm-up never pre-computes a timed op.
WARMUP_SEED = 999_999


@dataclass(frozen=True)
class Op:
    """One design request of a workload."""

    job: DesignJob
    #: ``"hit"`` or ``"miss"`` in served-mix, ``"miss"`` elsewhere.
    kind: str = "miss"


def _sweep_job(app: str, scale: int, seed: int, params: SystemParams) -> DesignJob:
    return DesignJob(app=app, scale=scale, seed=seed, params=params,
                     simulate=True, graph_source="trace")


def _static_job(app: str, scale: int, seed: int, params: SystemParams) -> DesignJob:
    return DesignJob(app=app, scale=scale, seed=seed, params=params,
                     simulate=True, graph_source="static")


def _sweep_seeds(app: str, scale: int) -> List[int]:
    """Seeds of one class's triples; distinct across classes too."""
    base = 10_000 * (APPS.index(app) + 1) + 1_000 * scale
    return [base + k for k in range(TRIPLES_PER_BLOCK[scale] * SWEEP_BLOCKS)]


def _miss_params() -> List[SystemParams]:
    return [
        SystemParams(bus_width_bytes=bw, noc_link_width_bytes=lw,
                     noc_transport=tr, noc_qos=qos, dma_setup_cycles=dma)
        for bw, lw, tr, qos, dma in itertools.product(
            MISS_BUS_WIDTHS, MISS_LINK_WIDTHS, MISS_TRANSPORTS, MISS_QOS,
            MISS_DMA_SETUP,
        )
    ]


def universe(workload: str) -> List[DesignJob]:
    """Every job the workload can ever request, in a fixed order."""
    if workload == "sweep-trace":
        return [
            _sweep_job(app, scale, seed, params)
            for app in APPS for scale in SWEEP_SCALES
            for seed in _sweep_seeds(app, scale) for params in SWEEP_PARAMS
        ]
    if workload == "static-sim":
        return [
            _static_job(app, scale, seed, params)
            for app in STATIC_APPS for scale in STATIC_SCALES
            for params in STATIC_PARAMS for seed in range(STATIC_BLOCKS)
        ]
    if workload == "served-mix":
        hot = [
            _static_job(app, 1, seed, params)
            for app in APPS for params in HOT_PARAMS for seed in HOT_SEEDS
        ]
        misses = [
            _static_job(app, 1, 0, params)
            for params in _miss_params() for app in APPS
        ]
        return hot + misses
    raise ValueError(f"unknown workload {workload!r}")


def warmup_jobs(workload: str) -> List[DesignJob]:
    """One job per class of the workload, outside its universe."""
    if workload == "sweep-trace":
        return [_sweep_job(app, scale, WARMUP_SEED, SWEEP_PARAMS[0])
                for app in APPS for scale in SWEEP_SCALES]
    if workload == "static-sim":
        return [_static_job(app, scale, WARMUP_SEED, params)
                for app in STATIC_APPS for scale in STATIC_SCALES
                for params in STATIC_PARAMS]
    return [_static_job(app, 1, WARMUP_SEED, params)
            for app in APPS for params in HOT_PARAMS[:2]]


def _rng(workload: str, seed: int, tag: str = "") -> random.Random:
    return random.Random(f"{workload}:{seed}:{tag}")


def sweep_blocks(seed: int) -> Iterator[List[Op]]:
    """Endless ``sweep-trace`` blocks; each pass over the universe is
    one epoch of ``SWEEP_BLOCKS`` blocks (a new epoch repeats
    fingerprints, so the caller starts a fresh service for it)."""
    for epoch in itertools.count():
        rng = _rng("sweep-trace", seed, f"epoch{epoch}")
        seeds: Dict[Tuple[str, int], List[int]] = {}
        for app in APPS:
            for scale in SWEEP_SCALES:
                pool = _sweep_seeds(app, scale)
                rng.shuffle(pool)
                seeds[(app, scale)] = pool
        for b in range(SWEEP_BLOCKS):
            block = []
            for (app, scale), pool in seeds.items():
                n = TRIPLES_PER_BLOCK[scale]
                for s in pool[b * n:(b + 1) * n]:
                    block.extend(Op(_sweep_job(app, scale, s, p))
                                 for p in SWEEP_PARAMS)
            rng.shuffle(block)
            yield block


def static_blocks(seed: int) -> Iterator[List[Op]]:
    """Endless ``static-sim`` blocks in epochs of ``STATIC_BLOCKS``."""
    classes = [(app, scale, params) for app in STATIC_APPS
               for scale in STATIC_SCALES for params in STATIC_PARAMS]
    for epoch in itertools.count():
        rng = _rng("static-sim", seed, f"epoch{epoch}")
        seeds = {c: rng.sample(range(STATIC_BLOCKS), STATIC_BLOCKS)
                 for c in classes}
        for b in range(STATIC_BLOCKS):
            block = [Op(_static_job(app, scale, seeds[(app, scale, params)][b],
                                    params))
                     for app, scale, params in classes]
            rng.shuffle(block)
            yield block


def epoch_blocks(workload: str) -> int:
    """Blocks in one epoch of an in-process workload."""
    return SWEEP_BLOCKS if workload == "sweep-trace" else STATIC_BLOCKS


def in_process_blocks(workload: str, seed: int) -> Iterator[List[Op]]:
    if workload == "sweep-trace":
        return sweep_blocks(seed)
    if workload == "static-sim":
        return static_blocks(seed)
    raise ValueError(f"{workload!r} is not an in-process workload")


@dataclass
class ServedPlan:
    """The hot sets and per-client miss streams of one served-mix run."""

    hot: List[List[DesignJob]]
    misses: List[List[DesignJob]]
    seed: int

    def blocks(self, client: int) -> Iterator[List[Op]]:
        """Blocks of one client; ends when its misses run out."""
        rng = _rng("served-mix", self.seed, f"client{client}")
        hot = itertools.cycle(self.hot[client])
        misses = iter(self.misses[client])
        while True:
            chunk = list(itertools.islice(misses, MISSES_PER_BLOCK))
            if len(chunk) < MISSES_PER_BLOCK:
                return
            block = [Op(next(hot), "hit") for _ in range(HOT_PER_BLOCK)]
            block += [Op(job, "miss") for job in chunk]
            rng.shuffle(block)
            yield block

    def warm_jobs(self) -> List[DesignJob]:
        return [job for hot in self.hot for job in hot]


def served_plan(seed: int) -> ServedPlan:
    """Split the served-mix universe between the clients for ``seed``."""
    jobs = universe("served-mix")
    n_hot = len(APPS) * len(HOT_PARAMS) * len(HOT_SEEDS)
    hot_pool, miss_pool = jobs[:n_hot], jobs[n_hot:]
    rng = _rng("served-mix", seed, "plan")
    hot = rng.sample(hot_pool, CLIENTS * HOT_PER_CLIENT)
    miss_pool = list(miss_pool)
    rng.shuffle(miss_pool)
    return ServedPlan(
        hot=[hot[c::CLIENTS] for c in range(CLIENTS)],
        misses=[miss_pool[c::CLIENTS] for c in range(CLIENTS)],
        seed=seed,
    )


def sequence_digest(workload: str, seed: int, n_blocks: int = 8) -> str:
    """SHA-256 over the fingerprints of a run's first ``n_blocks``."""
    h = hashlib.sha256()
    if workload == "served-mix":
        plan = served_plan(seed)
        streams: Sequence[Iterator[List[Op]]] = [
            plan.blocks(c) for c in range(CLIENTS)
        ]
    else:
        streams = [in_process_blocks(workload, seed)]
    for stream in streams:
        for block in itertools.islice(stream, n_blocks):
            for op in block:
                h.update(f"{op.kind}:{op.job.fingerprint()}\n".encode())
    return h.hexdigest()
