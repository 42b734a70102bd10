"""Seeded input generators for the three benchmark workloads.

Every input a workload feeds the program is derived here from the
``--seed`` argument and nothing else, so the same seed always yields
the same inputs.  The generators return plain data (dicts, floats and
one numpy array); turning them into ``repro`` objects is the
workload's job, so these functions stay importable and testable
without the program under test.

Workload shapes (why each was chosen is recorded in BENCHMARK.json
and README.md):

* ``paper-sweep`` -- a sample of the paper's axes in two parts.  The
  axes that set a point's cost -- implementation, IR pipeline,
  machine, node count and CA step count -- follow one fixed balanced
  design, the same for every seed; the seed draws the tile, the kernel
  ratio and the order of the points.  Grid extents are derived from the
  tile so every point has about the same task count.  Without both,
  which points the seed happens to pick would decide the sweep time
  and two seeds would not be comparable.
* ``halo-bound`` -- one small-tile problem with a seeded random
  initial field and boundary value, solved on every backend.
* ``serve-mix`` -- an open-loop schedule: independent tenants each
  sending at a fixed rate with a seeded phase; four in five requests
  repeat a small hot set, the rest are fresh solves.
"""

from __future__ import annotations

import random

import numpy as np

# -- paper-sweep --------------------------------------------------------

SWEEP_IMPLS = ("petsc", "base-parsec", "ca-parsec")
#: IR pipelines of the sweep; None runs the built graph unchanged.
SWEEP_PIPELINES = (None, "fuse,coarsen:factor=4", "latency")
#: Tile ladder per machine preset, bracketing the paper's Fig. 6 optima
#: (NaCL ~288, Stampede2 ~400).
SWEEP_TILES = {"nacl": (192, 288, 384), "stampede2": (256, 400, 512)}
#: Cores per node of the machine presets (one PETSc rank per core).
SWEEP_CORES = {"nacl": 12, "stampede2": 48}
SWEEP_NODES = (4, 16, 64)
#: PETSc runs one rank per core, so 64 Stampede2 nodes mean 3072 ranks
#: and a graph far beyond the per-point task budget; PETSc points stay
#: at or below this node count.
SWEEP_PETSC_MAX_NODES = 16
SWEEP_STEPS = (2, 3, 5, 10)
SWEEP_RATIOS = (1.0, 0.2)
#: Tiles per grid side of a PaRSEC point; n = this * tile.
SWEEP_TILES_PER_SIDE = 16
SWEEP_ITERATIONS = 10
#: Task budget per point: 16 x 16 tiles x (10 iterations + init).
SWEEP_TASKS = SWEEP_TILES_PER_SIDE ** 2 * (SWEEP_ITERATIONS + 1)
#: Points drawn per (impl, pipeline, machine) stratum in one pass.
SWEEP_DRAWS = 2


def sweep_points(seed: int) -> list[dict]:
    """One pass of the paper sweep: ``SWEEP_DRAWS`` points per (impl,
    pipeline, machine) stratum, in a seeded order.

    Node and CA step counts follow a fixed design, the same for every
    seed: inside a pipeline the node count rotates with the cell, so
    each implementation uses every node count equally often, and the
    CA points take every (node count, step count) pair once -- the pair
    sets the message count, the main cost of a point.  The seed draws
    the tile from the machine's ladder, the kernel ratio and the order."""
    rng = random.Random(f"paper-sweep:{seed}")
    points = []
    machines = [machine for machine in SWEEP_TILES for _ in range(SWEEP_DRAWS)]
    for impl in SWEEP_IMPLS:
        nodes_axis = [n for n in SWEEP_NODES
                      if impl != "petsc" or n <= SWEEP_PETSC_MAX_NODES]
        for p, passes in enumerate(SWEEP_PIPELINES):
            for j, machine in enumerate(machines):
                nodes = nodes_axis[(p + j) % len(nodes_axis)]
                steps = SWEEP_STEPS[j % len(SWEEP_STEPS)] if impl == "ca-parsec" else 1
                tile = rng.choice(SWEEP_TILES[machine])
                point = {
                    "impl": impl,
                    "machine": machine,
                    "nodes": nodes,
                    "passes": passes,
                    "tile": tile,
                    "n": SWEEP_TILES_PER_SIDE * tile,
                    "iterations": SWEEP_ITERATIONS,
                    "steps": steps,
                    "ratio": 1.0 if impl == "petsc" else rng.choice(SWEEP_RATIOS),
                }
                if impl == "petsc":
                    ranks = nodes * SWEEP_CORES[machine]
                    point["iterations"] = max(2, round(SWEEP_TASKS / ranks) - 1)
                points.append(point)
    rng.shuffle(points)
    return points


# -- halo-bound ---------------------------------------------------------

HALO_N = 288
HALO_TILE = 24
HALO_ITERATIONS = 16
#: Node count of the machine model; the processes backend runs one
#: process per node, so this is also its process count.
HALO_NODES = 2
HALO_IMPLS = ("base-parsec", "ca-parsec")
HALO_CA_STEPS = 4


def halo_inputs(seed: int) -> dict:
    """The halo-bound problem: a seeded random initial field and a
    seeded Dirichlet boundary value."""
    rng = np.random.default_rng([seed, 0x4A10])
    return {
        "n": HALO_N,
        "tile": HALO_TILE,
        "iterations": HALO_ITERATIONS,
        "nodes": HALO_NODES,
        "impls": HALO_IMPLS,
        "steps": HALO_CA_STEPS,
        "init": rng.random((HALO_N, HALO_N)),
        "bc": float(rng.uniform(0.5, 1.5)),
    }


# -- serve-mix ----------------------------------------------------------

SERVE_N = 768
SERVE_TILE = 384
SERVE_ITERATIONS = 8
SERVE_TENANTS = 4
#: Requests per second summed over all tenants.
SERVE_RATE = 10.0
SERVE_HOT_SET = 4
#: One fresh solve in every block of this many requests; the rest
#: repeat the hot set.
SERVE_BLOCK = 5
SERVE_HOT_SHARE = 1 - 1 / SERVE_BLOCK
#: Requests due in the first seconds fill the empty cache with the hot
#: set; they are sent and checked but not timed.
SERVE_WARMUP_S = 2.0


def _problem_constants(rng: random.Random) -> dict:
    return {"init": rng.uniform(0.0, 1.0), "bc": rng.uniform(0.5, 1.5)}


def serve_schedule(seed: int, seconds: float) -> dict:
    """The open-loop schedule: ``SERVE_WARMUP_S`` of warm-up traffic,
    then ``seconds`` of timed traffic.

    Returns ``{"problems": [...], "requests": [...]}``: each problem is
    a dict of constants (initial value, boundary value); each request
    is ``{"due": s, "tenant": name, "problem": index, "hot": bool,
    "warmup": bool}`` with ``due`` relative to the start of sending,
    sorted by ``due``.
    Problems ``0 .. SERVE_HOT_SET-1`` are the hot set; every fresh
    request gets a problem of its own.
    """
    if seconds <= 0:
        raise ValueError(f"seconds must be positive, got {seconds}")
    rng = random.Random(f"serve-mix:{seed}")
    problems = [_problem_constants(rng) for _ in range(SERVE_HOT_SET)]
    period = SERVE_TENANTS / SERVE_RATE
    per_tenant = max(1, round((SERVE_WARMUP_S + seconds) / period))
    requests = []
    gap = period / SERVE_TENANTS
    for t in range(SERVE_TENANTS):
        # Tenants are staggered about evenly with a seeded jitter: phases
        # drawn freely would bunch by chance on some seeds and not on
        # others, and that burstiness, not the program, would then
        # decide the queueing a seed sees.
        phase = (t + 0.5 + rng.uniform(-0.25, 0.25)) * gap
        for k in range(per_tenant):
            requests.append({"due": phase + k * period, "tenant": f"tenant-{t}"})
    requests.sort(key=lambda r: (r["due"], r["tenant"]))
    # Blocked randomisation: every SERVE_BLOCK consecutive requests hold
    # exactly one fresh solve at a seeded position away from the block's
    # ends, so two fresh solves are at least three requests apart: they
    # cannot clump by chance, and one seed queues about as much as
    # another.
    # The first hot requests visit the whole hot set once, so the cache
    # holds it by the end of the warm-up on every seed.
    first_hot = list(range(SERVE_HOT_SET))
    rng.shuffle(first_hot)
    for start in range(0, len(requests), SERVE_BLOCK):
        fresh_at = start + rng.randrange(1, SERVE_BLOCK - 1)
        for i in range(start, min(start + SERVE_BLOCK, len(requests))):
            req = requests[i]
            req["hot"] = i != fresh_at
            req["warmup"] = req["due"] < SERVE_WARMUP_S
            if req["hot"]:
                req["problem"] = (first_hot.pop(0) if first_hot
                                  else rng.randrange(SERVE_HOT_SET))
            else:
                req["problem"] = len(problems)
                problems.append(_problem_constants(rng))
    return {"problems": problems, "requests": requests}
