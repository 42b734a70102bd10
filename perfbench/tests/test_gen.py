"""The generators are pure functions of the seed."""

import numpy as np

from perfbench import gen


def test_sweep_points_repeat_for_a_seed_and_differ_across_seeds():
    assert gen.sweep_points(7) == gen.sweep_points(7)
    assert gen.sweep_points(7) != gen.sweep_points(8)


def test_sweep_points_cover_every_stratum_equally():
    points = gen.sweep_points(3)
    counts = {}
    for p in points:
        key = (p["impl"], p["passes"], p["machine"])
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == (
        len(gen.SWEEP_IMPLS) * len(gen.SWEEP_PIPELINES) * len(gen.SWEEP_TILES))
    assert set(counts.values()) == {gen.SWEEP_DRAWS}


def test_sweep_node_and_step_draws_are_balanced():
    for seed in range(10):
        points = gen.sweep_points(seed)
        for impl in ("base-parsec", "ca-parsec"):
            nodes = [p["nodes"] for p in points if p["impl"] == impl]
            assert max(map(nodes.count, gen.SWEEP_NODES)) - min(
                map(nodes.count, gen.SWEEP_NODES)) <= 1
        pairs = [(p["nodes"], p["steps"]) for p in points if p["impl"] == "ca-parsec"]
        assert sorted(pairs) == sorted(
            (n, s) for n in gen.SWEEP_NODES for s in gen.SWEEP_STEPS)


def test_sweep_points_stay_within_the_paper_axes():
    for seed in range(20):
        for p in gen.sweep_points(seed):
            assert p["tile"] in gen.SWEEP_TILES[p["machine"]]
            assert p["nodes"] in gen.SWEEP_NODES
            assert p["n"] == gen.SWEEP_TILES_PER_SIDE * p["tile"]
            if p["impl"] == "petsc":
                assert p["ratio"] == 1.0 and p["nodes"] <= gen.SWEEP_PETSC_MAX_NODES
                ranks = p["nodes"] * gen.SWEEP_CORES[p["machine"]]
                assert ranks * (p["iterations"] + 1) <= 2 * gen.SWEEP_TASKS
            else:
                assert p["ratio"] in gen.SWEEP_RATIOS
            if p["impl"] == "ca-parsec":
                assert p["steps"] in gen.SWEEP_STEPS
                assert p["steps"] <= p["iterations"]


def test_sweep_cores_match_the_machine_presets():
    from repro.machine.machine import nacl, stampede2

    assert gen.SWEEP_CORES == {"nacl": nacl(1).node.cores,
                               "stampede2": stampede2(1).node.cores}


def test_halo_inputs_repeat_for_a_seed():
    a, b, c = gen.halo_inputs(5), gen.halo_inputs(5), gen.halo_inputs(6)
    assert np.array_equal(a["init"], b["init"]) and a["bc"] == b["bc"]
    assert not np.array_equal(a["init"], c["init"])
    assert a["init"].shape == (gen.HALO_N, gen.HALO_N)


def test_serve_schedule_repeats_for_a_seed():
    assert gen.serve_schedule(4, 10) == gen.serve_schedule(4, 10)
    assert gen.serve_schedule(4, 10) != gen.serve_schedule(5, 10)


def test_serve_schedule_shape():
    sched = gen.serve_schedule(2, 20)
    reqs = sched["requests"]
    assert len(reqs) == round((20 + gen.SERVE_WARMUP_S) * gen.SERVE_RATE)
    assert sum(not r["warmup"] for r in reqs) == round(20 * gen.SERVE_RATE)
    assert [r["due"] for r in reqs] == sorted(r["due"] for r in reqs)
    per_tenant = {}
    for r in reqs:
        per_tenant.setdefault(r["tenant"], []).append(r["due"])
    period = gen.SERVE_TENANTS / gen.SERVE_RATE
    for dues in per_tenant.values():
        gaps = np.diff(dues)
        assert np.allclose(gaps, period)
    fresh = [r for r in reqs if not r["hot"]]
    assert len({r["problem"] for r in fresh}) == len(fresh)
    assert all(r["problem"] < gen.SERVE_HOT_SET for r in reqs if r["hot"])
    hot_share = 1 - len(fresh) / len(reqs)
    assert abs(hot_share - gen.SERVE_HOT_SHARE) < 0.12
    assert len(sched["problems"]) == gen.SERVE_HOT_SET + len(fresh)
