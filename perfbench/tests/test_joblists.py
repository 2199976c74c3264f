"""Job lists are pure functions of (workload, seed, window).

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import itertools

import pytest

import joblists
from joblists import SERVICE_CLIENTS, WINDOWS


def every_list(seed):
    """Every job list the benchmark builds for one workload seed."""
    lists = {}
    for workload in ("frontier_sweep", "dist_fleet"):
        for window in WINDOWS:
            lists[(workload, window)] = joblists.seed_pairs(workload, seed, window)
    for client, window in itertools.product(range(SERVICE_CLIENTS), WINDOWS):
        lists[("figure_service", client, window)] = joblists.figure_jobs(seed, client, window)
        lists[("figure_service", client, "pool")] = joblists.repeat_pool(seed, client)
    for window in WINDOWS:
        lists[("ingest_replay", window)] = joblists.ingest_jobs(seed, window)
    return lists


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_same_seed_gives_the_same_lists(seed):
    assert every_list(seed) == every_list(seed)


def test_another_seed_gives_different_lists():
    first, second = every_list(0), every_list(1)
    for key in first:
        assert first[key] != second[key], key


@pytest.mark.parametrize("workload", ["frontier_sweep", "dist_fleet"])
def test_every_job_gets_fresh_program_seeds(workload):
    seeds = [s for window in WINDOWS
             for pair in joblists.seed_pairs(workload, 3, window) for s in pair]
    assert len(seeds) == len(set(seeds)) == 2 * len(WINDOWS) * joblists.MAX_JOBS


def test_figure_service_repeats_name_only_set_up_specs():
    for client, window in itertools.product(range(SERVICE_CLIENTS), WINDOWS):
        pool = set(joblists.repeat_pool(5, client))
        jobs = joblists.figure_jobs(5, client, window)
        repeats = [job for job in jobs if job.kind == "repeat"]
        assert repeats and all(job in pool for job in repeats)


def test_figure_service_clients_never_share_a_spec():
    # Each client waits for its reply before sending again, so with
    # disjoint specs no request can merge into a job still running.
    specs = [
        {(job.figure, job.seed) for window in WINDOWS
         for job in joblists.figure_jobs(9, client, window)}
        | {(job.figure, job.seed) for job in joblists.repeat_pool(9, client)}
        for client in range(SERVICE_CLIENTS)
    ]
    assert not specs[0] & specs[1]


def test_fresh_figure_requests_never_reuse_a_seed():
    seeds = [job.seed for client, window in itertools.product(range(SERVICE_CLIENTS), WINDOWS)
             for job in joblists.figure_jobs(2, client, window) if job.kind != "repeat"]
    pool_seeds = {job.seed for c in range(SERVICE_CLIENTS) for job in joblists.repeat_pool(2, c)}
    assert len(seeds) == len(set(seeds))
    assert not set(seeds) & pool_seeds


def test_deck_shares_put_percentiles_inside_a_class():
    kinds = [kind for kind, _ in joblists.DECK]
    repeat, windowed = (kinds.count(k) / len(kinds) for k in ("repeat", "windowed"))
    assert repeat < 0.5 < repeat + windowed < 0.9


def test_every_figure_service_deck_is_the_same_mix():
    def decks(seed, client):
        jobs = joblists.figure_jobs(seed, client, "timed")
        size = len(joblists.DECK)
        return [sorted((job.kind, job.figure) for job in jobs[i:i + size])
                for i in range(0, len(jobs) - size + 1, size)]

    mixes = decks(0, 0) + decks(3, 1)
    assert all(mix == mixes[0] for mix in mixes)
    assert mixes[0] == sorted(joblists.DECK)


def test_ingest_cycle_is_the_same_mix_for_every_seed():
    def mix(seed):
        return [(job.trace, job.scheme) for job in joblists.ingest_jobs(seed, "timed")]

    assert mix(0) == mix(4)
    cycle = len(joblists.INGEST_TRACES) * len(joblists.INGEST_SCHEMES)
    assert len(set(mix(0)[:cycle])) == cycle


def test_unknown_workload_or_window_is_refused():
    with pytest.raises(ValueError):
        joblists.seed_pairs("nope", 0, "timed")
    with pytest.raises(ValueError):
        joblists.ingest_jobs(0, "later")
