"""Work counts of the traced run repeat exactly, and each workload bypasses
the layers it is predicted to bypass.

Run from the repository root:  python3 -m pytest perfbench
"""

import shutil

import pytest

import run
from workloads import WORKLOADS

COUNTERS = ("calls", "term_pairs", "bytes", "failed")
SEED = 11


def _traced(name):
    workload, _, _, scratch = run.set_up(WORKLOADS[name], SEED, 1)
    try:
        records, metrics, _ = run.measure_traced(workload, rounds=1)
        assert run.verify(workload, records) == 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {key: value for key, (value, _) in metrics.items()}


@pytest.fixture(scope="module")
def traced():
    """Two traced runs of every workload at one seed."""
    saved = run.SETUP_REPEATS
    run.SETUP_REPEATS = 1
    try:
        run.use_source()
        return {name: (_traced(name), _traced(name)) for name in WORKLOADS}
    finally:
        run.SETUP_REPEATS = saved


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_counts_repeat(traced, name):
    first, second = traced[name]
    counts = [
        {k: v for k, v in m.items() if k.rsplit(".", 1)[1] in COUNTERS} for m in (first, second)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.failed"] == 0


def test_hopf_symbolic_does_no_base_ring_arithmetic(traced):
    metrics = traced["hopf-symbolic"][0]
    assert metrics["base_ring.mul.calls"] == 0
    assert metrics["hopf.poly_mul.calls"] > 0


def test_group_law_does_no_polynomial_arithmetic(traced):
    metrics = traced["group-law"][0]
    assert metrics["hopf.poly_mul.calls"] == 0
    assert metrics["base_ring.mul.calls"] > 0


def test_json_io_only_on_cli_batch(traced):
    for name, (metrics, _) in traced.items():
        io = {k: v for k, v in metrics.items() if k.startswith("jsonio.")}
        if name == "cli-batch":
            assert io["jsonio.read.calls"] > 0 and io["jsonio.write.bytes"] > 0
        else:
            assert not any(io.values()), name
