"""Unit tests for ClusterCostModel's stage-pricing helpers.

shuffle_seconds prices a stage's data movement and launch overhead, and
serial_job_seconds/pipelined_job_seconds combine stage costs into a
job's modeled time (``explain``'s stage breakdown reads them), so they
must be well-behaved: monotone in bytes, zero at zero.
"""

import pytest

from repro.engine.costmodel import ClusterCostModel


@pytest.fixture
def model():
    return ClusterCostModel()


class TestShuffleSeconds:
    def test_zero_bytes_zero_tasks_cost_nothing(self, model):
        assert model.shuffle_seconds(0, num_tasks=0) == 0.0

    def test_monotone_in_bytes(self, model):
        costs = [model.shuffle_seconds(n) for n in (1, 10**3, 10**6, 10**9)]
        assert costs == sorted(costs)

    def test_tasks_add_launch_overhead(self, model):
        base = model.shuffle_seconds(10**6, num_tasks=0)
        with_tasks = model.shuffle_seconds(10**6, num_tasks=8)
        assert with_tasks == pytest.approx(
            base + 8 * model.task_overhead_s)

    def test_negative_inputs_are_clamped(self, model):
        assert model.shuffle_seconds(-5, num_tasks=-3) == 0.0


class TestJobSeconds:
    """serial_job_seconds / pipelined_job_seconds price the barrier
    loop vs the pipelined scheduler's critical path."""

    def test_empty_plan_costs_nothing(self, model):
        assert model.serial_job_seconds({}) == 0.0
        assert model.pipelined_job_seconds({}, {}) == 0.0

    def test_chain_has_no_overlap(self, model):
        seconds = {"a": 1.0, "b": 2.0, "c": 3.0}
        deps = {"b": ["a"], "c": ["b"]}
        assert model.serial_job_seconds(seconds) == 6.0
        assert model.pipelined_job_seconds(seconds, deps) == 6.0

    def test_diamond_overlaps_independent_sides(self, model):
        # a and b are independent inputs of c: pipelined pays
        # max(a, b) + c, the barrier loop pays a + b + c
        seconds = {"a": 1.0, "b": 2.0, "c": 3.0}
        deps = {"c": ["a", "b"]}
        assert model.serial_job_seconds(seconds) == 6.0
        assert model.pipelined_job_seconds(seconds, deps) == 5.0

    def test_fully_independent_stages_take_the_max(self, model):
        seconds = {"a": 1.0, "b": 4.0, "c": 2.0}
        assert model.pipelined_job_seconds(seconds, {}) == 4.0

    def test_missing_dep_keys_contribute_nothing(self, model):
        seconds = {"a": 2.0}
        deps = {"a": ["ghost"]}
        assert model.pipelined_job_seconds(seconds, deps) == 2.0

    def test_cycle_does_not_hang(self, model):
        seconds = {"a": 1.0, "b": 1.0}
        deps = {"a": ["b"], "b": ["a"]}
        # degenerate input; the guard just has to terminate with a
        # finite answer
        assert model.pipelined_job_seconds(seconds, deps) >= 1.0
