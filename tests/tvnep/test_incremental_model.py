"""Tests of the incremental cSigma model behind the greedy loop.

The load-bearing invariant: at every point of a greedy run, the growing
:class:`~repro.tvnep.incremental.IncrementalCSigmaModel` compiles to a
standard form *byte-identical* to a fresh
:class:`~repro.tvnep.csigma_model.CSigmaModel` built over the same
request list: the accepted requests, pinned, plus the candidate (a
rejection withdraws the candidate's block).  Given that, the
greedy/hybrid algorithms make the same decisions with either
construction path — checked end-to-end here as well (accepted order,
objectives, schedules).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.network import Request, TemporalSpec, line_substrate
from repro.network.topologies import star
from repro.tvnep import CSigmaModel, greedy_csigma
from repro.tvnep.base import ModelOptions
from repro.tvnep.hybrid import hybrid_heavy_hitters
from repro.tvnep.incremental import IncrementalCSigmaModel
from repro.vnep import random_node_mapping
from repro.workloads import small_scenario


def assert_forms_equal(a, b) -> None:
    """Byte-level equality of two compiled standard forms."""
    assert [v.name for v in a.variables] == [v.name for v in b.variables]
    assert a.constraint_names == b.constraint_names
    assert np.array_equal(a.c, b.c)
    assert a.c0 == b.c0
    assert a.sense_sign == b.sense_sign
    assert np.array_equal(a.A.indptr, b.A.indptr)
    assert np.array_equal(a.A.indices, b.A.indices)
    assert np.array_equal(a.A.data, b.A.data)
    assert np.array_equal(a.row_lb, b.row_lb)
    assert np.array_equal(a.row_ub, b.row_ub)
    assert np.array_equal(a.lb, b.lb)
    assert np.array_equal(a.ub, b.ub)
    assert np.array_equal(a.integrality, b.integrality)


def star_instance(num_requests: int = 5):
    """Star requests with link demands on a 3-node line substrate."""
    substrate = line_substrate(3, node_capacity=3.0, link_capacity=2.0)
    requests = []
    mappings = {}
    for i in range(num_requests):
        vnet = star(f"R{i}", leaves=2, node_demand=1.0, link_demand=0.5)
        request = Request(vnet, TemporalSpec(float(i), float(i) + 6.0, 3.0))
        requests.append(request)
        mappings[request.name] = random_node_mapping(substrate, request, rng=i)
    return substrate, requests, mappings


class TestScriptedIterationParity:
    """Replay a scripted greedy run; compare against fresh models."""

    @pytest.mark.parametrize("formulation", ["columnar", "legacy"])
    def test_every_iteration_matches_a_fresh_model(self, formulation):
        substrate, requests, mappings = star_instance()
        horizon = max(r.latest_end for r in requests)
        options = replace(
            ModelOptions(), formulation=formulation, time_horizon=horizon
        )
        inc = IncrementalCSigmaModel(substrate, options=options, horizon=horizon)

        # the accepted requests (pinned) plus the candidate
        current: dict[str, Request] = {}
        accepted: list[str] = []
        for position, request in enumerate(requests):
            current[request.name] = request
            inc.insert(request, mappings[request.name])
            inc.rebuild_tail()
            fresh = CSigmaModel(
                substrate,
                list(current.values()),
                fixed_mappings={name: mappings[name] for name in current},
                force_embedded=accepted,
                options=options,
            )
            assert_forms_equal(
                inc.model.to_standard_form(), fresh.model.to_standard_form()
            )
            # scripted outcome: accept evens at the earliest slot,
            # reject odds (their blocks leave the model)
            if position % 2 == 0:
                pinned = request.with_schedule(
                    request.earliest_start,
                    request.earliest_start + request.duration,
                )
                current[request.name] = pinned
                accepted.append(request.name)
                inc.decide(request.name, True, pinned)
            else:
                del current[request.name]
                inc.decide(request.name, False)
            assert [r.name for r in inc.requests] == list(current)

        # the final fully-pinned model (one more tail rebuild) matches too
        inc.rebuild_tail()
        final = CSigmaModel(
            substrate,
            list(current.values()),
            fixed_mappings={name: mappings[name] for name in current},
            force_embedded=accepted,
            options=options,
        )
        assert_forms_equal(
            inc.model.to_standard_form(), final.model.to_standard_form()
        )


class TestLifecycle:
    def options(self, horizon=10.0):
        return replace(ModelOptions(), time_horizon=horizon)

    def test_horizon_is_required(self):
        substrate, _, _ = star_instance(1)
        with pytest.raises(ValidationError, match="horizon"):
            IncrementalCSigmaModel(substrate, options=ModelOptions())

    def test_duplicate_insert_rejected(self):
        substrate, requests, mappings = star_instance(1)
        inc = IncrementalCSigmaModel(substrate, options=self.options(), horizon=10.0)
        inc.insert(requests[0], mappings[requests[0].name])
        with pytest.raises(ValidationError, match="already inserted"):
            inc.insert(requests[0], mappings[requests[0].name])

    def test_request_beyond_horizon_rejected(self):
        substrate, requests, mappings = star_instance(1)
        inc = IncrementalCSigmaModel(substrate, options=self.options(4.0), horizon=4.0)
        with pytest.raises(ValidationError, match="horizon"):
            inc.insert(requests[0], mappings[requests[0].name])
        assert not inc.contains(requests[0].name)

    def test_rebuild_with_no_requests_rejected(self):
        substrate, _, _ = star_instance(1)
        inc = IncrementalCSigmaModel(substrate, options=self.options(), horizon=10.0)
        with pytest.raises(ValidationError, match="at least one request"):
            inc.rebuild_tail()

    def test_accept_is_bound_only(self):
        substrate, requests, mappings = star_instance(2)
        inc = IncrementalCSigmaModel(substrate, options=self.options(), horizon=10.0)
        for request in requests:
            inc.insert(request, mappings[request.name])
        nnz_before = inc.model.to_standard_form().A.nnz
        pinned = requests[0].with_schedule(0.0, 3.0)
        inc.decide(requests[0].name, True, pinned)
        emb = inc.embeddings[requests[0].name]
        assert emb.x_embed.lb == emb.x_embed.ub == 1.0
        assert inc.model.to_standard_form().A.nnz == nnz_before
        assert inc.requests[0] is pinned

    @pytest.mark.parametrize("formulation", ["columnar", "legacy"])
    def test_reject_restores_pre_insert_form(self, formulation):
        substrate, requests, mappings = star_instance(3)
        options = replace(self.options(), formulation=formulation)
        inc = IncrementalCSigmaModel(substrate, options=options, horizon=10.0)
        for request in requests[:2]:
            inc.insert(request, mappings[request.name])
            inc.decide(
                request.name,
                True,
                request.with_schedule(
                    request.earliest_start,
                    request.earliest_start + request.duration,
                ),
            )
        inc.rebuild_tail()
        before = inc.model.to_standard_form()

        candidate = requests[2]
        inc.insert(candidate, mappings[candidate.name])
        inc.rebuild_tail()
        assert inc.model.num_vars > len(before.variables)
        inc.decide(candidate.name, False)
        assert not inc.contains(candidate.name)
        assert candidate.name not in inc.embeddings
        assert [r.name for r in inc.requests] == [r.name for r in requests[:2]]
        inc.rebuild_tail()
        assert_forms_equal(inc.model.to_standard_form(), before)
        # the withdrawn request can come back: its names were released
        inc.insert(candidate, mappings[candidate.name])
        inc.rebuild_tail()

    def test_reject_of_an_older_insert_raises(self):
        substrate, requests, mappings = star_instance(2)
        inc = IncrementalCSigmaModel(substrate, options=self.options(), horizon=10.0)
        for request in requests:
            inc.insert(request, mappings[request.name])
        with pytest.raises(ValidationError, match="newest insert"):
            inc.decide(requests[0].name, False)
        assert inc.contains(requests[0].name)
        # rejecting the newest works, after which nothing is withdrawable
        inc.decide(requests[1].name, False)
        with pytest.raises(ValidationError, match="newest insert"):
            inc.decide(requests[0].name, False)

    def test_failed_insert_rolls_back_cleanly(self):
        substrate, requests, mappings = star_instance(2)
        inc = IncrementalCSigmaModel(substrate, options=self.options(), horizon=10.0)
        inc.insert(requests[0], mappings[requests[0].name])
        before_vars = inc.model.num_vars
        before_rows = inc.model.num_constraints
        bad_mapping = {v: "no-such-node" for v in requests[1].vnet.nodes}
        with pytest.raises(Exception):
            inc.insert(requests[1], bad_mapping)
        assert not inc.contains(requests[1].name)
        assert inc.model.num_vars == before_vars
        assert inc.model.num_constraints == before_rows
        # the model is still usable: insert the request properly now
        inc.insert(requests[1], mappings[requests[1].name])
        inc.rebuild_tail()


class TestAlgorithmParity:
    """End-to-end: incremental and fresh loops decide identically."""

    def fingerprints(self, result):
        solution = result.solution
        return (
            list(getattr(result, "accepted_order", [])),
            solution.objective,
            {
                name: (sched.embedded, sched.start, sched.end)
                for name, sched in solution.scheduled.items()
            },
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_greedy_matches_fresh_loop(self, seed):
        scenario = small_scenario(seed, num_requests=5).with_flexibility(1.0)
        runs = [
            greedy_csigma(
                scenario.substrate,
                scenario.requests,
                fixed_mappings=scenario.node_mappings,
                incremental=incremental,
            )
            for incremental in (True, False)
        ]
        assert self.fingerprints(runs[0]) == self.fingerprints(runs[1])

    def test_hybrid_matches_fresh_loop(self):
        scenario = small_scenario(3, num_requests=6).with_flexibility(1.0)
        runs = [
            hybrid_heavy_hitters(
                scenario.substrate,
                scenario.requests,
                fixed_mappings=scenario.node_mappings,
                heavy_fraction=0.34,
                incremental=incremental,
            )
            for incremental in (True, False)
        ]
        assert self.fingerprints(runs[0]) == self.fingerprints(runs[1])

    def test_greedy_matches_on_bnb_backend(self):
        scenario = small_scenario(0, num_requests=4).with_flexibility(1.0)
        runs = [
            greedy_csigma(
                scenario.substrate,
                scenario.requests,
                fixed_mappings=scenario.node_mappings,
                backend="bnb",
                incremental=incremental,
            )
            for incremental in (True, False)
        ]
        assert self.fingerprints(runs[0]) == self.fingerprints(runs[1])
