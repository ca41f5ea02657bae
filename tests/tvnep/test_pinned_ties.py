"""Property tests for greedy-style pinned schedules with tied times.

The paper-scale run exposed a bug class the uniform random instances
never hit: chains of zero-flexibility requests whose boundaries *tie*
exactly (or to within solver noise), mixed with flexible requests.
These tests generate exactly that shape and assert the fully-featured
cSigma-Model agrees with the cut-free baseline — on both feasibility
and optimum.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network import Request, SubstrateNetwork, TemporalSpec, VirtualNetwork
from repro.tvnep import CSigmaModel, ModelOptions, verify_solution


def unit_request(name, t_s, t_e, d, demand=1.0):
    v = VirtualNetwork(name)
    v.add_node("v", demand)
    return Request(v, TemporalSpec(t_s, t_e, d))


@st.composite
def pinned_chain_instance(draw):
    """Back-to-back pinned requests (with optional noise at the joints)
    plus one or two flexible requests over the whole span."""
    num_pinned = draw(st.integers(2, 5))
    noise_exp = draw(st.sampled_from([0, -13, -11, -9]))
    noise = 0.0 if noise_exp == 0 else 10.0 ** noise_exp
    demand = draw(st.sampled_from([0.4, 0.5, 1.0]))

    requests = []
    t = 0.0
    for i in range(num_pinned):
        duration = draw(st.integers(1, 3)) * 1.0
        sign = draw(st.sampled_from([-1.0, 0.0, 1.0]))
        start = max(0.0, t + sign * noise)
        requests.append(
            unit_request(f"P{i}", start, start + duration, duration, demand)
        )
        t = start + duration
    horizon = t
    for j in range(draw(st.integers(1, 2))):
        duration = draw(st.integers(1, 3)) * 1.0
        requests.append(
            unit_request(
                f"F{j}",
                0.0,
                max(horizon, duration) + 2.0,
                duration,
                demand,
            )
        )
    capacity = draw(st.sampled_from([1.0, 1.5, 2.0]))
    return capacity, requests


def chain_example(durations, capacity=1.5):
    """A ``pinned_chain_instance`` draw without noise, demand 1.0 and
    two flexible requests of duration 1."""
    requests, t = [], 0.0
    for i, duration in enumerate(durations):
        requests.append(unit_request(f"P{i}", t, t + duration, duration))
        t += duration
    requests += [unit_request(f"F{j}", 0.0, t + 2.0, 1.0) for j in range(2)]
    return capacity, requests


@settings(max_examples=25, deadline=None)
@given(pinned_chain_instance())
# HiGHS symmetry detection once cut the plain model's optimum here
@example(chain_example((1.0, 2.0, 1.0, 1.0)))
@example(chain_example((1.0, 2.0, 1.0, 3.0)))
def test_cuts_agree_with_plain_on_pinned_chains(params):
    capacity, requests = params
    substrate = SubstrateNetwork()
    substrate.add_node("s", capacity)

    plain = CSigmaModel(
        substrate, requests, options=ModelOptions.plain()
    ).solve(time_limit=60, presolve=False)
    full = CSigmaModel(substrate, requests).solve(time_limit=60, presolve=False)

    assert full.objective == pytest.approx(plain.objective, abs=1e-4), (
        f"cuts changed the optimum: {full.objective} vs {plain.objective}"
    )
    assert verify_solution(full).feasible


@settings(max_examples=25, deadline=None)
@given(pinned_chain_instance())
def test_forced_pinned_chains_stay_feasible(params):
    """If the whole pinned chain fits alone (capacity allows), forcing
    it embedded must never be infeasible under any option set."""
    capacity, requests = params
    pinned = [r for r in requests if r.name.startswith("P")]
    # chain demands never overlap in time, so it fits iff demand <= cap
    if pinned[0].vnet.node_demand("v") > capacity:
        return
    substrate = SubstrateNetwork()
    substrate.add_node("s", capacity)
    names = [r.name for r in pinned]
    for options in (ModelOptions(), ModelOptions.plain()):
        solution = CSigmaModel(
            substrate, pinned, force_embedded=names, options=options
        ).solve(time_limit=60)
        assert solution.num_embedded == len(pinned), (
            f"options {options} rejected a trivially feasible pinned chain"
        )
