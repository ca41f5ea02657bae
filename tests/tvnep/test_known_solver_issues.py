"""Pinned reproduction of a known upstream HiGHS presolve issue.

On a model whose optimum requires several big-M rows and variable
bounds to be simultaneously binding (a boundary-tight schedule in the
full-layout Sigma-Model), the HiGHS build bundled with SciPy can
presolve away the true optimum and *prove* a worse solution optimal.
The library mitigates by exposing ``presolve=False`` on the HiGHS
backend and by shipping a second backend (the pure-Python
branch-and-bound), both of which recover the optimum here.

This test pins the behavior: if a future SciPy/HiGHS upgrade fixes the
presolve, the first assertion starts failing and the workaround (and
this file) can be retired.

A second defect sits in HiGHS symmetry detection: on a pinned chain of
back-to-back requests plus two identical flexible ones, the plain
cSigma-Model solved with presolve off was "proved" optimal at 6.0
against a verified 7.0.  The backend therefore switches symmetry
detection off for every MIP solve; the last test pins that instance.

The presolve defect also reaches the cSigma^G_A greedy: on a one-node
instance the last iteration's model (four pinned requests plus the
candidate R4) is solved as "R4 not embeddable", although
:func:`~repro.tvnep.greedy_enumerative`, the branch-and-bound backend
and HiGHS with presolve off all place R4 at [3, 4].  No request before
R4 is rejected, so the defect does not depend on how rejected requests
enter the model.
"""

from __future__ import annotations

import pytest

from repro.network import Request, SubstrateNetwork, TemporalSpec, VirtualNetwork
from repro.runtime import get_backend
from repro.tvnep import (
    CSigmaModel,
    ModelOptions,
    SigmaModel,
    greedy_csigma,
    greedy_enumerative,
    verify_solution,
)

TRUE_OPTIMUM = 4.75


def unit_request(name, t_s, t_e, d, demand):
    v = VirtualNetwork(name)
    v.add_node("v", demand)
    return Request(v, TemporalSpec(t_s, t_e, d))


def instance():
    substrate = SubstrateNetwork("one")
    substrate.add_node("s", 2.0)
    requests = [
        unit_request("R0", 0.0, 1.5, 1.5, 1.0),
        unit_request("R1", 1.5, 4.0, 1.0, 1.5),
        unit_request("R2", 1.0, 3.0, 1.0, 1.0),
        unit_request("R3", 1.0, 2.0, 0.5, 1.5),
    ]
    return substrate, requests


def test_highs_default_presolve_behavior_pinned():
    """Documents the upstream defect (update if SciPy's HiGHS fixes it)."""
    substrate, requests = instance()
    solution = SigmaModel(substrate, requests).solve(time_limit=60)
    # the defect mis-proves 4.0 optimal; a fixed HiGHS would return 4.75
    assert solution.objective in (
        pytest.approx(4.0),
        pytest.approx(TRUE_OPTIMUM),
    )
    if solution.objective == pytest.approx(TRUE_OPTIMUM):
        pytest.skip("upstream HiGHS presolve issue appears fixed here")


def test_presolve_off_recovers_optimum():
    substrate, requests = instance()
    solution = SigmaModel(substrate, requests).solve(
        time_limit=60, presolve=False
    )
    assert solution.objective == pytest.approx(TRUE_OPTIMUM)
    assert verify_solution(solution).feasible


def test_bnb_backend_recovers_optimum():
    substrate, requests = instance()
    solution = SigmaModel(substrate, requests).solve(
        backend="bnb", time_limit=120
    )
    assert solution.objective == pytest.approx(TRUE_OPTIMUM)
    assert verify_solution(solution).feasible


def pinned_chain(durations, capacity=1.5):
    """Back-to-back pinned requests P0.. plus two flexible ones F0, F1.

    Every demand is 1.0; F0 and F1 last one time unit each and may go
    anywhere in ``[0, chain end + 2]``.
    """
    substrate = SubstrateNetwork("one")
    substrate.add_node("s", capacity)
    requests, t = [], 0.0
    for i, duration in enumerate(durations):
        requests.append(unit_request(f"P{i}", t, t + duration, duration, 1.0))
        t += duration
    for j in range(2):
        requests.append(unit_request(f"F{j}", 0.0, t + 2.0, 1.0, 1.0))
    return substrate, requests


def test_symmetry_detection_off_keeps_pinned_chain_optimum():
    # capacity 1.5 holds one request at a time: the chain fills [0, 5]
    # and F0/F1 fit back to back in [5, 7], so all six embed (7.0)
    substrate, requests = pinned_chain((1.0, 1.0, 1.0, 2.0))
    plain = CSigmaModel(
        substrate, requests, options=ModelOptions.plain()
    ).solve(time_limit=60, presolve=False)
    assert plain.objective == pytest.approx(7.0)
    assert plain.num_embedded == len(requests)
    assert verify_solution(plain).feasible
    bnb = CSigmaModel(
        substrate, requests, options=ModelOptions.plain()
    ).solve(backend="bnb", time_limit=120)
    assert bnb.objective == pytest.approx(7.0)


def greedy_instance():
    """One node of capacity 1.0; R4 fits only at [3, 4], beside R3."""
    substrate = SubstrateNetwork("one")
    substrate.add_node("s", 1.0)
    requests = [
        unit_request("R0", 0.0, 1.0, 1.0, 0.5),
        unit_request("R1", 0.0, 3.0, 2.0, 1.0),
        unit_request("R2", 0.0, 1.0, 1.0, 0.5),
        unit_request("R3", 0.0, 4.0, 1.0, 0.5),
        unit_request("R4", 1.0, 5.0, 1.0, 0.5),
    ]
    return substrate, requests, {r.name: {"v": "s"} for r in requests}


def test_greedy_highs_rejects_embeddable_request_pinned():
    """Documents the greedy presolve defect (retire once HiGHS accepts R4)."""
    substrate, requests, mappings = greedy_instance()
    oracle = greedy_enumerative(substrate, requests, mappings).solution
    assert oracle["R4"].embedded
    assert oracle["R4"].start == pytest.approx(3.0)
    bnb = greedy_csigma(substrate, requests, mappings, backend="bnb").solution
    assert [bnb[r.name].embedded for r in requests] == [True] * 5
    assert bnb["R4"].start == pytest.approx(3.0)
    assert verify_solution(bnb).feasible

    highs_backend = get_backend("highs")

    def presolve_off(model, **kwargs):
        return highs_backend(model, presolve=False, **kwargs)

    no_presolve = greedy_csigma(
        substrate, requests, mappings, backend=presolve_off
    ).solution
    assert no_presolve["R4"].embedded
    assert no_presolve["R4"].start == pytest.approx(3.0)

    highs = greedy_csigma(substrate, requests, mappings).solution
    # R0..R3 agree with the oracle either way; only R4 is affected
    for name in ("R0", "R1", "R2", "R3"):
        assert highs[name].embedded
        assert highs[name].start == pytest.approx(oracle[name].start)
    assert verify_solution(highs).feasible
    if highs["R4"].embedded:
        assert highs["R4"].start == pytest.approx(3.0)
        pytest.skip("greedy HiGHS defect appears fixed here")
    assert highs.num_embedded == 4
