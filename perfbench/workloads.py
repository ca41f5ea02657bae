"""The benchmark's four workloads.

Each workload prepares its cells during set-up, runs one cell inside
the timed region, computes an oracle answer per cell outside it, and
checks every timed answer against that oracle.  Library functions are
looked up through their modules at call time (``greedy_mod.greedy_csigma``
rather than a name bound at import), so the tracer's patches apply.

Why these four (see README.md): ``greedy-paper`` stresses the insertion
loop and its many small warm-started HiGHS solves; ``exact-paper`` is
one large cold HiGHS solve per cell and bypasses the insertion loop;
``exact-bnb`` is the only workload where the own branch-and-bound and
its LP engine do the work; ``sweep-figures`` is the only one that runs
the parallel sweep, record persistence, the Delta/Sigma models and the
non-access objectives.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from pathlib import Path

from perfbench.stats import disagreeing_groups, rel_close, schedule_mismatches

HERE = Path(__file__).resolve().parent

#: optimal objectives recorded at the commit that introduced the benchmark
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

#: relative tolerance of every objective comparison
REL_TOL = 1e-6


@dataclass
class Cell:
    """One unit of timed work and the inputs it needs."""

    cid: str
    inputs: object


@dataclass
class Checked:
    """Result of checking one timed answer."""

    attempted: int
    errors: list[str]


class Workload:
    """What the worker needs from a workload.

    ``setup`` builds the cells (timed as set-up), ``run`` is the timed
    call, ``oracle`` the untimed reference answer of a cell, ``check``
    compares an answer with it (one error per failed unit), and
    ``decisions`` maps each accept/reject decision in an answer to its
    latency in seconds.
    """

    name: str
    #: processes the workload runs on (for ``runtime.worker_busy_frac``)
    workers = 1

    def store_bytes(self, answer) -> int:
        """Size of the record store an answer wrote (sweeps only)."""
        return 0


def _verify(solution, label: str, **kwargs) -> list[str]:
    from repro.tvnep.feasibility import verify_solution

    report = verify_solution(solution, **kwargs)
    return [] if report.feasible else [f"{label}: verifier: {report!r}"]


def _accepted_starts(solution) -> dict[str, float]:
    return {
        name: entry.start
        for name, entry in solution.scheduled.items()
        if entry.embedded
    }


# ----------------------------------------------------------------------
class GreedyPaper(Workload):
    """cSigma^G_A on the paper's 4x5 grid with twenty 5-node stars."""

    name = "greedy-paper"
    #: (scenario seed, flexibility [h]) per cell; a pass over three cells
    #: takes about 9 s, so every cell runs at least twice in a run
    cells = {
        False: ((0, 3.5), (1, 0.0), (2, 3.5)),
        True: ((3, 3.5), (4, 0.0), (5, 3.5)),
    }

    def setup(self, held_out: bool) -> list[Cell]:
        import repro.workloads.scenario as scenario_mod

        return [
            Cell(f"paper-s{s}-f{f:g}", scenario_mod.paper_scenario(s).with_flexibility(f))
            for s, f in self.cells[held_out]
        ]

    def run(self, cell: Cell, out_dir: Path):
        import repro.tvnep.greedy as greedy_mod

        sc = cell.inputs
        return greedy_mod.greedy_csigma(sc.substrate, sc.requests, sc.node_mappings)

    def oracle(self, cell: Cell):
        from repro.tvnep.greedy import greedy_enumerative

        sc = cell.inputs
        result = greedy_enumerative(sc.substrate, sc.requests, sc.node_mappings)
        return _accepted_starts(result.solution)

    def check(self, cell: Cell, answer, expected) -> Checked:
        errors = [
            f"{cell.cid}: {p}"
            for p in schedule_mismatches(expected, _accepted_starts(answer.solution))
        ]
        errors += _verify(answer.solution, cell.cid)
        return Checked(1, errors[:1])

    def decisions(self, cell: Cell, answer, elapsed: float) -> dict:
        return {
            (cell.cid, i): seconds
            for i, seconds in enumerate(answer.iteration_runtimes)
        }


# ----------------------------------------------------------------------
class _ExactCSigma(Workload):
    """One cSigma model with the access-control objective, solved exactly."""

    backend = "highs"

    def _build(self, sc):
        import repro.tvnep.csigma_model as csigma_mod
        import repro.tvnep.objectives as objectives_mod

        model = csigma_mod.CSigmaModel(
            sc.substrate, sc.requests, fixed_mappings=sc.node_mappings
        )
        objectives_mod.set_access_control(model)
        return model

    def run(self, cell: Cell, out_dir: Path):
        model = self._build(cell.inputs)
        raw = model.solve_raw(backend=self.backend)
        return raw, model.extract(raw)

    def decisions(self, cell: Cell, answer, elapsed: float) -> dict:
        # one exact solve answers every admission of its batch at once
        return {cell.cid: elapsed}

    def _common_errors(self, cell: Cell, answer) -> list[str]:
        from repro.mip.solution import SolveStatus

        raw, solution = answer
        if raw.status is not SolveStatus.OPTIMAL:
            return [f"{cell.cid}: status {raw.status.value}, expected optimal"]
        return _verify(solution, cell.cid)


class ExactPaper(_ExactCSigma):
    """Fig. 3: exact cSigma on full 20-request paper scenarios (HiGHS)."""

    name = "exact-paper"
    seeds = {False: (1,), True: (2,)}
    flexibilities = (0.5, 1.0)

    def setup(self, held_out: bool) -> list[Cell]:
        import repro.workloads.scenario as scenario_mod

        return [
            Cell(f"paper-s{s}-f{f:g}", scenario_mod.paper_scenario(s).with_flexibility(f))
            for s in self.seeds[held_out]
            for f in self.flexibilities
        ]

    def oracle(self, cell: Cell):
        from repro.mip.highs_backend import solve_relaxation

        bound = solve_relaxation(self._build(cell.inputs).model).objective
        return {"lp_bound": bound, "optimum": REFERENCE[self.name].get(cell.cid)}

    def check(self, cell: Cell, answer, expected) -> Checked:
        errors = self._common_errors(cell, answer)
        objective = answer[0].objective
        if not errors:
            slack = REL_TOL * max(1.0, abs(expected["lp_bound"]))
            if objective > expected["lp_bound"] + slack:
                errors.append(
                    f"{cell.cid}: objective {objective!r} above LP bound "
                    f"{expected['lp_bound']!r}"
                )
            optimum = expected["optimum"]
            if optimum is not None and not rel_close(objective, optimum, REL_TOL):
                errors.append(
                    f"{cell.cid}: objective {objective!r} != reference {optimum!r}"
                )
        return Checked(1, errors[:1])


class ExactBnb(_ExactCSigma):
    """Exact cSigma on 8-request small scenarios with the own B&B."""

    name = "exact-bnb"
    backend = "bnb"
    seeds = {False: (0, 1, 2, 3), True: (4, 5, 6, 7)}
    flexibility = 1.0

    def setup(self, held_out: bool) -> list[Cell]:
        import repro.workloads.scenario as scenario_mod

        return [
            Cell(
                f"small8-s{s}-f{self.flexibility:g}",
                scenario_mod.small_scenario(s, num_requests=8).with_flexibility(
                    self.flexibility
                ),
            )
            for s in self.seeds[held_out]
        ]

    def oracle(self, cell: Cell):
        return self._build(cell.inputs).solve_raw(backend="highs").objective

    def check(self, cell: Cell, answer, expected) -> Checked:
        errors = self._common_errors(cell, answer)
        objective = answer[0].objective
        if not errors and not rel_close(objective, expected, REL_TOL):
            errors.append(
                f"{cell.cid}: bnb objective {objective!r} != highs {expected!r}"
            )
        return Checked(1, errors[:1])


# ----------------------------------------------------------------------
class SweepFigures(Workload):
    """The quick figure sweep on two worker processes."""

    name = "sweep-figures"
    seeds = {False: (0, 1), True: (2, 3)}
    workers = 2

    def setup(self, held_out: bool) -> list[Cell]:
        from repro.evaluation.experiments import EvaluationConfig

        config = dataclasses.replace(
            EvaluationConfig.quick(), seeds=self.seeds[held_out], workers=self.workers
        )
        return [Cell("quick-sweep", config)]

    def run(self, cell: Cell, out_dir: Path):
        import repro.evaluation.experiments as experiments_mod

        store = out_dir / f"sweep-{os.getpid()}.jsonl"
        evaluation = experiments_mod.Evaluation(cell.inputs, store_path=str(store))
        evaluation.run_all()
        size = store.stat().st_size
        store.unlink()
        records = (
            evaluation.access_records
            + evaluation.greedy_records
            + evaluation.objective_records
        )
        return records, size

    def oracle(self, cell: Cell):
        config = cell.inputs
        cells = len(config.seeds) * len(config.flexibilities)
        return {"access": cells * len(config.models), "greedy": cells}

    def check(self, cell: Cell, answer, expected) -> Checked:
        records, _ = answer
        bad: dict[int, str] = {}
        for i, r in enumerate(records):
            label = f"{r.scenario}/f{r.flexibility:g}/{r.algorithm}/{r.objective_name}"
            if r.status != "solved":
                bad[i] = f"{label}: status {r.status!r} {r.error}"
            elif not r.verified_feasible:
                bad[i] = f"{label}: not verified feasible"
            elif r.algorithm != "greedy" and not r.proved_optimal:
                bad[i] = f"{label}: gap {r.gap!r}, expected optimal"
        exact_access = [
            i for i, r in enumerate(records)
            if r.objective_name == "access_control" and r.algorithm != "greedy"
        ]
        optima: dict = {}
        for i in exact_access:
            r = records[i]
            optima.setdefault((r.seed, r.flexibility), {})[r.algorithm] = r.objective
        for key, by_model in disagreeing_groups(optima, REL_TOL).items():
            for i in exact_access:
                if (records[i].seed, records[i].flexibility) == key:
                    bad.setdefault(i, f"seed={key[0]} flex={key[1]:g}: optima differ {by_model}")
        errors = list(bad.values())
        counts = {
            "access": len(exact_access),
            "greedy": sum(1 for r in records if r.algorithm == "greedy"),
        }
        attempted = len(records)
        for phase, want in expected.items():
            if counts[phase] != want:
                errors.append(f"{phase}: {counts[phase]} records, expected {want}")
                attempted += max(want - counts[phase], 0)
        return Checked(attempted, errors)

    def decisions(self, cell: Cell, answer, elapsed: float) -> dict:
        records, _ = answer
        return {
            (r.seed, r.flexibility, r.algorithm, r.objective_name): r.runtime
            for r in records
        }

    def store_bytes(self, answer) -> int:
        return answer[1]


WORKLOADS = {w.name: w for w in (GreedyPaper(), ExactPaper(), ExactBnb(), SweepFigures())}
