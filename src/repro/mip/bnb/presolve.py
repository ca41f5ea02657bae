"""Bound-tightening presolve for the branch-and-bound solver.

Implements the classic feasibility-based bound propagation: for every
row ``L <= a x <= U`` and every participating column, the residual
activity of the other columns implies a bound on that column.  Integral
columns are rounded inward.  Iterated to a fixed point (or a round
limit), this shrinks the search box before branching starts — on big-M
formulations like the Delta-Model it often fixes many of the gating
binaries outright.

The entry point :func:`tighten_bounds` works on the compiled
:class:`~repro.mip.model.StandardForm` arrays, so it composes with the
per-node bound arrays of :class:`BranchAndBoundSolver`.

Rounds are Gauss–Seidel sweeps in row order: each row sees the bounds
the rows before it already tightened.  Only rows that can change
something reach the row-by-row propagation:

* At the start of a round a vectorised *screen* looks at every row with
  a column that changed since the row was last processed or screened
  (every row in round one).  With the round-start bounds it flags each
  row whose propagation could tighten a bound (its comparisons are
  loosened by a margin that covers the rounding difference between the
  screen's summation order and the row code's), prove the row
  infeasible (an empty row included), or meet a column whose bounds
  already cross.
* The sweep then processes, in row order, every flagged row and every
  row with a column that changed earlier in the same sweep.

Skipping is exact.  A skipped row's columns hold the bounds the row was
last screened or processed with, and under those bounds its propagation
computes "no change"; the full sweep would recompute exactly that.  So
``lb``/``ub``, ``feasible``, ``rounds`` and ``tightenings`` are
byte-identical to processing every row in every round.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.mip.model import StandardForm

__all__ = ["PresolveResult", "tighten_bounds"]

_FEAS_TOL = 1e-9
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


@dataclass
class PresolveResult:
    """Outcome of a presolve pass."""

    lb: np.ndarray
    ub: np.ndarray
    feasible: bool
    tightenings: int
    rounds: int
    #: rows that went through the row-by-row propagation, over all rounds
    rows_processed: int


def tighten_bounds(
    form: StandardForm,
    lb: np.ndarray,
    ub: np.ndarray,
    max_rounds: int = 10,
) -> PresolveResult:
    """Propagate row activities into variable bounds.

    Parameters
    ----------
    form:
        Compiled model (rows are two-sided ``row_lb <= Ax <= row_ub``).
    lb, ub:
        Starting bounds (not mutated).
    max_rounds:
        Stop after this many full sweeps even if not at a fixed point.

    Returns
    -------
    PresolveResult
        With ``feasible=False`` when propagation proves the box empty.
    """
    lb = lb.astype(float, copy=True)
    ub = ub.astype(float, copy=True)
    A = form.A.tocsr()
    indptr, indices, data = A.indptr, A.indices, A.data
    integral = form.integrality.astype(bool)
    screen = _RowScreen(A, form.row_lb, form.row_ub)
    by_col = A.tocsc()
    col_start, col_rows = by_col.indptr, by_col.indices

    total = 0
    rounds = 0
    processed = 0
    to_screen = np.arange(A.shape[0])
    for rounds in range(1, max_rounds + 1):
        changed = 0
        queue = screen.flagged(to_screen, lb, ub).tolist()  # ascending: a heap
        queued = set(queue)
        # rows at or before the sweep position whose columns moved: the
        # next round screens exactly these
        stale = np.zeros(A.shape[0], dtype=bool)
        while queue:
            row = heapq.heappop(queue)
            processed += 1
            start, end = indptr[row], indptr[row + 1]
            cols = indices[start:end]
            coefs = data[start:end]
            row_lo, row_hi = form.row_lb[row], form.row_ub[row]
            if cols.size == 0:
                # an empty row has activity exactly 0: infeasible when 0
                # lies outside [row_lo, row_hi], vacuous otherwise
                if row_lo > _FEAS_TOL or row_hi < -_FEAS_TOL:
                    return PresolveResult(
                        lb, ub, False, total + changed, rounds, processed
                    )
                continue

            # activity bounds of the whole row; infinities are tracked by
            # count so single-infinite-term residuals stay exact
            pos = coefs > 0
            min_terms = np.where(pos, coefs * lb[cols], coefs * ub[cols])
            max_terms = np.where(pos, coefs * ub[cols], coefs * lb[cols])
            min_inf = np.isneginf(min_terms)
            max_inf = np.isposinf(max_terms)
            min_finite_sum = min_terms[~min_inf].sum()
            max_finite_sum = max_terms[~max_inf].sum()
            num_min_inf = int(min_inf.sum())
            num_max_inf = int(max_inf.sum())
            min_act = -math.inf if num_min_inf else min_finite_sum
            max_act = math.inf if num_max_inf else max_finite_sum
            if min_act > row_hi + _FEAS_TOL or max_act < row_lo - _FEAS_TOL:
                return PresolveResult(
                    lb, ub, False, total + changed, rounds, processed
                )

            moved = []
            for k in range(cols.size):
                j = cols[k]
                a = coefs[k]
                before = changed
                if min_inf[k]:
                    rest_min = min_finite_sum if num_min_inf == 1 else -math.inf
                else:
                    rest_min = -math.inf if num_min_inf else min_finite_sum - min_terms[k]
                if max_inf[k]:
                    rest_max = max_finite_sum if num_max_inf == 1 else math.inf
                else:
                    rest_max = math.inf if num_max_inf else max_finite_sum - max_terms[k]
                # a * x_j <= row_hi - rest_min  and  a * x_j >= row_lo - rest_max
                if math.isfinite(row_hi) and math.isfinite(rest_min):
                    if a > 0:
                        new_ub = (row_hi - rest_min) / a
                        if new_ub < ub[j] - 1e-9:
                            ub[j] = _round_in(new_ub, integral[j], up=False)
                            changed += 1
                    else:
                        new_lb = (row_hi - rest_min) / a
                        if new_lb > lb[j] + 1e-9:
                            lb[j] = _round_in(new_lb, integral[j], up=True)
                            changed += 1
                if math.isfinite(row_lo) and math.isfinite(rest_max):
                    if a > 0:
                        new_lb = (row_lo - rest_max) / a
                        if new_lb > lb[j] + 1e-9:
                            lb[j] = _round_in(new_lb, integral[j], up=True)
                            changed += 1
                    else:
                        new_ub = (row_lo - rest_max) / a
                        if new_ub < ub[j] - 1e-9:
                            ub[j] = _round_in(new_ub, integral[j], up=False)
                            changed += 1
                if lb[j] > ub[j] + _FEAS_TOL:
                    return PresolveResult(
                        lb, ub, False, total + changed, rounds, processed
                    )
                if changed != before:
                    moved.append(j)

            # rows after this one see the moved bounds in this sweep;
            # the others (this row included) in the next round's screen
            for j in moved:
                for other in col_rows[col_start[j] : col_start[j + 1]].tolist():
                    if other > row:
                        if other not in queued:
                            queued.add(other)
                            heapq.heappush(queue, other)
                    else:
                        stale[other] = True
        total += changed
        if changed == 0:
            break
        to_screen = np.flatnonzero(stale)
    return PresolveResult(lb, ub, True, total, rounds, processed)


class _RowScreen:
    """Vectorised, conservative test of which rows propagation could touch.

    :meth:`flagged` never misses a row whose row-by-row propagation
    (the loop body of :func:`tighten_bounds`) would tighten a bound or
    stop the presolve under the given bounds; it may flag a few rows
    that turn out to be no-ops.  The activity sums are taken in a
    different order than the row code takes them, so every comparison
    is loosened by a bound on that rounding difference; anything
    non-finite where the row code would see a finite value is flagged.
    """

    def __init__(self, A, row_lb: np.ndarray, row_ub: np.ndarray) -> None:
        self.indptr, self.indices, self.data = A.indptr, A.indices, A.data
        self.row_lb = np.asarray(row_lb, dtype=float)
        self.row_ub = np.asarray(row_ub, dtype=float)
        self.length = np.diff(A.indptr)

    def flagged(
        self, rows: np.ndarray, lb: np.ndarray, ub: np.ndarray
    ) -> np.ndarray:
        """The rows of ``rows`` (ascending) propagation could act on."""
        count = rows.size
        length = self.length[rows]
        seg = np.repeat(np.arange(count), length)
        # positions of the rows' nonzeros in the CSR arrays
        first = np.repeat(self.indptr[rows] - np.cumsum(length) + length, length)
        nz = first + np.arange(seg.size)
        cols = self.indices[nz]
        a = self.data[nz]
        with np.errstate(all="ignore"):
            lo, hi = lb[cols], ub[cols]
            pos = a > 0
            # the row code's terms, elementwise bit for bit
            min_terms = np.where(pos, a * lo, a * hi)
            max_terms = np.where(pos, a * hi, a * lo)
            min_inf = np.isneginf(min_terms)
            max_inf = np.isposinf(max_terms)
            min_fin = np.where(min_inf, 0.0, min_terms)
            max_fin = np.where(max_inf, 0.0, max_terms)
            num_min_inf = np.bincount(seg[min_inf], minlength=count)
            num_max_inf = np.bincount(seg[max_inf], minlength=count)
            min_sum = np.bincount(seg, min_fin, count)
            max_sum = np.bincount(seg, max_fin, count)
            min_abs = np.bincount(seg, np.abs(min_fin), count)
            max_abs = np.bincount(seg, np.abs(max_fin), count)
            row_lo, row_hi = self.row_lb[rows], self.row_ub[rows]

            # row infeasibility (either summation order within the error)
            span = 4.0 * _EPS * (length + 2)
            # (an empty row's activity is exactly 0, so this test decides
            # it exactly)
            row_quiet = (
                (num_min_inf > 0)
                | (min_sum + span * min_abs <= row_hi + _FEAS_TOL)
            ) & (
                (num_max_inf > 0)
                | (max_sum - span * max_abs >= row_lo - _FEAS_TOL)
            )

            # implied bounds; the residual is finite exactly where the
            # row code's infinity counts make it so
            n = length[seg]
            lo_side, hi_side = row_lo[seg], row_hi[seg]
            rest_min = np.where(min_inf, min_sum[seg], min_sum[seg] - min_terms)
            rest_max = np.where(max_inf, max_sum[seg], max_sum[seg] - max_terms)
            live_hi = np.isfinite(hi_side) & np.where(
                min_inf, num_min_inf[seg] == 1, num_min_inf[seg] == 0
            )
            live_lo = np.isfinite(lo_side) & np.where(
                max_inf, num_max_inf[seg] == 1, num_max_inf[seg] == 0
            )
            mag = np.abs(a)
            implied_hi = (hi_side - rest_min) / a
            implied_lo = (lo_side - rest_max) / a
            margin_hi = _margin(n, min_abs[seg], hi_side, mag, implied_hi)
            margin_lo = _margin(n, max_abs[seg], lo_side, mag, implied_lo)
            # the row code moves ub below ub - 1e-9 or lb above lb + 1e-9
            ub_line = hi - 1e-9
            lb_line = lo + 1e-9
            keeps_hi = np.where(
                pos,
                implied_hi - margin_hi >= ub_line,
                implied_hi + margin_hi <= lb_line,
            )
            keeps_lo = np.where(
                pos,
                implied_lo + margin_lo <= lb_line,
                implied_lo - margin_lo >= ub_line,
            )
            quiet = (
                (pos | (a < 0))
                & (lo <= hi + _FEAS_TOL)
                & (~live_hi | (np.isfinite(margin_hi) & keeps_hi))
                & (~live_lo | (np.isfinite(margin_lo) & keeps_lo))
            )
        loud = ~row_quiet
        loud[seg[~quiet]] = True
        return rows[loud]


def _margin(n, abs_sum, side, mag, implied):
    """Bound on how far the screen's implied bound can sit from the row code's.

    Both sum the same ``n`` terms of absolute sum ``abs_sum`` in a
    different order, subtract one term, subtract from ``side`` and
    divide by the coefficient; this is a generous (8x) bound on the
    accumulated rounding of those steps.
    """
    spread = (n + 4) * (abs_sum + np.abs(side)) / mag + np.abs(implied)
    return 8.0 * _EPS * spread + _TINY


def _round_in(value: float, is_integral: bool, up: bool) -> float:
    """Round a bound inward for integral columns (with tolerance)."""
    if not is_integral or not math.isfinite(value):
        return value
    return math.ceil(value - 1e-9) if up else math.floor(value + 1e-9)
