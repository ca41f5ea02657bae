"""One growing cSigma model across greedy insertions (Sec. V, fast path).

The greedy algorithm cSigma^G_A solves a cSigma model per insertion in
which only the newest request is undecided — yet the historical loop
rebuilt the *entire* model from scratch every iteration, re-emitting the
per-request embedding blocks of all previously processed requests
(O(|R|^2) embedding constructions over a run).

:class:`IncrementalCSigmaModel` keeps **one** :class:`~repro.mip.model.Model`
alive for the whole run and exploits the structure of the iteration
sequence:

* the per-request *embedding* blocks (placement/flow variables,
  Constraints (1)-(2)) depend only on the virtual network, the substrate
  and the fixed node mapping — never on the time windows — so they are
  **append-only**: each insertion adds exactly one new block and all
  previous blocks survive verbatim (their compiled CSR rows are reused
  through the model's :class:`~repro.mip.model._CompiledPrefix`);
* an accept is a **bound-only** update (``x_R`` fixed to 1 via
  :meth:`~repro.mip.model.Model.set_var_bounds`), which never touches
  the constraint matrix;
* a reject **withdraws** the candidate's block: the candidate is always
  the newest insert, so :meth:`~repro.mip.model.Model.truncate` rolls
  the model back to the mark taken before it was appended.  A rejected
  request holds no resources and cannot change any later optimum, so
  leaving it out realises the greedy's Constraint (25) by omission and
  keeps every iteration's model over accepted requests plus the
  candidate only;
* only the *temporal* tail (events, cuts, time coupling, states) is a
  global function of the request set — event counts and dependency
  ranges shift with every insertion — so it is rolled back with
  :meth:`~repro.mip.model.Model.truncate` and rebuilt per iteration.

Byte parity with the historical loop is load-bearing: the model this
class exposes at each iteration compiles to the *same*
:class:`~repro.mip.model.StandardForm` as a fresh
:class:`~repro.tvnep.csigma_model.CSigmaModel` over the same request
list — the pinned accepted requests plus the candidate
(``tests/tvnep/test_incremental_model.py``) — so the greedy makes
identical accept/reject decisions with either construction path.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping

from repro.exceptions import ValidationError
from repro.mip.model import Model, ModelMark
from repro.network.request import Request
from repro.network.substrate import SubstrateNetwork
from repro.observability.metrics import get_registry
from repro.tvnep.base import ModelOptions
from repro.tvnep.csigma_model import CSigmaModel
from repro.vnep.embedding_vars import NodeMapping

__all__ = ["IncrementalCSigmaModel"]


class IncrementalCSigmaModel(CSigmaModel):
    """A cSigma model grown one request at a time.

    Use as::

        inc = IncrementalCSigmaModel(substrate, options=opts, horizon=T)
        for request in order:
            inc.insert(request, mappings[request.name])
            inc.rebuild_tail()          # temporal layer over current set
            ... solve, read decision ...
            inc.decide(request.name, embedded, pinned_request)
        inc.rebuild_tail()              # final model: accepted set, pinned

    An accept pins ``x_R = 1`` (bound-only); a reject truncates the
    candidate's block away, so :attr:`requests` only ever holds the
    accepted requests plus the newest insert.

    After :meth:`rebuild_tail` the instance *is* a regular
    :class:`~repro.tvnep.csigma_model.CSigmaModel` — solve/extract/
    warm-start machinery is inherited unchanged.

    Parameters
    ----------
    substrate:
        The substrate network (shared by every iteration).
    options:
        Formulation options; ``time_horizon`` must be set (the greedy
        shares one horizon across iterations, so the growing model can
        too).
    horizon:
        The shared horizon ``T`` (must match ``options.time_horizon``
        when that is set).
    """

    def __init__(
        self,
        substrate: SubstrateNetwork,
        options: ModelOptions | None = None,
        horizon: float | None = None,
    ) -> None:
        # deliberately does NOT call CSigmaModel.__init__: the base
        # constructor builds a full model over a fixed request list,
        # while this class starts empty and grows
        self.substrate = substrate
        self.requests: list[Request] = []
        self.options = options or ModelOptions()
        if self.options.formulation not in ("columnar", "legacy"):
            raise ValidationError(
                f"unknown formulation {self.options.formulation!r} "
                "(expected 'columnar' or 'legacy')"
            )
        self._columnar = self.options.formulation == "columnar"
        self.model = Model(self.formulation_name)
        if horizon is None:
            horizon = self.options.time_horizon
        if horizon is None:
            raise ValidationError(
                "IncrementalCSigmaModel needs an explicit time horizon "
                "(there are no requests yet to infer one from)"
            )
        self.T = float(horizon)

        self._fixed_mappings: dict[str, dict[Hashable, Hashable]] = {}
        self.embeddings = {}
        self._index_of: dict[str, int] = {}
        #: checkpoint separating the persistent embedding prefix from
        #: the disposable temporal tail
        self._embedding_mark = self.model.mark()
        self._tail_built = False
        #: the newest insert and the mark taken just before it: a
        #: rejection truncates back to that mark
        self._newest: str | None = None
        self._insert_mark = self._embedding_mark

    # ------------------------------------------------------------------
    def insert(self, request: Request, mapping: NodeMapping | None) -> None:
        """Append ``request``'s embedding block (drops the temporal tail).

        The new request enters *undecided* (``x_R`` free); call
        :meth:`rebuild_tail` to get a solvable model and
        :meth:`decide` once the iteration's outcome is known.
        """
        if request.name in self._index_of:
            raise ValidationError(f"request {request.name!r} already inserted")
        if request.latest_end > self.T + 1e-9:
            raise ValidationError(
                "time horizon smaller than the latest request end"
            )
        self._drop_tail()
        checkpoint = self.model.mark()
        self.requests.append(request)
        self._index_of[request.name] = len(self.requests) - 1
        if mapping is not None:
            self._fixed_mappings[request.name] = dict(mapping)
        with get_registry().timer("model.build"):
            try:
                self._build_one_embedding(request)
            except Exception:
                # leave the model exactly as before the failed insert;
                # the caller typically rejects the request without it
                self._withdraw(request.name, checkpoint)
                raise
        self._embedding_mark = self.model.mark()
        self._newest = request.name
        self._insert_mark = checkpoint

    def decide(
        self, name: str, embedded: bool, pinned: Request | None = None
    ) -> None:
        """Settle the newest insert's outcome.

        An accept is bound-only (``x_R`` pinned to 1, matrix untouched):
        ``pinned`` is the zero-flexibility copy carrying the chosen
        window, and it replaces the original in :attr:`requests` so the
        next :meth:`rebuild_tail` computes event ranges from it — exactly
        what a fresh per-iteration model sees.

        A reject truncates the model back to the mark taken before the
        request's block was appended and forgets the request, so later
        iterations never carry it (``pinned`` is ignored).  Only the
        newest insert can be withdrawn that way.
        """
        if not embedded:
            if name != self._newest:
                raise ValidationError(
                    f"only the newest insert can be rejected, not {name!r}"
                )
            self._withdraw(name, self._insert_mark)
            return
        if pinned is None:
            raise ValidationError("an accept needs the pinned request copy")
        index = self._index_of[name]
        self.requests[index] = pinned
        emb = self.embeddings[name]
        emb.request = pinned
        self.model.set_var_bounds(emb.x_embed, 1.0, 1.0)

    def rebuild_tail(self) -> None:
        """(Re)build the temporal layer over the current request set.

        Raises
        ------
        ModelingError
            When the dependency cuts prove the current set infeasible
            (empty event range) — the same error a fresh model's
            constructor raises.  The model is left in the clean
            embeddings-only state, so the caller can :meth:`decide` a
            rejection and continue.
        """
        if not self.requests:
            raise ValidationError("TVNEP needs at least one request")
        self._drop_tail()
        with get_registry().timer("model.build"):
            try:
                self._build_temporal()
            except Exception:
                self.model.truncate(self._embedding_mark)
                raise
            self.set_access_control_objective()
            self._tail_built = True
        self._emit_build_event(incremental=True)

    def contains(self, name: str) -> bool:
        """Whether a request's block is in the model (inserted, not withdrawn)."""
        return name in self._index_of

    # ------------------------------------------------------------------
    def _withdraw(self, name: str, mark: ModelMark) -> None:
        """Drop ``name`` (the newest insert) and roll the model to ``mark``."""
        self.model.truncate(mark)
        self._embedding_mark = mark
        self._tail_built = False
        self._newest = None
        self.requests.pop()
        del self._index_of[name]
        self._fixed_mappings.pop(name, None)
        self.embeddings.pop(name, None)

    def _drop_tail(self) -> None:
        if self._tail_built:
            self.model.truncate(self._embedding_mark)
            self._tail_built = False
