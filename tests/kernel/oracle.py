"""The no-skip oracle for the propagator's skips.

:class:`FuzzyPropagator` skips any constraint none of whose watched
variables changed since it last fired, skips any input combination it
has already projected, and memoises each variable's input pool.
:class:`NoSkipPropagator` clears the constraint's firing stamp and both
memos before every ``_apply``, so no skip ever fires and every firing
recomputes every projection from freshly sorted pools: the plain
work-list fixpoint the skips must be observationally identical to.
:class:`OracleFlames` hands that propagator to every diagnosis, one-shot
and incremental alike.
"""

from repro.core.diagnosis import Flames
from repro.core.propagation import FuzzyPropagator


class NoSkipPropagator(FuzzyPropagator):
    """A propagator that refires every popped constraint in full."""

    def _apply(self, constraint):
        self._fired_at.pop(id(constraint), None)
        self._clear_memos()
        return super()._apply(constraint)


class OracleFlames(Flames):
    """A FLAMES engine whose propagators never take the skip."""

    def make_propagator(self) -> FuzzyPropagator:
        return NoSkipPropagator(self.network, config=self.config.propagator)
