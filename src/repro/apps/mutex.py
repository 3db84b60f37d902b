"""Distributed mutual exclusion verification.

[11] demonstrates the use of the synchronization relations in
*distributed mutual exclusion*: each occupancy of a (possibly
replicated) critical section is a nonatomic event — the set of
lock-hold events across every replica node — and safety demands that
two occupancies never causally interleave.

In relation terms, occupancies X and Y are safely serialised iff one
completely precedes the other through its proxies:

    ``R1(U,L)(X, Y)  or  R1(U,L)(Y, X)``

i.e. the *end* proxy of one occupancy happens before the *begin* proxy
of the other on every node pair.  :class:`MutualExclusionChecker`
verifies this for every pair of occupancies in a trace; a
token-ring-based workload generator produces correct executions, with
an optional fault injection that violates exclusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.evaluator import SynchronizationAnalyzer
from ..core.relations import Relation, RelationSpec
from ..events.builder import TraceBuilder
from ..events.poset import Execution
from ..nonatomic.event import NonatomicEvent
from ..nonatomic.proxies import Proxy
from ..nonatomic.selection import by_label_prefix

__all__ = [
    "ExclusionViolation",
    "MutualExclusionChecker",
    "token_mutex_trace",
]

_R1_UL = RelationSpec(Relation.R1, Proxy.U, Proxy.L)


@dataclass(frozen=True, slots=True)
class ExclusionViolation:
    """Two critical-section occupancies that causally interleave."""

    first: NonatomicEvent
    second: NonatomicEvent

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"occupancies {self.first.name!r} and {self.second.name!r} "
            "are not serialised"
        )


class MutualExclusionChecker:
    """Check pairwise serialisation of critical-section occupancies.

    Parameters
    ----------
    execution:
        The recorded execution.
    engine:
        Relation engine to use (default: the paper's linear evaluator).
    """

    def __init__(self, execution: Execution, engine: str = "linear") -> None:
        from ..core.context import AnalysisContext

        self.execution = execution
        self.context = AnalysisContext.of(execution)
        self.analyzer = SynchronizationAnalyzer(self.context, engine=engine)

    def occupancies(self, prefix: str = "cs:") -> dict[str, NonatomicEvent]:
        """Collect occupancies: one interval per distinct ``prefix``
        label in the trace."""
        return by_label_prefix(self.execution, prefix)

    def serialised(self, x: NonatomicEvent, y: NonatomicEvent) -> bool:
        """True iff X wholly precedes Y or Y wholly precedes X
        (``R1(U,L)`` one way or the other)."""
        return self.analyzer.holds(_R1_UL, x, y) or self.analyzer.holds(
            _R1_UL, y, x
        )

    def check(self, prefix: str = "cs:") -> list[ExclusionViolation]:
        """All violating occupancy pairs (empty = exclusion holds).

        The 2·C(k,2) ``R1(U,L)`` queries are answered through
        :meth:`SynchronizationAnalyzer.batch_holds`, which fills the
        occupancies' operand tensor once and answers every query with
        one gather — the planner's canonical workload.
        """
        occs = sorted(self.occupancies(prefix).values(), key=lambda o: o.name or "")
        pairs = [
            (occs[i], occs[j])
            for i in range(len(occs))
            for j in range(i + 1, len(occs))
        ]
        queries = [(_R1_UL, x, y) for x, y in pairs]
        queries += [(_R1_UL, y, x) for x, y in pairs]
        answers = self.analyzer.batch_holds(queries)
        n = len(pairs)
        return [
            ExclusionViolation(x, y)
            for i, (x, y) in enumerate(pairs)
            if not (answers[i] or answers[n + i])
        ]


def token_mutex_trace(
    num_nodes: int,
    occupancies: int = 4,
    replicas: int = 2,
    violate: bool = False,
    seed: int | np.random.Generator = 0,
) -> tuple[Execution, dict[str, NonatomicEvent]]:
    """Token-based mutual exclusion over a replicated resource.

    A token circulates; the holder of occupancy ``j`` performs
    lock-hold events (labelled ``f"cs:{j}"``) on its own node and on
    ``replicas - 1`` replica nodes (reached by request/ack messages
    inside the occupancy), then passes the token on.  With
    ``violate=True``, the final occupancy starts *without* waiting for
    the token — a race that breaks serialisation and is caught by
    :class:`MutualExclusionChecker`.

    Returns the analysed execution and the occupancy intervals.
    """
    if num_nodes < 2 or replicas < 1 or replicas > num_nodes:
        raise ValueError("need num_nodes >= 2 and 1 <= replicas <= num_nodes")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    b = TraceBuilder(num_nodes)
    t = 0.0
    token = None
    holders = [int(rng.integers(0, num_nodes)) for _ in range(occupancies)]
    if violate and len(holders) >= 2 and holders[-1] == holders[-2]:
        # the race is only observable when the offending occupancy runs
        # on a different node (program order would serialise it otherwise)
        holders[-1] = (holders[-2] + 1) % num_nodes
    for j, holder in enumerate(holders):
        label = f"cs:{j}"
        last_occupancy = j == len(holders) - 1
        if token is not None and not (violate and last_occupancy):
            t += 1.0
            b.recv(holder, token, label="token", time=t)
        # lock-hold on the holder's own node
        t += 1.0
        b.internal(holder, label=label, time=t)
        # touch replica nodes inside the occupancy
        others = [n for n in range(num_nodes) if n != holder]
        rng.shuffle(others)
        for rep in others[: replicas - 1]:
            t += 1.0
            req = b.send(holder, label="lock-req", time=t)
            t += 1.0
            b.recv(rep, req, label=label, time=t)
            t += 1.0
            ack = b.send(rep, label=label, time=t)
            t += 1.0
            b.recv(holder, ack, label="lock-ack", time=t)
        t += 1.0
        b.internal(holder, label=label, time=t)  # unlock marker
        t += 1.0
        token = b.send(holder, label="token", time=t)
    ex = b.execute()
    return ex, by_label_prefix(ex, "cs:")
