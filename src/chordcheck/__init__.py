"""Corrected Chord ring maintenance: executable state machine, invariant
checker, and convergence simulator."""

from .ident import RingParams, between, clockwise_rank
from .netstate import Network, NodeState, Trace, extended_succ_list, init_network
from .events import Event, EventKind, apply_event, enabled_events
from .topology import best_successor, is_ideal, lookup_succ, ring_members
from .invariants import conjuncts, list_properties, skips, trial_predicates
from .measure import effective_enabled, error_vector, total_error

__all__ = [
    "RingParams",
    "between",
    "clockwise_rank",
    "Network",
    "NodeState",
    "Trace",
    "extended_succ_list",
    "init_network",
    "Event",
    "EventKind",
    "apply_event",
    "enabled_events",
    "best_successor",
    "is_ideal",
    "lookup_succ",
    "ring_members",
    "conjuncts",
    "list_properties",
    "skips",
    "trial_predicates",
    "effective_enabled",
    "error_vector",
    "total_error",
]
