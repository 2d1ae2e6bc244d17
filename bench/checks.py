"""Output checks and the percentile for the benchmark, independent of chordcheck.

Every check compares a verdict or an output against a property it must
have, or against a computation made here apart from the code under test;
none compares against a stored copy of earlier output. Each check returns
None when it passes and a one-line reason when it fails.
"""

from __future__ import annotations

import math


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q of the samples at or below it.

    For 200 samples and q = 0.95 this is the 190th smallest, so 10 samples
    lie beyond it.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


# --- lemma checks --------------------------------------------------------------


def lemma_verdict(report, expected_states):
    """A lemma command passes with no violations over exactly the expected states."""
    if report.violation_count:
        return f"{report.lemma}: {report.violation_count} violations"
    if report.info.get("capped"):
        return f"{report.lemma}: stopped at its violation cap"
    if report.states_checked != expected_states:
        return (
            f"{report.lemma}: checked {report.states_checked} states, "
            f"expected {expected_states}"
        )
    return None


def canary_verdict(report):
    """A fault canary must be caught: a kernel fault that passes makes every pass vacuous."""
    if report.passed:
        return f"canary not caught over {report.states_checked} states"
    return None


def explore_verdict(report):
    """An exploration passes when nothing is violated, nothing is cut off, and
    every reached state other than the start was reached by a transition."""
    info = report.info
    if report.violation_count:
        return f"exploration: {report.violation_count} violations"
    if info["truncated"]:
        return "exploration truncated"
    if info["transitions"] < info["states"] - 1:
        return f"exploration: {info['transitions']} transitions for {info['states']} states"
    return None


# --- simulation checks -----------------------------------------------------------


def ideal_reason(net):
    """Independent ideality test: None when ideal, else the first discrepancy.

    Sort the live identifiers; every member's list must hold the next r
    members clockwise and its predecessor must be the previous member.
    """
    ring = sorted(net.live)
    r = net.params.r
    k = len(ring)
    if k < r + 1:
        return f"{k} members cannot fill lists of length {r}"
    for pos, n in enumerate(ring):
        state = net.nodes[n]
        want = tuple(ring[(pos + j) % k] for j in range(1, r + 1))
        if tuple(state.succ_list) != want:
            return f"member {n} lists {list(state.succ_list)}, expected {list(want)}"
        if state.pred != ring[pos - 1]:
            return f"member {n} has pred {state.pred}, expected {ring[pos - 1]}"
    return None


def pointers(net):
    return net.live, {n: (net.nodes[n].pred, net.nodes[n].succ_list) for n in net.live}


def repair_round_reason(net, events):
    """One round of repair on an ideal network must change no pointer.

    Every member in turn stabilizes, completes the adoption step with the
    candidate it acquired, and notifies its first successor.
    """
    before = pointers(net)
    for n in sorted(net.live):
        net = events.apply_stabilize_from_old_successor(net, n)
        net = events.apply_stabilize_from_new_successor(net, n)
        net = events.apply_rectify(net, net.nodes[n].succ_list[0], n)
    if pointers(net) != before:
        return "a round of repair events changed an ideal network"
    return None


def budget_reason(effective_steps, initial_error):
    """Effective repair steps stay within the total error at the start of repair."""
    if effective_steps > initial_error:
        return f"{effective_steps} effective repair steps exceed the initial error {initial_error}"
    return None


def replay_reason(trace, replayed):
    """Replay must reproduce the initial network and every snapshot of the run."""
    if replayed.initial != trace.initial:
        return "replay starts from another network"
    if len(replayed.steps) != len(trace.steps):
        return f"replay has {len(replayed.steps)} steps, the run {len(trace.steps)}"
    for i, (a, b) in enumerate(zip(trace.steps, replayed.steps), start=1):
        if a.network != b.network or a.event != b.event:
            return f"replay differs from the run at step {i}"
    return None
