"""Deciding piecewise testability of regular languages.

A language is piecewise testable (PT) when it is a finite boolean combination
of "piece" languages Sigma* a1 Sigma* ... Sigma* an Sigma*. On the minimal
complete DFA this is a structural property: the language is NOT PT exactly
when the automaton contains a cycle through at least two distinct states, or
three distinct states p, q, q' such that q and q' are both reachable from p
by words using only letters that self-loop at both q and q'. Both failure
modes are returned as replayable witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .automata import (
    AutomatonError,
    Dfa,
    Nfa,
    Word,
    minimize,
    scc_decomposition,
    self_loop_letters,
    shortest_run,
)


class NotMinimalError(AutomatonError):
    """The structural test was applied to a non-minimal DFA."""


@dataclass(frozen=True)
class NontrivialCycle:
    """A closed run visiting at least two distinct states.

    ``states`` is the full state sequence of the run (first equals last) and
    ``word`` labels it transition by transition.
    """

    states: tuple[str, ...]
    word: Word


@dataclass(frozen=True)
class Triple:
    """States p, q, q' (pairwise distinct) with runs p --w--> q and
    p --w'--> q' where w and w' use only letters of ``gamma``, the set of
    letters self-looping at both q and q'."""

    p: str
    q: str
    q_prime: str
    w: Word
    w_prime: Word
    gamma: frozenset[str]


PtWitness = NontrivialCycle | Triple


@dataclass(frozen=True)
class PtVerdict:
    """Outcome of a piecewise-testability check. ``witness`` is present
    exactly when ``is_pt`` is False and replays against ``minimal_dfa``."""

    is_pt: bool
    witness: PtWitness | None
    minimal_dfa: Dfa


def condition1_nontrivial_cycle(d: Dfa) -> NontrivialCycle | None:
    """First failure mode: a cycle through >= 2 distinct states, found as a
    strongly connected component of size >= 2 (self-loops are irrelevant)."""
    for comp in scc_decomposition(d, d.alphabet):
        if len(comp.states) < 2:
            continue
        p = min(comp.states)
        out = shortest_run(d, {p}, comp.states - {p}, within=comp.states)
        assert out is not None
        w_out, path_out = out
        q = path_out[-1]
        back = shortest_run(d, {q}, {p}, within=comp.states)
        assert back is not None
        w_back, path_back = back
        return NontrivialCycle(states=path_out + path_back[1:], word=w_out + w_back)
    return None


def condition2_triple(d: Dfa) -> Triple | None:
    """Second failure mode. At the sorted-first pair (q, q') with a nonempty
    common self-loop alphabet gamma that a third state reaches within gamma,
    p is the least such state, found by two backward searches over in-edges
    (self-loops dropped): O(n + |delta|) per pair, O(n^2 (n + |delta|)) in
    all. The in-edges are read off the full rows, the moves into the
    implicit sink included. The witness words are shortest runs."""
    states = sorted(d.states)
    loops = {q: self_loop_letters(d, q) for q in states}
    into: dict[str, list[tuple[str, str]]] = {q: [] for q in states}
    for src, row in d._full_out().items():
        for sym, (dst,) in row.items():
            if src != dst:
                into[dst].append((sym, src))

    def reaching(target: str, gamma: frozenset[str]) -> set[str]:
        seen, queue = {target}, [target]
        for q in queue:
            for sym, src in into[q]:
                if src not in seen and sym in gamma:
                    seen.add(src)
                    queue.append(src)
        return seen

    for i, q in enumerate(states):
        for q_prime in states[i + 1 :]:
            gamma = loops[q] & loops[q_prime]
            if not gamma:
                continue
            both = (reaching(q, gamma) & reaching(q_prime, gamma)) - {q, q_prime}
            if both:
                p = min(both)
                run_q = shortest_run(d, {p}, {q}, gamma=gamma)
                run_qp = shortest_run(d, {p}, {q_prime}, gamma=gamma)
                assert run_q is not None and run_qp is not None
                return Triple(p, q, q_prime, run_q[0], run_qp[0], gamma)
    return None


def _structural_verdict(d: Dfa) -> PtVerdict:
    """The cycle test, then the triple test, on a DFA known to be minimal."""
    witness = condition1_nontrivial_cycle(d) or condition2_triple(d)
    return PtVerdict(is_pt=witness is None, witness=witness, minimal_dfa=d)


def is_pt_dfa(d: Dfa) -> PtVerdict:
    """Decide piecewise testability of a minimal complete DFA.

    Raises NotMinimalError when ``d`` is not minimal (the structural
    characterization is only valid on the minimal automaton). The cycle
    condition is checked before the triple condition.
    """
    if len(minimize(d).states) < len(d.states):
        raise NotMinimalError("the structural test requires the minimal DFA")
    return _structural_verdict(d)


def is_pt_nfa(a: Nfa) -> PtVerdict:
    """Decide piecewise testability of an arbitrary NFA by applying the
    structural DFA test to its minimal DFA."""
    return _structural_verdict(a._minimal)


def verify_pt_witness(verdict: PtVerdict) -> bool:
    """Replay a verdict's witness against its minimal DFA by direct
    simulation; a PT verdict is valid iff it carries no witness, and a
    witness naming a state or letter outside the DFA is invalid."""
    d = verdict.minimal_dfa
    w = verdict.witness
    if verdict.is_pt:
        return w is None
    if isinstance(w, NontrivialCycle):
        if len(w.states) != len(w.word) + 1:
            return False
        if w.states[0] != w.states[-1] or len(set(w.states)) < 2:
            return False
        if not (set(w.states) <= d.states and frozenset(w.word) <= d.alphabet):
            return False
        steps = zip(w.states, w.word, w.states[1:])
        return all(d.step(cur, sym) == nxt for cur, sym, nxt in steps)
    if isinstance(w, Triple):
        names = {w.p, w.q, w.q_prime}
        if len(names) != 3 or not names <= d.states:
            return False
        if w.gamma != self_loop_letters(d, w.q) & self_loop_letters(d, w.q_prime):
            return False
        if not (frozenset(w.w) <= w.gamma and frozenset(w.w_prime) <= w.gamma):
            return False
        return reduce(d.step, w.w, w.p) == w.q and reduce(d.step, w.w_prime, w.p) == w.q_prime
    return False
