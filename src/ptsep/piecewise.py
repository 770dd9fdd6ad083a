"""Deciding piecewise testability of regular languages.

A language is piecewise testable (PT) when it is a finite boolean combination
of "piece" languages Sigma* a1 Sigma* ... Sigma* an Sigma*. On the minimal
complete DFA this is a structural property: the language is NOT PT exactly
when the automaton contains a cycle through at least two distinct states, or
three distinct states p, q, q' such that q and q' are both reachable from p
by words using only letters that self-loop at both q and q'. The cycle test
reads the strongly connected components; the triple test checks only the
pairs (q, q') that a branching state can split, which it finds from the
branching moves and the forward reaches of their targets. Both failure
modes are returned as replayable witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterator

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


def _members(mask: int) -> Iterator[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _forward_mask(
    root: str, succ: dict[str, dict[str, str]], bit: dict[str, int], reach: dict[str, int]
) -> int:
    """The mask of the states that root reaches along ``succ`` (state ->
    letter -> target), each state counted by its ``bit``. ``reach`` holds
    the masks found so far and gains those of every state root reaches:
    Tarjan's search gives a strongly connected component the reach of its
    members and of the components below it, and stops at the states an
    earlier search has finished."""
    if root in reach:
        return reach[root]
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    acc: dict[str, int] = {}
    stack: list[str] = []
    work: list[tuple[str, Iterator[str]]] = []

    def visit(q: str) -> None:
        index[q] = low[q] = len(index)
        acc[q] = bit[q]
        stack.append(q)
        work.append((q, iter(set(succ[q].values()))))

    visit(root)
    while work:
        q, it = work[-1]
        for t in it:
            if t in reach:
                acc[q] |= reach[t]
            elif t not in index:
                visit(t)
                break
            else:  # t is on the stack
                low[q] = min(low[q], index[t])
        else:
            work.pop()
            if low[q] == index[q]:
                comp, mask = [], 0
                while not comp or comp[-1] != q:
                    comp.append(stack.pop())
                    mask |= acc[comp[-1]]
                reach.update(dict.fromkeys(comp, mask))
            if work:
                parent = work[-1][0]
                if q in reach:
                    acc[parent] |= reach[q]
                else:
                    low[parent] = min(low[parent], low[q])
    return reach[root]


def condition2_triple(d: Dfa) -> Triple | None:
    """Second failure mode: the sorted-first pair (q, q') with a nonempty
    common self-loop alphabet gamma that a third state reaches within gamma.
    p is the least such state and the witness words are shortest runs.

    Only the pairs that a branching state can split are checked. On any
    DFA, cycles allowed, with q != q' and gamma = loops(q) & loops(q'): some
    p reaches both q and q' within gamma exactly when some state p has moves
    p.a and p.b with a != b in gamma, p, p.a and p.b pairwise distinct, q
    reachable from p.a within gamma and q' from p.b. (Take the p, w, w' with
    |w| + |w'| least: their first letters differ, neither loops at p, and
    the two lead to different states, or a shorter pair of runs exists.)
    So a pair is a candidate when both its states loop on the letters a and
    b of such a branching move and lie in the forward reaches of p.a and
    p.b over the letters that loop at two states or more; a letter pair is
    tried only when two states loop on both its letters. The candidates are
    visited in sorted order, each by the exact check: two backward searches
    over in-edges (self-loops dropped), read off the full rows with the
    moves into the implicit sink.

    Cost: the rows are read once, O(n |Sigma|), and so are the B branching
    moves (p, a, b). The forward reaches come from Tarjan searches rooted
    at the targets of branching moves, which finish each state once:
    O(n + |delta|) steps on n-bit masks in all. Each state reads the
    branching moves of the letter pairs it loops on, O(n (P + B)) mask
    operations for P letter pairs, and each candidate costs O(n + |delta|).
    Without a branching move no search runs; when every pair is a
    candidate, the bound is the full scan's O(n^2 (n + |delta|)).
    """
    if len(d.states) < 3:
        return None
    states = sorted(d.states)
    bit = {q: 1 << i for i, q in enumerate(states)}
    loops = {q: self_loop_letters(d, q) for q in states}
    looping = dict.fromkeys(d.alphabet, 0)  # letter -> mask of the states it loops at
    for q in states:
        for sym in loops[q]:
            looping[sym] |= bit[q]
    shared = {sym for sym, m in looping.items() if m & (m - 1)}
    if len(shared) < 2:
        return None
    # each state's moves on the shared letters that leave it
    rows, sink = d._out, d._sink
    exits: dict[str, dict[str, str]] = {}
    for q in states:
        row = rows[q]
        out = exits[q] = {sym: t for sym, (t,) in row.items() if t != q and sym in shared}
        if sink is not None and q != sink:
            out.update(dict.fromkeys(shared - row.keys(), sink))
    # the branching moves, by letter pair a < b that two states or more loop
    # on: the targets (p.a, p.b) of every state p that branches on a and b
    pairable: dict[str, set[str]] = {}
    splits: dict[tuple[str, str], set[tuple[str, str]]] = {}
    for p in states:
        out = exits[p]
        if len(set(out.values())) < 2:
            continue
        for a, s in out.items():
            if a not in pairable:
                la = looping[a]
                pairable[a] = {b for b in shared if b > a and (m := la & looping[b]) & (m - 1)}
            for b in pairable[a] & out.keys():
                if out[b] != s:
                    splits.setdefault((a, b), set()).add((s, out[b]))
    common = {(a, b): looping[a] & looping[b] for a, b in splits}
    reach: dict[str, int] = {}
    marks: dict[tuple[str, str], set[tuple[int, int]]] = {}

    def marked(ab: tuple[str, str]) -> set[tuple[int, int]]:
        """Each branching move on the letter pair as the masks of the states
        in common that p.a and p.b reach, built on first use."""
        if ab not in marks:
            c = common[ab]
            marks[ab] = {
                (_forward_mask(s, exits, bit, reach) & c, _forward_mask(t, exits, bit, reach) & c)
                for s, t in splits[ab]
            }
        return marks[ab]

    into: dict[str, list[tuple[str, str]]] = {}

    def reaching(target: str, gamma: frozenset[str]) -> set[str]:
        if not into:
            into.update((q, []) for q in states)
            for src, row in d._full_out().items():
                for sym, (dst,) in row.items():
                    if src != dst:
                        into[dst].append((sym, src))
        seen, queue = {target}, [target]
        for q in queue:
            for sym, src in into[q]:
                if src not in seen and sym in gamma:
                    seen.add(src)
                    queue.append(src)
        return seen

    for i, q in enumerate(states):
        partners = 0
        for ab, c in common.items():
            if c >> i & 1:
                for x, y in marked(ab):
                    if x >> i & 1:
                        partners |= y
                    if y >> i & 1:
                        partners |= x
        for j in _members(partners >> (i + 1)):
            q_prime = states[i + 1 + j]
            gamma = loops[q] & loops[q_prime]
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
