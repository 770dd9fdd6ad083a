"""Bounded cross-validation oracles.

These routines decide properties by exhaustive search over small bounded
spaces (subsequence profiles, tower level vectors) rather than by the
structural algorithms they are used to check. Searches carry node budgets;
running out raises :class:`Inconclusive`, never a wrong answer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import piecewise
from .automata import (
    EPSILON,
    Dfa,
    Nfa,
    Word,
    language_empty,
    lift_pair,
    membership,
    minimize,
    product_intersection,
)

DEFAULT_MAX_NODES = 200_000
DEFAULT_TOWER_MAX_NODES = 2_000_000


class Inconclusive(Exception):
    """A bounded search exhausted its node budget before reaching a verdict."""


def subsequence(u: Word, w: Word) -> bool:
    """True when u can be obtained from w by deleting letters (greedy scan)."""
    pos = 0
    for sym in u:
        while pos < len(w) and w[pos] != sym:
            pos += 1
        if pos == len(w):
            return False
        pos += 1
    return True


@dataclass(frozen=True)
class KProfile:
    """The set of subsequences ("pieces") of length at most k of some word."""

    k: int
    pieces: frozenset[Word]


def _extend(prof: frozenset[Word], sym: str, k: int) -> frozenset[Word]:
    """The k-pieces of w·sym from those of w: every piece with room grows by sym."""
    return prof | frozenset(p + (sym,) for p in prof if len(p) < k)


def profile_k(w: Word, k: int) -> KProfile:
    """Compute the k-profile incrementally: appending a letter extends every
    stored piece that still has room."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    pieces = frozenset({EPSILON})
    for sym in w:
        pieces = _extend(pieces, sym, k)
    return KProfile(k, pieces)


def _live(d: Dfa) -> frozenset[str]:
    """The states of a minimal DFA from which acceptance is still possible.
    Minimality merges every dead state into one, a rejecting state whose
    every letter loops back to it; all other states are live."""
    sinks = {q for q in d.states - d.final if all(t == (q,) for t in d._out[q].values())}
    return d.states - sinks


def _profile_configs(d: Dfa, allowed, k: int, max_nodes: int):
    """Yield each (state, k-profile) configuration reachable from the start
    of ``d`` in BFS order, entering only ``allowed`` states and trying
    letters in sorted order. Profiles stabilize, so the space is finite; a
    new configuration beyond ``max_nodes`` raises Inconclusive. A
    configuration's successors are explored only after it is yielded, so a
    caller that stops early saves their work."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    letters = sorted(d.alphabet)
    edges = {
        q: [(t, sym) for sym in letters if (t := row[sym][0]) in allowed]
        for q, row in d._out.items()
    }
    root = (d.start, frozenset({EPSILON}))
    seen = {root}
    queue = deque([root])
    extend_cache: dict[tuple[frozenset[Word], str], frozenset[Word]] = {}
    while queue:
        node = queue.popleft()
        yield node
        state, prof = node
        for target, sym in edges[state]:
            key = (prof, sym)
            new_prof = extend_cache.get(key)
            if new_prof is None:
                new_prof = extend_cache[key] = _extend(prof, sym, k)
            child = (target, new_prof)
            if child not in seen:
                if len(seen) >= max_nodes:
                    raise Inconclusive(f"profile search exceeded {max_nodes} configurations")
                seen.add(child)
                queue.append(child)


def reachable_profiles(a: Nfa, k: int, max_nodes: int = DEFAULT_MAX_NODES) -> frozenset[KProfile]:
    """The set of k-profiles of accepted words, by BFS over (state, profile)
    configurations of the minimal DFA, restricted to states from which
    acceptance is still possible; exceeding ``max_nodes`` raises
    Inconclusive."""
    d = a._minimal
    configs = _profile_configs(d, _live(d), k, max_nodes)
    found = {prof for state, prof in configs if state in d.final}
    return frozenset(KProfile(k, p) for p in found)


@dataclass(frozen=True)
class KptSeparator:
    """A separator definable from pieces of length <= k, represented as the
    set of accepted k-profiles. ``side`` records which input language the
    separator contains ("A" by convention)."""

    k: int
    accepted_profiles: frozenset[KProfile]
    side: str


def separable_by_kpt(
    a: Nfa, b: Nfa, k: int, max_nodes: int = DEFAULT_MAX_NODES
) -> KptSeparator | None:
    """A k-piecewise-testable separator exists iff the two languages realize
    disjoint sets of k-profiles; the separator (union of the profile classes
    of L(a)) is returned as those accepted profiles."""
    profs_a = reachable_profiles(a, k, max_nodes)
    profs_b = reachable_profiles(b, k, max_nodes)
    if profs_a & profs_b:
        return None
    return KptSeparator(k=k, accepted_profiles=profs_a, side="A")


def verify_separator(
    s: KptSeparator, a: Nfa, b: Nfa, max_nodes: int = DEFAULT_MAX_NODES
) -> bool:
    """Recompute both profile sets at the separator's k and check containment
    on the covered side and disjointness on the other."""
    profs_a = reachable_profiles(a, s.k, max_nodes)
    profs_b = reachable_profiles(b, s.k, max_nodes)
    if s.side != "A":
        profs_a, profs_b = profs_b, profs_a
    return profs_a <= s.accepted_profiles and not (profs_b & s.accepted_profiles)


@dataclass(frozen=True)
class Tower:
    """Words w_1 .. w_r, each a subsequence of the next, with memberships
    alternating between the two languages; ``start_side`` names the language
    of w_1 ("A" or "B")."""

    words: tuple[Word, ...]
    start_side: str


def verify_tower(t: Tower, a: Nfa, b: Nfa) -> bool:
    """Check the subsequence chain and the alternating memberships."""
    if t.start_side not in ("A", "B") or not t.words:
        return False
    a, b = lift_pair(a, b)
    for i, w in enumerate(t.words):
        on_a = (t.start_side == "A") == (i % 2 == 0)
        if not membership(a if on_a else b, w):
            return False
    return all(subsequence(u, w) for u, w in zip(t.words, t.words[1:]))


def bounded_tower_exists(
    a: Nfa, b: Nfa, h: int, max_nodes: int = DEFAULT_TOWER_MAX_NODES
) -> Tower | None:
    """Search for a tower of height exactly ``h`` between L(a) and L(b).

    Encoding: a tower is determined by its top word plus, per position, the
    lowest level that already contains it; level i then reads the positions
    with threshold <= i. The search is a BFS over vectors of h automaton
    states (level i simulated on its alternating side), trying both starting
    sides; a vector is accepting when every level sits in a final state.
    None means no tower of height h exists; running out of budget raises
    Inconclusive.
    """
    if h < 1:
        raise ValueError("tower height must be at least 1")
    letters = sorted(a.alphabet | b.alphabet)
    # each side's minimal DFA as (start, index, live states, final states);
    # a letter outside its alphabet has no index entry, a dead move there
    minimal = {"A": a._minimal, "B": b._minimal}
    views = {side: (d.start, d._out, _live(d), d.final) for side, d in minimal.items()}
    # level i (0-based) runs on the starting side's DFA when i is even
    levels = {
        first: [views[first if i % 2 == 0 else second] for i in range(h)]
        for first, second in (("A", "B"), ("B", "A"))
    }

    def accepting(side: str, vec: tuple[str, ...]) -> bool:
        return all(q in view[3] for q, view in zip(vec, levels[side]))

    roots = [(side, tuple(view[0] for view in levels[side])) for side in ("A", "B")]

    parents: dict[tuple, tuple | None] = dict.fromkeys(roots)
    queue: deque[tuple] = deque(roots)

    goal = None
    for node in roots:
        if accepting(*node):
            goal = node
            break

    while queue and goal is None:
        node = queue.popleft()
        side, vec = node
        for sym in letters:
            for threshold in range(1, h + 1):
                new_vec = list(vec)
                dead = False
                for i in range(threshold - 1, h):
                    _, out, live, _ = levels[side][i]
                    target = out[vec[i]].get(sym)
                    if target is None or target[0] not in live:
                        dead = True
                        break
                    new_vec[i] = target[0]
                if dead:
                    continue
                child = (side, tuple(new_vec))
                if child in parents:
                    continue
                if len(parents) >= max_nodes:
                    raise Inconclusive(f"tower search exceeded {max_nodes} configurations")
                parents[child] = (node, sym, threshold)
                if accepting(*child):
                    goal = child
                    break
                queue.append(child)
            if goal is not None:
                break
        if goal is not None:
            break

    if goal is None:
        return None

    steps: list[tuple[str, int]] = []
    cur: tuple | None = goal
    while parents[cur] is not None:
        prev, sym, threshold = parents[cur]
        steps.append((sym, threshold))
        cur = prev
    steps.reverse()
    side = goal[0]
    words = tuple(
        tuple(sym for sym, t in steps if t <= level) for level in range(1, h + 1)
    )
    return Tower(words=words, start_side=side)


@dataclass(frozen=True)
class DeepeningVerdict:
    """A conclusive separability answer from the deepening oracle, with the
    level it was reached at and how ("separator" or "tower-absence")."""

    separable: bool
    level: int
    method: str


def dual_deepening(
    a: Nfa,
    b: Nfa,
    kmax: int,
    hmax: int,
    max_nodes: int = DEFAULT_MAX_NODES,
    tower_max_nodes: int = DEFAULT_TOWER_MAX_NODES,
) -> DeepeningVerdict | None:
    """Interleave separator search (k = 1..kmax) with tower search
    (h = 1..hmax), lowest level first, separator probe before tower probe.

    A found separator is conclusive for separability; so is the absence of
    any tower of some height (towers of greater height contain smaller ones).
    A tower that does exist is never conclusive on its own, so everything
    else is inconclusive (None). Budget overruns skip the affected probe.
    """
    # a common word gives towers of every height and defeats every separator,
    # so no probe below can conclude; skip straight to inconclusive
    if not language_empty(product_intersection(*lift_pair(a, b))):
        return None
    for level in range(1, max(kmax, hmax) + 1):
        if level <= kmax:
            try:
                sep = separable_by_kpt(a, b, level, max_nodes)
            except Inconclusive:
                sep = None
            if sep is not None:
                return DeepeningVerdict(separable=True, level=level, method="separator")
        if level <= hmax:
            try:
                tower = bounded_tower_exists(a, b, level, tower_max_nodes)
            except Inconclusive:
                continue
            if tower is None:
                return DeepeningVerdict(separable=True, level=level, method="tower-absence")
    return None


@dataclass(frozen=True)
class PtBoundedVerdict:
    """Conclusive outcome of the bounded PT oracle; ``k`` is the certifying
    profile bound when ``is_pt`` is True."""

    is_pt: bool
    k: int | None


def pt_bounded(
    d: Dfa, kmax: int, max_nodes: int = DEFAULT_MAX_NODES
) -> PtBoundedVerdict | None:
    """Profile-based PT check on a complete DFA.

    For k = 1..kmax, search for a "conflict": one k-profile reachable at both
    an accepting and a rejecting state. No conflict at some k certifies the
    language is k-piecewise-testable, hence PT. Conflicts all the way to kmax
    are conclusive for NOT PT only when the structural test on the minimal
    DFA independently produces a witness; otherwise the answer is None
    (inconclusive), as it is when a search overruns its budget.
    """
    for k in range(1, kmax + 1):
        # profiles met at rejecting states, then at accepting ones
        met: tuple[set[frozenset[Word]], set[frozenset[Word]]] = (set(), set())
        try:
            for state, prof in _profile_configs(d, d.states, k, max_nodes):
                final = state in d.final
                met[final].add(prof)
                if prof in met[not final]:
                    break
            else:
                return PtBoundedVerdict(is_pt=True, k=k)
        except Inconclusive:
            return None
    structural = piecewise._structural_verdict(minimize(d))
    if not structural.is_pt:
        return PtBoundedVerdict(is_pt=False, k=None)
    return None
