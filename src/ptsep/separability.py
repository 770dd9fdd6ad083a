"""Separability of two regular languages by a piecewise testable language.

The decision works on a "block product" of the two (trimmed) automata: nodes
are state pairs, letter edges move both sides on a shared letter, and block
edges jump through a pump anchor, a pair of states that both carry a cycle
over exactly the same letter set. Non-separability holds exactly when some
initial pair reaches an accepting pair; the path is returned as a pattern
witness whose pumped expansions yield towers of every height, which is the
machine-checkable evidence that no piecewise testable separator exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque

from .automata import (
    AlphabetMismatchError,
    AutomatonError,
    EPSILON,
    Nfa,
    Word,
    closed_run_covering_word,
    lift_pair,
    restricted_reach,
    scc_decomposition,
    shortest_run,
    trim,
)
from .oracles import (
    DEFAULT_MAX_NODES,
    Inconclusive,
    KptSeparator,
    Tower,
    separable_by_kpt,
)

DEFAULT_SEPARATOR_KMAX = 6


@dataclass(frozen=True)
class PumpAnchor:
    """A pair of states (one per automaton) that both lie on a cycle whose
    letter set is exactly ``gamma``."""

    r_a: str
    r_b: str
    gamma: frozenset[str]


@dataclass(frozen=True)
class BlockSegment:
    """One pumped block of a pattern witness.

    Each side enters the anchor, loops a cycle word with letter set exactly
    ``gamma`` any positive number of times, and exits; the two sides read
    their own entry/cycle/exit words, all confined to ``gamma``.
    """

    anchor: PumpAnchor
    a_entry: Word
    a_cycle: Word
    a_exit: Word
    b_entry: Word
    b_cycle: Word
    b_exit: Word

    @property
    def gamma(self) -> frozenset[str]:
        return self.anchor.gamma


@dataclass(frozen=True)
class PatternWitness:
    """An accepting block-product path: shared connector words u_0 .. u_k
    interleaved with k pumped blocks. For every choice of pump counts the
    side-A expansion is accepted by the first automaton and the side-B
    expansion by the second; k = 0 degenerates to a common word u_0."""

    connectors: tuple[Word, ...]
    blocks: tuple[BlockSegment, ...]

    def __post_init__(self):
        if len(self.connectors) != len(self.blocks) + 1:
            raise ValueError("a pattern witness has one more connector than blocks")


@dataclass(frozen=True)
class SepVerdict:
    """Outcome of the separability decision. ``witness`` is present exactly
    when not separable; ``separator`` only when separable, requested, and
    found within the bound (otherwise ``separator_omitted`` is set)."""

    separable: bool
    witness: PatternWitness | None = None
    separator: KptSeparator | None = None
    separator_omitted: bool = False


@dataclass(frozen=True)
class AnchorRelation:
    """A pump anchor together with the states that can enter it and the
    states it can exit to, inside the gamma restriction of each automaton.
    Block edges are exactly (enter_a x enter_b) -> (exit_a x exit_b)."""

    anchor: PumpAnchor
    enter_a: frozenset[str]
    enter_b: frozenset[str]
    exit_a: frozenset[str]
    exit_b: frozenset[str]


@dataclass(frozen=True)
class BlockProduct:
    """Two trimmed automata over a shared alphabet plus the block-edge
    relations derived from pump anchors. Letter edges of the synchronized
    product are not stored: the search joins both sides' out-edges on
    shared letters as it reaches each pair."""

    a: Nfa
    b: Nfa
    anchors: tuple[AnchorRelation, ...]


def _scc_letter_map(a: Nfa, gamma: frozenset[str]) -> dict[str, frozenset[str]]:
    """Each state's component letters in the gamma-restricted graph."""
    return {q: comp.letters for comp in scc_decomposition(a, gamma) for q in comp.states}


def maximal_common_cycle_alphabet(a: Nfa, b: Nfa, r_a: str, r_b: str) -> frozenset[str]:
    """The greatest letter set Gamma such that both r_a (in a) and r_b (in b)
    lie on a cycle whose letter set is exactly Gamma; empty when none exists.

    Computed as the greatest fixpoint of
    Gamma -> letters(scc of r_a in a|Gamma) & letters(scc of r_b in b|Gamma)
    started from the full alphabet; every common exact cycle alphabet is
    contained in the result.
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError("anchors are computed over a shared alphabet")
    if r_a not in a.states:
        raise AutomatonError(f"unknown state {r_a!r} in the first automaton")
    if r_b not in b.states:
        raise AutomatonError(f"unknown state {r_b!r} in the second automaton")
    gamma = frozenset(a.alphabet)
    while True:
        refined = _scc_letter_map(a, gamma)[r_a] & _scc_letter_map(b, gamma)[r_b]
        if refined == gamma or not refined:
            return refined
        gamma = refined


def _anchor_gammas(a: Nfa, b: Nfa) -> list[tuple[str, str, frozenset[str]]]:
    """Every pair (r_a, r_b) with a nonempty maximal common cycle alphabet,
    with that alphabet, in sorted (r_a, r_b) order.

    This is the fixpoint of :func:`maximal_common_cycle_alphabet` run on groups
    of roots at once: at the current gamma, roots are grouped by the letters
    of their gamma-restricted component, and each pair of groups takes one
    step together. A step that keeps gamma fixes it for every pair of the two
    groups, an empty one drops them, and any other step goes on with the two
    groups alone at the refined gamma."""
    cache_a: dict[frozenset[str], dict[str, frozenset[str]]] = {}
    cache_b: dict[frozenset[str], dict[str, frozenset[str]]] = {}

    def groups(aut: Nfa, gamma, cache, roots) -> dict[frozenset[str], list[str]]:
        if gamma not in cache:
            cache[gamma] = _scc_letter_map(aut, gamma)
        letters = cache[gamma]
        out: dict[frozenset[str], list[str]] = {}
        for r in roots:
            if letters[r]:
                out.setdefault(letters[r], []).append(r)
        return out

    found: list[tuple[str, str, frozenset[str]]] = []
    work = [(frozenset(a.alphabet), a.states, b.states)]
    while work:
        gamma, roots_a, roots_b = work.pop()
        groups_b = groups(b, gamma, cache_b, roots_b)
        for la, group_a in groups(a, gamma, cache_a, roots_a).items():
            for lb, group_b in groups_b.items():
                refined = la & lb
                if refined == gamma:
                    found.extend((r_a, r_b, gamma) for r_a in group_a for r_b in group_b)
                elif refined:
                    work.append((refined, group_a, group_b))
    found.sort(key=lambda anchor: anchor[:2])
    return found


def build_block_product(a: Nfa, b: Nfa) -> BlockProduct:
    """Trim both automata, lift them to the union alphabet and derive the
    anchor relations, in sorted (r_a, r_b) order. Trimming ignores letters
    without moves, so this equals trimming the lifted pair, and a DFA's
    sink is dropped before the lift would write out its moves."""
    a, b = lift_pair(trim(a), trim(b))

    reach_a: dict[frozenset[str], dict[str, frozenset[str]]] = {}
    reach_b: dict[frozenset[str], dict[str, frozenset[str]]] = {}
    anchors: list[AnchorRelation] = []
    for r_a, r_b, gamma in _anchor_gammas(a, b):
        if gamma not in reach_a:
            reach_a[gamma] = restricted_reach(a, gamma)
            reach_b[gamma] = restricted_reach(b, gamma)
        enter_a = frozenset(p for p in a.states if r_a in reach_a[gamma][p])
        enter_b = frozenset(q for q in b.states if r_b in reach_b[gamma][q])
        anchors.append(
            AnchorRelation(
                anchor=PumpAnchor(r_a, r_b, gamma),
                enter_a=enter_a,
                enter_b=enter_b,
                exit_a=reach_a[gamma][r_a],
                exit_b=reach_b[gamma][r_b],
            )
        )
    return BlockProduct(a=a, b=b, anchors=tuple(anchors))


def _search_block_product(bp: BlockProduct):
    """BFS from the initial pairs over letter and block edges; each anchor
    fires at most once since its targets do not depend on the source. Letter
    children of (p, q) come from joining the out-edges of p and q on their
    shared letters, in (letter, child pair) order. Returns (goal_node,
    parents) or None; deterministic via sorted exploration."""
    out_a = bp.a._out
    out_b = bp.b._out

    def accepting(node: tuple[str, str]) -> bool:
        return node[0] in bp.a.final and node[1] in bp.b.final

    starts = sorted((p, q) for p in bp.a.initial for q in bp.b.initial)
    parents: dict[tuple[str, str], tuple | None] = {}
    queue: deque[tuple[str, str]] = deque()
    for node in starts:
        if node not in parents:
            parents[node] = None
            if accepting(node):
                return node, parents
            queue.append(node)

    fired: set[int] = set()
    while queue:
        node = queue.popleft()
        p, q = node
        edges_a = out_a[p]
        edges_b = out_b[q]
        for sym in sorted(edges_a.keys() & edges_b.keys()):
            for p2 in edges_a[sym]:
                for q2 in edges_b[sym]:
                    child = (p2, q2)
                    if child in parents:
                        continue
                    parents[child] = ("letter", sym, node)
                    if accepting(child):
                        return child, parents
                    queue.append(child)
        for idx, rel in enumerate(bp.anchors):
            if idx in fired:
                continue
            if p in rel.enter_a and q in rel.enter_b:
                fired.add(idx)
                for p2 in sorted(rel.exit_a):
                    for q2 in sorted(rel.exit_b):
                        child = (p2, q2)
                        if child in parents:
                            continue
                        parents[child] = ("block", idx, node)
                        if accepting(child):
                            return child, parents
                        queue.append(child)
    return None


def _reconstruct_witness(bp: BlockProduct, goal, parents) -> PatternWitness:
    steps: list[tuple] = []
    cur = goal
    while parents[cur] is not None:
        kind, payload, prev = parents[cur]
        steps.append((kind, payload, prev, cur))
        cur = prev
    steps.reverse()

    connectors: list[Word] = []
    blocks: list[BlockSegment] = []
    pending: list[str] = []
    for kind, payload, prev, node in steps:
        if kind == "letter":
            pending.append(payload)
            continue
        connectors.append(tuple(pending))
        pending = []
        rel = bp.anchors[payload]
        gamma = rel.anchor.gamma
        (p, q), (p2, q2) = prev, node
        a_entry = shortest_run(bp.a, {p}, {rel.anchor.r_a}, gamma=gamma)
        a_exit = shortest_run(bp.a, {rel.anchor.r_a}, {p2}, gamma=gamma)
        b_entry = shortest_run(bp.b, {q}, {rel.anchor.r_b}, gamma=gamma)
        b_exit = shortest_run(bp.b, {rel.anchor.r_b}, {q2}, gamma=gamma)
        assert None not in (a_entry, a_exit, b_entry, b_exit)
        a_cycle = closed_run_covering_word(bp.a, rel.anchor.r_a, gamma)
        b_cycle = closed_run_covering_word(bp.b, rel.anchor.r_b, gamma, a_cycle)
        blocks.append(
            BlockSegment(
                anchor=rel.anchor,
                a_entry=a_entry[0],
                a_cycle=a_cycle,
                a_exit=a_exit[0],
                b_entry=b_entry[0],
                b_cycle=b_cycle,
                b_exit=b_exit[0],
            )
        )
    connectors.append(tuple(pending))
    return PatternWitness(connectors=tuple(connectors), blocks=tuple(blocks))


def decide_separability(
    a: Nfa,
    b: Nfa,
    want_separator: bool = False,
    kmax: int = DEFAULT_SEPARATOR_KMAX,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> SepVerdict:
    """Decide whether some piecewise testable language contains L(a) and is
    disjoint from L(b).

    Automata over different alphabets are first lifted to the shared union
    (separability is a property of the languages). Not separable is reported
    with a pattern witness; with ``want_separator`` a profile-based separator
    is additionally searched for k = 1..kmax on separable instances, each
    profile search bounded by ``max_nodes``, and ``separator_omitted``
    records an unsuccessful or inconclusive search.
    """
    bp = build_block_product(a, b)
    found = _search_block_product(bp)
    if found is not None:
        goal, parents = found
        return SepVerdict(separable=False, witness=_reconstruct_witness(bp, goal, parents))
    separator = None
    omitted = False
    if want_separator:
        try:
            for k in range(1, kmax + 1):
                separator = separable_by_kpt(a, b, k, max_nodes)
                if separator is not None:
                    break
            else:
                omitted = True
        except Inconclusive:
            omitted = True
    return SepVerdict(separable=True, separator=separator, separator_omitted=omitted)


def _copies_to_cover(u: Word, cycle: Word) -> int:
    """Least m with u a subsequence of cycle repeated m times (greedy scan);
    at least 1. Requires every letter of u to occur in the cycle."""
    missing = frozenset(u) - frozenset(cycle)
    if missing:
        raise ValueError(f"letters {sorted(missing)} do not occur in the cycle word")
    copies = 1
    pos = 0
    for sym in u:
        while True:
            try:
                pos = cycle.index(sym, pos) + 1
                break
            except ValueError:
                copies += 1
                pos = 0
    return copies


def _side_parts(seg: BlockSegment, side: str) -> tuple[Word, Word, Word]:
    """A block's (entry, cycle, exit) words on side "A" or "B"."""
    if side == "A":
        return seg.a_entry, seg.a_cycle, seg.a_exit
    return seg.b_entry, seg.b_cycle, seg.b_exit


def expand_pattern(w: PatternWitness, side: str, pumps: tuple[int, ...] | list[int]) -> Word:
    """The side-A or side-B word of a pattern witness with the given pump
    count per block (each at least 1)."""
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    if len(pumps) != len(w.blocks):
        raise ValueError("one pump count per block required")
    if any(m < 1 for m in pumps):
        raise ValueError("pump counts must be positive")
    out: list[str] = list(w.connectors[0])
    for seg, m, connector in zip(w.blocks, pumps, w.connectors[1:]):
        entry, cycle, exit_ = _side_parts(seg, side)
        out.extend(entry)
        out.extend(cycle * m)
        out.extend(exit_)
        out.extend(connector)
    return tuple(out)


def towers_from_pattern(w: PatternWitness, h: int) -> Tower:
    """Expand a pattern witness into a tower of height ``h`` starting on side
    A. Pump counts begin at one full cycle and, at each next level, each
    block pumps just enough copies of its cycle word to contain the previous
    level's block as a subsequence (possible because block letters stay
    inside the block's gamma, which the cycle word covers exactly)."""
    if h < 1:
        raise ValueError("tower height must be at least 1")
    words: list[Word] = []
    prev_blocks: list[Word] | None = None
    for level in range(h):
        side = "A" if level % 2 == 0 else "B"
        parts = [_side_parts(seg, side) for seg in w.blocks]
        if prev_blocks is None:
            pumps = [1] * len(parts)
        else:
            pumps = [_copies_to_cover(u, cycle) for u, (_, cycle, _) in zip(prev_blocks, parts)]
        words.append(expand_pattern(w, side, pumps))
        prev_blocks = [entry + cycle * m + exit_ for (entry, cycle, exit_), m in zip(parts, pumps)]
    return Tower(words=tuple(words), start_side="A")


def verify_pattern(w: PatternWitness, a: Nfa, b: Nfa) -> bool:
    """Replay a pattern witness: structural letter-set constraints, then each
    side on state sets. Every block's entry word must reach its anchor state
    and its cycle word must lead from the anchor back to it, so the replay
    proves acceptance for every choice of pump counts, not a sample."""
    for seg in w.blocks:
        if frozenset(seg.a_cycle) != seg.gamma or frozenset(seg.b_cycle) != seg.gamma:
            return False
        for part in (seg.a_entry, seg.a_exit, seg.b_entry, seg.b_exit):
            if not frozenset(part) <= seg.gamma:
                return False
    return _replays(w, a, "A") and _replays(w, b, "B")


def _replays(w: PatternWitness, aut: Nfa, side: str) -> bool:
    """One side of :func:`verify_pattern`. A letter outside the automaton's
    alphabet, or an anchor naming no state of it, leads to the empty set."""

    def run(states, word: Word) -> frozenset[str]:
        for sym in word:
            states = aut.step_set(states, sym)
        return frozenset(states)

    current = run(aut.initial, w.connectors[0])
    for seg, connector in zip(w.blocks, w.connectors[1:]):
        entry, cycle, exit_ = _side_parts(seg, side)
        anchor = seg.anchor.r_a if side == "A" else seg.anchor.r_b
        if anchor not in run(current, entry) or anchor not in run({anchor}, cycle):
            return False
        current = run(run({anchor}, exit_), connector)
    return bool(current & aut.final)
