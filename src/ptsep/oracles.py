"""Bounded cross-validation oracles.

These routines decide properties by exhaustive search over small bounded
spaces (subsequence profiles, tower level vectors) rather than by the
structural algorithms they are used to check. Searches carry node budgets;
running out raises :class:`Inconclusive`, never a wrong answer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from . import piecewise
from .automata import AlphabetMismatchError, Dfa, Nfa, Word, membership, minimize

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


# the widest piece bitmask a layout may use; past it, a profile is kept as a
# frozenset of pieces, whose size follows the pieces that occur
_MASK_MAX_BITS = 1 << 12


# pt_bounded asks for the same few layouts for every DFA it checks
@lru_cache(maxsize=64)
def _layout(letters: tuple[str, ...], k: int) -> _Bitmasks | _PieceSets:
    """The representation of k-profiles over the sorted ``letters``:
    bitmasks when all pieces of length at most k fit in _MASK_MAX_BITS bits,
    so that a mask costs a bounded amount whatever pieces it holds, and
    frozensets of pieces otherwise (many letters at a large k)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    width = bits = 1
    for _ in range(k if letters else 0):
        width *= len(letters)
        bits += width
        if bits > _MASK_MAX_BITS:
            return _PieceSets(letters, k)
    return _Bitmasks(letters, k)


class _Bitmasks:
    """Piece sets as bitmasks, in the layout that :func:`_profile_configs`
    states. ``grow`` maps each letter to the function that appends it."""

    def __init__(self, letters: tuple[str, ...], k: int):
        self.letters = letters
        self.k = k
        self.root = 1
        steps: dict[str, list[tuple[int, int]]] = {sym: [] for sym in letters}
        offset, width = 0, 1
        for _ in range(k if letters else 0):
            level = ((1 << width) - 1) << offset
            for c, sym in enumerate(letters):
                steps[sym].append((level, width * (1 + c)))
            offset, width = offset + width, width * len(letters)
        self.grow = {sym: _shifter(steps[sym]) for sym in letters}
        self.pieces: dict[int, Word] = {}  # bit -> piece, for the bits decoded so far

    def decode(self, mask: int) -> KProfile:
        """The k-profile whose piece set ``mask`` is. Each set bit's piece is
        computed the first time this layout meets the bit, so no table of
        all pieces is built."""
        bits = bin(mask)[:1:-1]
        pieces = []
        i = bits.find("1")
        while i >= 0:
            piece = self.pieces.get(i)
            if piece is None:
                piece = self.pieces[i] = self._piece(i)
            pieces.append(piece)
            i = bits.find("1", i + 1)
        return KProfile(self.k, frozenset(pieces))

    def _piece(self, bit: int) -> Word:
        """The piece at ``bit``: first its level, then its letters as the
        base-s digits of its offset there, least significant first."""
        s = len(self.letters)
        length, width = 0, 1
        while bit >= width:
            bit -= width
            length, width = length + 1, width * s
        piece = []
        for _ in range(length):
            bit, c = divmod(bit, s)
            piece.append(self.letters[c])
        return tuple(piece)


def _shifter(steps: list[tuple[int, int]]):
    """The function that appends one letter to a mask, given the letter's
    (level mask, shift) pairs."""

    def grow(mask: int) -> int:
        out = mask
        for level, shift in steps:
            out |= (mask & level) << shift
        return out

    return grow


class _PieceSets:
    """Piece sets as frozensets of pieces, for layouts too wide for a
    bitmask; the same interface as :class:`_Bitmasks`."""

    def __init__(self, letters: tuple[str, ...], k: int):
        self.k = k
        self.root = frozenset({()})
        self.grow = {sym: _extender(sym, k) for sym in letters}

    def decode(self, prof: frozenset[Word]) -> KProfile:
        return KProfile(self.k, prof)


def _extender(sym: str, k: int):
    """The function that appends ``sym`` to a piece set: every piece with
    room grows by it."""

    def grow(prof: frozenset[Word]) -> frozenset[Word]:
        return prof | {p + (sym,) for p in prof if len(p) < k}

    return grow


def profile_k(w: Word, k: int) -> KProfile:
    """Compute the k-profile incrementally: appending a letter extends every
    stored piece that still has room."""
    layout = _layout(tuple(sorted(set(w))), k)
    prof = layout.root
    for sym in w:
        prof = layout.grow[sym](prof)
    return layout.decode(prof)


def _live(d: Dfa) -> frozenset[str]:
    """The states of a minimal DFA from which acceptance is still possible.
    Minimality merges every dead state into one, a rejecting state whose
    every letter loops back to it, which is the DFA's sink; all other states
    are live."""
    return d.states - {d._sink}


def _profile_configs(d: Dfa, allowed, max_nodes: int, layout: _Bitmasks | _PieceSets):
    """Yield each (state, k-profile) configuration reachable from the start
    of ``d`` in BFS order, entering only ``allowed`` states and trying
    letters in sorted order. Profiles stabilize, so the space is finite; a
    new configuration beyond ``max_nodes`` raises Inconclusive. A
    configuration's successors are explored only after it is yielded, so a
    caller that stops early saves their work.

    A profile is the bitmask of its piece set in ``layout``, whose letters
    are sorted and include the alphabet of ``d``. With s letters, piece
    p_0…p_{l-1} sits at bit off(l) + sum_j code(p_j)·s^j, where off(l) =
    1 + s + … + s^(l-1) and code is the index among the letters; the empty
    piece is bit 0. Appending the letter with code c moves every piece of
    length l < k left by s^l·(1 + c), so one step is at most k shifts. Two
    words get the same mask exactly when they have the same k-pieces, so
    the search visits the configurations a search over piece sets would.
    Where the masks would pass _MASK_MAX_BITS bits, the profile is the
    piece set itself (:func:`_layout`), and the search is the same."""
    grow = layout.grow
    letters = sorted(d.alphabet)
    edges = {
        q: [(t, grow[sym]) for sym in letters if (t := row[sym][0]) in allowed]
        for q, row in d._full_out().items()
    }
    root = (d.start, layout.root)
    seen = {root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        yield node
        state, prof = node
        for target, step in edges[state]:
            child = (target, step(prof))
            if child not in seen:
                if len(seen) >= max_nodes:
                    raise Inconclusive(f"profile search exceeded {max_nodes} configurations")
                seen.add(child)
                queue.append(child)


def _accepted_masks(a: Nfa, max_nodes: int, layout: _Bitmasks | _PieceSets) -> set:
    """The profiles, in ``layout``, of the words ``a`` accepts, by BFS over the
    configurations of its minimal DFA restricted to states from which
    acceptance is still possible."""
    d = a._minimal
    configs = _profile_configs(d, _live(d), max_nodes, layout)
    return {prof for state, prof in configs if state in d.final}


def reachable_profiles(a: Nfa, k: int, max_nodes: int = DEFAULT_MAX_NODES) -> frozenset[KProfile]:
    """The set of k-profiles of accepted words, by BFS over (state, profile)
    configurations of the minimal DFA, restricted to states from which
    acceptance is still possible; exceeding ``max_nodes`` raises
    Inconclusive."""
    layout = _layout(tuple(sorted(a.alphabet)), k)
    masks = _accepted_masks(a, max_nodes, layout)
    return frozenset(map(layout.decode, masks))


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
    of L(a)) is returned as those accepted profiles. Both sides are searched
    over the layout of the union alphabet, so their profiles compare. The
    search of b stops at the first accepted profile that a also has: past
    it the answer is None, so a budget it would overrun later is no longer
    reached."""
    layout = _layout(tuple(sorted(a.alphabet | b.alphabet)), k)
    masks_a = _accepted_masks(a, max_nodes, layout)
    d = b._minimal
    configs = _profile_configs(d, _live(d), max_nodes, layout)
    if any(state in d.final and prof in masks_a for state, prof in configs):
        return None
    return KptSeparator(k=k, accepted_profiles=frozenset(map(layout.decode, masks_a)), side="A")


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
    """Check the subsequence chain and the alternating memberships, over
    the union of the two alphabets: a word with a letter of the other
    alphabet only is not in an automaton's language."""
    if t.start_side not in ("A", "B") or not t.words:
        return False
    union = a.alphabet | b.alphabet
    for i, w in enumerate(t.words):
        aut = a if (t.start_side == "A") == (i % 2 == 0) else b
        if not aut.alphabet.issuperset(w):
            foreign = [sym for sym in w if sym not in union]
            if foreign:
                raise AlphabetMismatchError(f"symbol {foreign[0]!r} is not in the alphabet")
            return False
        if not membership(aut, w):
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

    def tower(goal: tuple) -> Tower:
        steps: list[tuple[str, int]] = []
        cur = goal
        while parents[cur] is not None:
            prev, sym, threshold = parents[cur]
            steps.append((sym, threshold))
            cur = prev
        steps.reverse()
        words = tuple(
            tuple(sym for sym, t in steps if t <= level) for level in range(1, h + 1)
        )
        return Tower(words=words, start_side=goal[0])

    for node in roots:
        if accepting(*node):
            return tower(node)

    while queue:
        node = queue.popleft()
        side, vec = node
        for sym in letters:
            for threshold in range(1, h + 1):
                new_vec = list(vec)
                for i in range(threshold - 1, h):
                    _, out, live, _ = levels[side][i]
                    target = out[vec[i]].get(sym)
                    if target is None or target[0] not in live:
                        break
                    new_vec[i] = target[0]
                else:
                    child = (side, tuple(new_vec))
                    if child in parents:
                        continue
                    if len(parents) >= max_nodes:
                        raise Inconclusive(f"tower search exceeded {max_nodes} configurations")
                    parents[child] = (node, sym, threshold)
                    if accepting(*child):
                        return tower(child)
                    queue.append(child)
    return None


def _share_a_word(a: Nfa, b: Nfa) -> bool:
    """Whether L(a) and L(b) share a word, by a BFS over the reachable state
    pairs that joins the two rows on their shared letters and stops at the
    first pair of final states. A letter outside one alphabet has no entry in
    that automaton's rows, so this answers as the product of the lifted pair
    would, without building it."""
    out_a, out_b = a._out, b._out
    final_a, final_b = a.final, b.final
    seen = {(p, q) for p in a.initial for q in b.initial}
    queue = list(seen)
    for p, q in queue:
        if p in final_a and q in final_b:
            return True
        row_b = out_b[q]
        for sym, dsts_a in out_a[p].items():
            dsts_b = row_b.get(sym)
            if dsts_b:
                for pn in dsts_a:
                    for qn in dsts_b:
                        if (pn, qn) not in seen:
                            seen.add((pn, qn))
                            queue.append((pn, qn))
    return False


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
    if _share_a_word(a, b):
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
    letters = tuple(sorted(d.alphabet))
    for k in range(1, kmax + 1):
        layout = _layout(letters, k)
        # profiles met at rejecting states, then at accepting ones
        met: tuple[set, set] = (set(), set())
        try:
            for state, prof in _profile_configs(d, d.states, max_nodes, layout):
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
