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

# the grown masks that one bitmask layout may cache, split evenly across its
# letters; _layout keeps at most 32 layouts, so all caches together hold at
# most 32 times this many masks
_GROWN_MASKS_PER_LAYOUT = 1 << 11

# the least per-letter share worth a cache: below it (more than 32 letters)
# the cache evicts before it hits, and a miss costs more than the shift
_GROWN_MASKS_PER_LETTER_MIN = 1 << 6


# pt_bounded asks for the same few layouts for every DFA it checks
@lru_cache(maxsize=32)
def _layout(letters: tuple[str, ...], k: int) -> _Bitmasks | _PieceSets:
    """The representation of k-profiles over the sorted ``letters``:
    bitmasks when all pieces of length at most k fit in _MASK_MAX_BITS bits,
    so that a mask costs a bounded amount whatever pieces it holds, and
    frozensets of pieces otherwise (many letters at a large k).

    A cached bitmask layout keeps the masks its grow functions computed
    across searches: one search meets almost only profiles it has not met
    before, but searches over many DFAs meet the same few profiles again.
    A layout that this cache evicts takes its grown masks with it."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    width = bits = 1
    for _ in range(k if letters else 0):
        width *= len(letters)
        bits += width
        if bits > _MASK_MAX_BITS:
            return _PieceSets(letters, k)
    return _Bitmasks(letters, k)


class _Layout:
    """What both representations of profiles share: letter codes (the
    index among the sorted letters) and ``grow``, which maps each letter to
    the function that appends it to a profile."""

    def __init__(self, letters: tuple[str, ...], k: int, root, grow: dict):
        self.letters = letters
        self.k = k
        self.root = root
        self.grow = grow
        self.code = {sym: c for c, sym in enumerate(letters)}

    def encode(self, profile: KProfile):
        """``profile`` in this layout, or None when it cannot be the profile
        of a word over these letters: another k, a piece longer than k or a
        piece with a letter outside the layout."""
        return self._encode(profile.pieces) if profile.k == self.k else None

    def _occurs(self, piece) -> bool:
        """Whether some word over these letters has ``piece`` as a k-piece."""
        return isinstance(piece, tuple) and len(piece) <= self.k and self.code.keys() >= set(piece)


class _Bitmasks(_Layout):
    """Piece sets as bitmasks, in the layout that :func:`_profile_configs`
    states. Each letter's grow function is an lru_cache of at most
    _GROWN_MASKS_PER_LAYOUT // s grown masks for s letters, or the plain
    shift when that share is below _GROWN_MASKS_PER_LETTER_MIN."""

    def __init__(self, letters: tuple[str, ...], k: int):
        steps: dict[str, list[tuple[int, int]]] = {sym: [] for sym in letters}
        offset, width = 0, 1
        for _ in range(k if letters else 0):
            level = ((1 << width) - 1) << offset
            for c, sym in enumerate(letters):
                steps[sym].append((level, width * (1 + c)))
            offset, width = offset + width, width * len(letters)
        grow = {sym: _shifter(steps[sym]) for sym in letters}
        share = _GROWN_MASKS_PER_LAYOUT // max(len(letters), 1)
        if share >= _GROWN_MASKS_PER_LETTER_MIN:
            grow = {sym: lru_cache(maxsize=share)(g) for sym, g in grow.items()}
        super().__init__(letters, k, 1, grow)
        self.pieces: dict[int, Word] = {}  # bit -> piece, for the bits decoded so far
        self.bits: dict[Word, int] = {}  # piece -> its bit as a mask, for the pieces encoded

    def _encode(self, pieces) -> int | None:
        # piece p_0…p_{l-1} sits at bit sum_j (1 + code(p_j))·s^j, which is
        # off(l) + sum_j code(p_j)·s^j; a separator's profiles share their
        # few pieces, so each piece's bit is computed once
        mask = 0
        for piece in pieces:
            bit = self.bits.get(piece)
            if bit is None:
                if not self._occurs(piece):
                    return None
                s, code = len(self.letters), self.code
                bit = self.bits[piece] = 1 << sum(
                    (1 + code[sym]) * s**j for j, sym in enumerate(piece)
                )
            mask |= bit
        return mask

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


class _PieceSets(_Layout):
    """Piece sets as frozensets of pieces, for layouts too wide for a
    bitmask; the same interface as :class:`_Bitmasks`, with no cache."""

    def __init__(self, letters: tuple[str, ...], k: int):
        super().__init__(letters, k, frozenset({()}), {sym: _extender(sym, k) for sym in letters})

    def _encode(self, pieces) -> frozenset[Word] | None:
        return frozenset(pieces) if all(map(self._occurs, pieces)) else None

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


def _profile_configs(a: Nfa, allowed, max_nodes: int, layout: _Bitmasks | _PieceSets):
    """Yield each (state, k-profile) configuration reachable from the
    initial states of ``a``, in BFS order from the sorted initial states,
    entering only ``allowed`` states and trying letters, and each letter's
    targets, in sorted order; a DFA's sink moves take part. Profiles
    stabilize, so the space is finite; a new configuration beyond
    ``max_nodes`` raises Inconclusive. A configuration's successors are
    explored only after it is yielded, so a caller that stops early saves
    their work.

    A profile is the bitmask of its piece set in ``layout``, whose letters
    are sorted and include the alphabet of ``a``. With s letters, piece
    p_0…p_{l-1} sits at bit off(l) + sum_j code(p_j)·s^j, where off(l) =
    1 + s + … + s^(l-1) and code is the index among the letters; the empty
    piece is bit 0. Appending the letter with code c moves every piece of
    length l < k left by s^l·(1 + c), so one step is at most k shifts. Two
    words get the same mask exactly when they have the same k-pieces, so
    the search visits the configurations a search over piece sets would.
    Where the masks would pass _MASK_MAX_BITS bits, the profile is the
    piece set itself (:func:`_layout`), and the search is the same."""
    grow, letters = layout.grow, sorted(a.alphabet)
    edges = {
        q: [(t, grow[sym]) for sym in letters for t in out.get(sym, ()) if t in allowed]
        for q, out in a._full_out().items()
    }
    roots = [(q, layout.root) for q in sorted(a.initial)]
    seen = set(roots)
    queue = deque(roots)
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


def _profiles_fit(n: int, s: int, k: int, max_nodes: int) -> bool:
    """Whether n + P < ``max_nodes``.bit_length(), for P = s + s² + … + s^k
    the number of nonempty pieces of length at most k over s letters; P is
    summed only while the test can still hold, so no large integer is built.

    With n trimmed states, the minimal DFA has at most 2^n − 1 live states,
    since each nonempty residual is the union of the residuals of a
    nonempty set of trimmed states, and there are at most 2^P k-profiles.
    Its search meets at most (2^n − 1)·2^P configurations plus one root that
    may be dead, at most 2^(n+P) ≤ ``max_nodes``: it cannot run out. The
    search of the n trimmed states meets at most n·2^P, and cannot either."""
    room = max_nodes.bit_length() - n if max_nodes > 0 else 0
    width = 1
    for _ in range(k if s else 0):
        width *= s
        room -= width
        if room <= 0:
            return False
    return room > 0


def _accepted_configs(a: Nfa, max_nodes: int, layout: _Bitmasks | _PieceSets):
    """The final states of the automaton that a profile search of L(a)
    visits, and the configurations that search yields. ``max_nodes`` counts
    the configurations of the minimal DFA's live states. Where they provably
    fit it (:func:`_profiles_fit`), no search runs out and the outcome
    depends only on the language, so the cached trim is searched and nothing
    is determinized; otherwise the minimal DFA's live states are."""
    aut = a._trimmed
    if _profiles_fit(len(aut.states), len(a.alphabet), layout.k, max_nodes):
        allowed = aut.states
    else:
        aut = a._minimal
        allowed = _live(aut)
    return aut.final, _profile_configs(aut, allowed, max_nodes, layout)


def _accepted_masks(a: Nfa, max_nodes: int, layout: _Bitmasks | _PieceSets) -> set:
    """The profiles, in ``layout``, of the words ``a`` accepts."""
    final, configs = _accepted_configs(a, max_nodes, layout)
    return {prof for state, prof in configs if state in final}


def reachable_profiles(a: Nfa, k: int, max_nodes: int = DEFAULT_MAX_NODES) -> frozenset[KProfile]:
    """The set of k-profiles of accepted words, by BFS over (state, profile)
    configurations. ``max_nodes`` bounds those of the minimal DFA,
    restricted to states from which acceptance is still possible, and
    exceeding it raises Inconclusive. Where that count provably fits the
    budget, the trimmed automaton is searched instead, with the same result
    and no determinization."""
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
    reached. Each side is searched as in :func:`reachable_profiles`: on its
    trimmed automaton where the minimal DFA's configurations provably fit
    ``max_nodes``, on the minimal DFA otherwise."""
    layout = _layout(tuple(sorted(a.alphabet | b.alphabet)), k)
    masks_a = _accepted_masks(a, max_nodes, layout)
    final_b, configs = _accepted_configs(b, max_nodes, layout)
    if any(state in final_b and prof in masks_a for state, prof in configs):
        return None
    return KptSeparator(k=k, accepted_profiles=frozenset(map(layout.decode, masks_a)), side="A")


def verify_separator(
    s: KptSeparator, a: Nfa, b: Nfa, max_nodes: int = DEFAULT_MAX_NODES
) -> bool:
    """Recompute both profile sets at the separator's k and check containment
    on the covered side and disjointness on the other. The sets are compared
    as masks over the layout of the union alphabet, into which the
    separator's profiles are encoded once; a profile that no word over that
    alphabet has cannot match, so it is dropped. Each side is searched as in
    :func:`reachable_profiles`, so a small operand is not determinized. A
    separator whose side is neither "A" nor "B", or whose k is negative,
    does not verify."""
    if s.side not in ("A", "B") or s.k < 0:
        return False
    layout = _layout(tuple(sorted(a.alphabet | b.alphabet)), s.k)
    masks_a = _accepted_masks(a, max_nodes, layout)
    masks_b = _accepted_masks(b, max_nodes, layout)
    if s.side != "A":
        masks_a, masks_b = masks_b, masks_a
    accepted = set(map(layout.encode, s.accepted_profiles))
    accepted.discard(None)
    return masks_a <= accepted and accepted.isdisjoint(masks_b)


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
    letters, finals = tuple(sorted(d.alphabet)), d.final
    for k in range(1, kmax + 1):
        layout = _layout(letters, k)
        met: dict = {}  # profile -> whether it was first met at an accepting state
        try:
            for state, prof in _profile_configs(d, d.states, max_nodes, layout):
                final = state in finals
                if met.setdefault(prof, final) is not final:
                    break
            else:
                return PtBoundedVerdict(is_pt=True, k=k)
        except Inconclusive:
            return None
    structural = piecewise._structural_verdict(minimize(d))
    if not structural.is_pt:
        return PtBoundedVerdict(is_pt=False, k=None)
    return None
