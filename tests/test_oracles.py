import functools
import itertools
import random
import sys
import tracemalloc
import weakref
from collections import deque

import pytest

from conftest import aut, brute_language, brute_profile, is_subsequence, random_nfa
from ptsep import automata, oracles
from ptsep.automata import Dfa, Nfa, language_empty, lift_pair, product_intersection
from ptsep.oracles import (
    DEFAULT_MAX_NODES,
    DeepeningVerdict,
    Inconclusive,
    KProfile,
    KptSeparator,
    PtBoundedVerdict,
    Tower,
    bounded_tower_exists,
    dual_deepening,
    profile_k,
    pt_bounded,
    reachable_profiles,
    separable_by_kpt,
    subsequence,
    verify_separator,
    verify_tower,
    _GROWN_MASKS_PER_LAYOUT,
    _MASK_MAX_BITS,
    _Bitmasks,
    _layout,
    _PieceSets,
    _profile_configs,
    _share_a_word,
)
from ptsep.separability import decide_separability

AA_PLUS = """
kind: dfa
states: z0 z1
alphabet: a
initial: z0
final: z1
trans: z0 a z1
trans: z1 a z1
"""

BB_PLUS = """
kind: dfa
states: y0 y1
alphabet: b
initial: y0
final: y1
trans: y0 b y1
trans: y1 b y1
"""

# ab(ab)* and ba(ba)*: disjoint, not separable (towers of every height)
AB_CYCLE = """
kind: dfa
states: s0 s1 s2 sink
alphabet: a b
initial: s0
final: s2
trans: s0 a s1
trans: s0 b sink
trans: s1 b s2
trans: s1 a sink
trans: s2 a s1
trans: s2 b sink
trans: sink a sink
trans: sink b sink
"""

BA_CYCLE = """
kind: dfa
states: t0 t1 t2 sink
alphabet: a b
initial: t0
final: t2
trans: t0 b t1
trans: t0 a sink
trans: t1 a t2
trans: t1 b sink
trans: t2 b t1
trans: t2 a sink
trans: sink a sink
trans: sink b sink
"""

JUST_AB = """
kind: nfa
states: u0 u1 u2
alphabet: a b
initial: u0
final: u2
trans: u0 a u1
trans: u1 b u2
"""

JUST_BA = """
kind: nfa
states: v0 v1 v2
alphabet: a b
initial: v0
final: v2
trans: v0 b v1
trans: v1 a v2
"""


def single_word_nfa(w: str, alphabet: str) -> "object":
    lines = [
        "kind: nfa",
        "states: " + " ".join(f"n{i}" for i in range(len(w) + 1)),
        "alphabet: " + " ".join(alphabet),
        "initial: n0",
        f"final: n{len(w)}",
    ]
    for i, sym in enumerate(w):
        lines.append(f"trans: n{i} {sym} n{i + 1}")
    return aut("\n".join(lines))


# --------------------------------------------------------------- subsequences


def test_subsequence_edge_cases():
    assert subsequence((), ("a", "b"))
    assert subsequence((), ())
    assert subsequence(("a", "b"), ("a", "b"))
    assert subsequence(("a", "b"), ("a", "c", "b"))
    assert not subsequence(("b", "a"), ("a", "b"))
    assert not subsequence(("a", "a"), ("a",))


def test_subsequence_matches_brute_force():
    rng = random.Random(30)
    for _ in range(300):
        w = tuple(rng.choice("ab") for _ in range(rng.randint(0, 6)))
        u = tuple(rng.choice("ab") for _ in range(rng.randint(0, 4)))
        assert subsequence(u, w) == is_subsequence(u, w)


# -------------------------------------------------------------------- profiles


def test_profile_k_matches_brute_enumeration():
    rng = random.Random(31)
    for _ in range(150):
        w = tuple(rng.choice("abc") for _ in range(rng.randint(0, 6)))
        for k in range(4):
            assert profile_k(w, k) == KProfile(k, brute_profile(w, k))


def test_profile_k_boundaries():
    assert profile_k((), 2) == KProfile(2, frozenset({()}))
    assert profile_k(("a",), 0) == KProfile(0, frozenset({()}))
    with pytest.raises(ValueError):
        profile_k(("a",), -1)
    with pytest.raises(ValueError):
        reachable_profiles(aut(AA_PLUS), -1)


def fold(w, layout):
    """The profile of w in ``layout``, one letter at a time."""
    prof = layout.root
    for sym in w:
        prof = layout.grow[sym](prof)
    return prof


def test_layout_masks_decode_to_brute_profiles():
    # over the word's own letters (one letter gives the unary layout, the
    # empty word the empty one) and over a strict superset, as
    # separable_by_kpt lays out both sides over their union
    rng = random.Random(33)
    for letters in ("a", "ab", "abc"):
        for _ in range(40):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 7)))
            own = tuple(sorted(set(w)))
            wider = tuple(sorted(set(w) | set(rng.sample("abcxyz", rng.randint(1, 3)))))
            for k in range(6):
                for layout in (_Bitmasks(own, k), _Bitmasks(wider, k)):
                    assert layout.decode(fold(w, layout)) == KProfile(k, brute_profile(w, k))


def test_layout_masks_are_the_piece_sets():
    # equal masks exactly when the k-pieces agree, over one shared layout
    words = [tuple(w) for w in ("", "a", "b", "ab", "ba", "aab", "aba", "abab", "bbaa")]
    for k in range(4):
        layout = _Bitmasks(("a", "b"), k)
        for u, v in itertools.combinations(words, 2):
            same = brute_profile(u, k) == brute_profile(v, k)
            assert (fold(u, layout) == fold(v, layout)) == same


def test_profiles_over_the_empty_alphabet():
    eps = Nfa.build(states=["q"], alphabet=[], transitions=[], initial=["q"], final=["q"])
    assert reachable_profiles(eps, 3) == frozenset({KProfile(3, frozenset({()}))})
    assert _Bitmasks((), 3).decode(1) == KProfile(3, frozenset({()}))


def test_reachable_profiles_at_large_k_builds_no_piece_table():
    # {abc, ca} at k = 12: six configurations, and pieces of length <= 3; a
    # table of all 3^<=12 pieces would be about 800 000 entries
    abc_ca = aut(
        "kind: nfa\nstates: p0 p1 p2 p3 r1 r2\nalphabet: a b c\ninitial: p0\n"
        "final: p3 r2\ntrans: p0 a p1\ntrans: p1 b p2\ntrans: p2 c p3\n"
        "trans: p0 c r1\ntrans: r1 a r2\n"
    )
    profs = reachable_profiles(abc_ca, 12, max_nodes=20)
    assert profs == frozenset(KProfile(12, brute_profile(tuple(w), 12)) for w in ("abc", "ca"))
    # a bitmask of all 3^<=100 pieces could not even be allocated
    assert profile_k(tuple("cab"), 100) == KProfile(100, brute_profile(tuple("cab"), 100))


def test_layout_keeps_bitmasks_only_while_they_fit():
    # bitmasks exactly when all 1 + s + ... + s^k pieces fit the bound; past
    # it, piece sets, which give the same profiles
    rng = random.Random(34)
    for s in range(8):
        letters = tuple("abcdefgh"[:s])
        for k in range(15):
            fits = sum(s**level for level in range(k + 1)) <= _MASK_MAX_BITS
            layout = _layout(letters, k)
            assert isinstance(layout, _Bitmasks if fits else _PieceSets)
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 7))) if s else ()
            want = KProfile(k, brute_profile(w, k))
            assert layout.decode(fold(w, layout)) == want
            assert _PieceSets(letters, k).decode(fold(w, _PieceSets(letters, k))) == want


def test_many_letters_at_large_k_stay_within_memory():
    # a bitmask over 12 letters at k = 12 would reserve 12^11 bits for its
    # top level alone, and one over 30 letters at k = 6 30^6 bits; the
    # budgeted searches must end in a verdict or Inconclusive instead
    def chain(word, alphabet):
        states = [f"s{i}" for i in range(len(word) + 1)]
        return Nfa.build(
            states=states, alphabet=alphabet, initial=[states[0]], final=[states[-1]],
            transitions=[(states[i], sym, states[i + 1]) for i, sym in enumerate(word)],
        )

    letters = [f"x{i:02}" for i in range(30)]
    a, b = chain(letters[:12], letters), chain(letters[12:24], letters)
    tracemalloc.start()
    try:
        w = tuple("abcdefghijkl")
        assert profile_k(w, 12) == KProfile(12, brute_profile(w, 12))
        sep = separable_by_kpt(a, b, 6, max_nodes=20)
        assert sep is not None and verify_separator(sep, a, b, max_nodes=20)
        with pytest.raises(Inconclusive):
            separable_by_kpt(a, b, 6, max_nodes=5)
        assert dual_deepening(a, b, 6, 1, max_nodes=5) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


def referee_configs(d, live, max_nodes, layout):
    """The configurations of a plain BFS over (state, profile) that applies
    the uncached grow function of ``layout`` on every move, in the order it
    dequeues them, and the Inconclusive message it stops with (None when it
    runs out). With ``live``, it enters only states from which a final state
    is reachable."""
    grow = {sym: getattr(f, "__wrapped__", f) for sym, f in layout.grow.items()}
    delta = {(q, sym): t for q, sym, t in d.transitions}
    allowed = set(d.final) if live else d.states
    while live and (more := {q for (q, _), t in delta.items() if t in allowed} - allowed):
        allowed |= more
    root = (d.start, layout.root)
    configs, seen, queue = [], {root}, deque([root])
    while queue:
        node = queue.popleft()
        configs.append(node)
        state, prof = node
        for sym in sorted(d.alphabet):
            if delta[state, sym] in allowed:
                child = (delta[state, sym], grow[sym](prof))
                if child not in seen:
                    if len(seen) == max_nodes:
                        return configs, f"profile search exceeded {max_nodes} configurations"
                    seen.add(child)
                    queue.append(child)
    return configs, None


def kernel_configs(d, live, max_nodes, layout):
    """What ``_profile_configs`` yields, and its Inconclusive message."""
    configs = []
    try:
        configs.extend(_profile_configs(d, oracles._live(d) if live else d.states, max_nodes, layout))
    except Inconclusive as exc:
        return configs, str(exc)
    return configs, None


def cached_masks(layouts):
    """The grown masks that the grow functions of the bitmask ``layouts``
    cache."""
    return sum(grow.cache_info().currsize for layout in layouts for grow in layout.grow.values())


def test_profile_search_matches_a_plain_bfs_on_cold_and_warm_caches():
    # the minimal DFAs of the seed-4242 NFAs as pt_bounded searches them
    # (every state, own letters), and side B of the seed-777 pairs as
    # separable_by_kpt does (live states, union letters); each search runs
    # three times: the first may meet empty caches, the others read the
    # masks it cached. Piece sets cache nothing
    _layout.cache_clear()
    rng = random.Random(4242)
    cases = []
    for _ in range(300):
        d = random_nfa(rng, max_states=6)._minimal
        cases.append((d, False, tuple(sorted(d.alphabet))))
    rng = random.Random(777)
    for _ in range(300):
        a, b = random_nfa(rng, max_states=5), random_nfa(rng, max_states=5)
        cases.append((b._minimal, True, tuple(sorted(a.alphabet | b.alphabet))))
    piece_sets = {}
    ends, cold, warm = set(), False, False
    for i, (d, live, letters) in enumerate(cases):
        for k in (1, 2, 3, 4):
            layouts = [_layout(letters, k)]
            cold |= bool(letters) and not cached_masks(layouts)
            if i % 300 < 40:
                layouts.append(piece_sets.setdefault((letters, k), _PieceSets(letters, k)))
            for layout, max_nodes in itertools.product(layouts, (1000, 12)):
                want = referee_configs(d, live, max_nodes, layout)
                for _ in range(3):
                    assert kernel_configs(d, live, max_nodes, layout) == want
                ends.add(want[1])
            warm |= any(grow.cache_info().hits for grow in layouts[0].grow.values())
    assert ends == {None, "profile search exceeded 1000 configurations",
                    "profile search exceeded 12 configurations"}
    assert cold and warm
    assert not any(hasattr(grow, "cache_info")
                   for layout in piece_sets.values() for grow in layout.grow.values())


def sigma_star(letters):
    return Dfa.build(["q"], letters, [("q", sym, "q") for sym in letters], ["q"], ["q"])


def test_grown_mask_caches_stay_within_their_bound():
    # Σ* over 16 letters at k = 2 has 273-bit masks, and one search at 5000
    # configurations grows about 300 distinct profiles by each letter, past
    # the 128 masks a letter's cache keeps. Forty distinct layouts pass the
    # 32 that _layout keeps, so it evicts whole layouts too
    _layout.cache_clear()
    alphabets = [tuple(f"{chr(97 + i)}{j}" for i in range(16)) for j in range(40)]
    sigmas = [sigma_star(letters) for letters in alphabets]
    want = referee_configs(sigmas[0], False, 5000, _layout(alphabets[0], 2))
    bound = 32 * _GROWN_MASKS_PER_LAYOUT
    # a cache entry keeps two masks, its key and the grown mask, each no
    # wider than the layout's and each with its share of the bookkeeping
    per_mask = sys.getsizeof((1 << 273) - 1) + 64
    kept = weakref.WeakSet()  # the layouts that _layout still keeps
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for d, letters in zip(sigmas, alphabets):
            kept.add(_layout(letters, 2))
            kernel_configs(d, False, 5000, _layout(letters, 2))
            held, _ = tracemalloc.get_traced_memory()
            assert cached_masks(kept) <= bound
            assert held - base <= bound * 2 * per_mask
    finally:
        tracemalloc.stop()
    assert len(kept) == 32 and cached_masks(kept) == bound
    for _ in range(3):
        assert kernel_configs(sigmas[0], False, 5000, _layout(alphabets[0], 2)) == want


def test_layouts_over_many_letters_grow_without_a_cache():
    # past 32 letters a letter's share of the layout's cache is below 64
    # masks, too few to hit before it evicts, so the grow is the plain shift
    letters = tuple(f"x{i:02d}" for i in range(40))
    few, many = _Bitmasks(letters[:32], 2), _Bitmasks(letters[:33], 2)
    assert {grow.cache_info().maxsize for grow in few.grow.values()} == {64}
    assert not any(hasattr(grow, "cache_info") for grow in many.grow.values())
    for k, max_nodes in ((1, 5000), (2, 300)):
        layout = _layout(letters, k)
        assert isinstance(layout, _Bitmasks)
        d = sigma_star(letters)
        assert kernel_configs(d, False, max_nodes, layout) == referee_configs(
            d, False, max_nodes, layout
        )


def test_reachable_profiles_frozen_value():
    assert reachable_profiles(aut(AA_PLUS), 1) == frozenset(
        {KProfile(1, frozenset({(), ("a",)}))}
    )


def test_reachable_profiles_cover_accepted_words():
    rng = random.Random(32)
    for _ in range(40):
        a = random_nfa(rng, max_states=4)
        for k in (1, 2):
            found = {pr.pieces for pr in reachable_profiles(a, k)}
            for w in brute_language(a, 4):
                assert brute_profile(w, k) in found


def test_reachable_profiles_exact_on_finite_language():
    # L = {ab}: exactly one profile per k
    for k in (1, 2, 3):
        profs = reachable_profiles(aut(JUST_AB), k)
        assert profs == frozenset({KProfile(k, brute_profile(("a", "b"), k))})


def test_reachable_profiles_budget():
    with pytest.raises(Inconclusive):
        reachable_profiles(aut(AA_PLUS), 1, max_nodes=1)


def test_a_search_that_fits_its_budget_reads_the_trim():
    # over the seed-777 and seed-5 pairs at k = 0..3: the trimmed and the
    # minimal-DFA searches accept the same profiles, so side B answers the
    # same on both. Where the bound holds at N, here at its tightest N =
    # 2^(n+P), the minimal-DFA search at N cannot run out, nor the trimmed
    # one, and neither visits more than N configurations; one below, the
    # bound fails
    def masks(aut, live, layout):
        configs, end = kernel_configs(aut, live, 3000, layout)
        return None if end else {prof for state, prof in configs if state in aut.final}

    pairs = []
    for seed in (777, 5):
        rng = random.Random(seed)
        pairs += [(random_nfa(rng, max_states=5), random_nfa(rng, max_states=5)) for _ in range(300)]
    compared = tight = 0
    for a, b in pairs:
        letters = tuple(sorted(a.alphabet | b.alphabet))
        for k in range(4):
            layout = _layout(letters, k)
            got = {}
            for x in (a, b):
                trimmed, minimal = masks(x._trimmed, False, layout), masks(x._minimal, True, layout)
                if None not in (trimmed, minimal):
                    assert trimmed == minimal
                got[x] = minimal
                n, s = len(x._trimmed.states), len(x.alphabet)
                bound = n + sum(s**j for j in range(1, k + 1))
                if bound > 16:
                    continue
                assert oracles._profiles_fit(n, s, k, 1 << bound)
                assert not oracles._profiles_fit(n, s, k, (1 << bound) - 1)
                for d, live in ((x._minimal, True), (x._trimmed, False)):
                    configs, end = kernel_configs(d, live, 1 << bound, layout)
                    assert end is None and len(configs) <= 1 << bound
                tight += 1
            if got[a] is not None and got[b] is not None:
                compared += 1
                want = None
                if got[a].isdisjoint(got[b]):
                    want = KptSeparator(k, frozenset(map(layout.decode, got[a])), "A")
                assert separable_by_kpt(a, b, k, 3000) == want
    assert compared > 2100 and tight > 4000


def test_the_budget_bound_builds_no_large_integer():
    # P = 30 + 30^2 + ... + 30^100 is summed only while it can fit; a k-step
    # loop with no letter, or with one, ends at once too
    assert not oracles._profiles_fit(5, 30, 100, DEFAULT_MAX_NODES)
    assert not oracles._profiles_fit(0, 30, 10**9, 2**64)
    assert not oracles._profiles_fit(0, 1, 10**12, 2**64)
    assert oracles._profiles_fit(3, 0, 10**12, 16)
    assert not oracles._profiles_fit(0, 0, 0, 0) and not oracles._profiles_fit(0, 0, 0, -5)


# ------------------------------------------------------------------ separators


def test_kpt_separator_for_disjoint_unary_languages():
    a, b = aut(AA_PLUS), aut(BB_PLUS)
    sep = separable_by_kpt(a, b, 1)
    assert sep == KptSeparator(
        k=1, accepted_profiles=frozenset({KProfile(1, frozenset({(), ("a",)}))}), side="A"
    )
    assert verify_separator(sep, a, b)
    # {a} over {a} against {b} over {b}: laid out each over its own alphabet,
    # "a" and "b" would both be the mask 0b11 and look like one profile
    just_a, just_b = (
        Nfa.build(states=["x", "y"], alphabet=[sym], transitions=[("x", sym, "y")],
                  initial=["x"], final=["y"])
        for sym in "ab"
    )
    sep = separable_by_kpt(just_a, just_b, 1)
    assert sep == KptSeparator(
        k=1, accepted_profiles=frozenset({KProfile(1, frozenset({(), ("a",)}))}), side="A"
    )
    assert verify_separator(sep, just_a, just_b)


def test_separator_side_b_verifies_after_swap():
    a, b = aut(AA_PLUS), aut(BB_PLUS)
    sep = KptSeparator(
        k=1, accepted_profiles=frozenset({KProfile(1, frozenset({(), ("b",)}))}), side="B"
    )
    assert verify_separator(sep, a, b)
    # same profiles claimed for the wrong side fail
    bad = KptSeparator(k=1, accepted_profiles=sep.accepted_profiles, side="A")
    assert not verify_separator(bad, a, b)


def test_no_kpt_separator_for_cycle_pair():
    a, b = aut(AB_CYCLE), aut(BA_CYCLE)
    for k in (1, 2, 3, 4):
        assert separable_by_kpt(a, b, k) is None


def test_finite_pair_separates_at_two():
    a, b = aut(JUST_AB), aut(JUST_BA)
    assert separable_by_kpt(a, b, 1) is None
    sep = separable_by_kpt(a, b, 2)
    assert sep is not None and sep.k == 2
    assert verify_separator(sep, a, b)


def test_verify_separator_rejects_tampered_separators():
    # against the profile sets themselves: each side's reachable profiles
    # compared with the separator's as KProfile sets
    def referee(s, a, b):
        covered, other = (profiles(a, s.k), profiles(b, s.k))[:: 1 if s.side == "A" else -1]
        return covered <= s.accepted_profiles and not (other & s.accepted_profiles)

    profiles = functools.lru_cache(reachable_profiles)
    rng = random.Random(777)
    pairs = [(random_nfa(rng, max_states=5), random_nfa(rng, max_states=5)) for _ in range(300)]
    rejected = 0
    for a, b in pairs:
        for k in (1, 2):
            try:
                sep = separable_by_kpt(a, b, k, max_nodes=1000)
            except Inconclusive:
                continue
            if sep is None:
                continue
            assert verify_separator(sep, a, b)
            profs_b = profiles(b, k)
            impossible = {  # no word over the union alphabet has these
                KProfile(k, frozenset({(), ("x",)})),
                KProfile(k, frozenset({()} | {("a",) * n for n in range(1, k + 2)})),
                KProfile(k + 1, frozenset({()})),
            }
            tampered = [
                KptSeparator(k, sep.accepted_profiles | impossible, "A"),
                KptSeparator(3 - k, sep.accepted_profiles, "A"),  # the other k
                KptSeparator(k, sep.accepted_profiles, "B"),
            ]
            if sep.accepted_profiles:  # a dropped A-profile
                dropped = min(sep.accepted_profiles, key=repr)
                tampered.append(KptSeparator(k, sep.accepted_profiles - {dropped}, "A"))
            if profs_b:  # an added B-profile
                added = min(profs_b, key=repr)
                tampered.append(KptSeparator(k, sep.accepted_profiles | {added}, "A"))
            for s in tampered:
                got = verify_separator(s, a, b)
                assert got == referee(s, a, b)
                rejected += not got
            assert verify_separator(tampered[0], a, b)
            assert not verify_separator(tampered[1], a, b) or not sep.accepted_profiles
            assert all(not verify_separator(s, a, b) for s in tampered[3:])
    assert rejected > 300
    a, b = aut(AA_PLUS), aut(BB_PLUS)
    sep = separable_by_kpt(a, b, 1)
    with pytest.raises(Inconclusive):
        verify_separator(sep, a, b, max_nodes=1)
    # a side other than "A" or "B" and a negative k name no separator; read
    # as side "B", the first would verify on the swapped pair
    assert verify_separator(KptSeparator(1, sep.accepted_profiles, "B"), b, a)
    assert not verify_separator(KptSeparator(1, sep.accepted_profiles, "X"), b, a)
    assert not verify_separator(KptSeparator(-1, sep.accepted_profiles, "A"), a, b)


# ---------------------------------------------------------------------- towers


def test_tower_height_one_frozen():
    t = bounded_tower_exists(aut(AA_PLUS), aut(BB_PLUS), 1)
    assert t == Tower(words=(("a",),), start_side="A")
    assert verify_tower(t, aut(AA_PLUS), aut(BB_PLUS))


def test_no_tower_of_height_two_for_disjoint_unary_pair():
    assert bounded_tower_exists(aut(AA_PLUS), aut(BB_PLUS), 2) is None


def test_tower_height_three_frozen_for_cycle_pair():
    a, b = aut(AB_CYCLE), aut(BA_CYCLE)
    t = bounded_tower_exists(a, b, 3)
    assert t == Tower(
        words=(tuple("ab"), tuple("baba"), tuple("ababab")), start_side="A"
    )
    assert verify_tower(t, a, b)


def test_tower_starts_on_side_b_when_a_is_empty():
    empty_a = aut("kind: nfa\nstates: x\nalphabet: a\ninitial: x\nfinal:\n")
    sigma_star = aut("kind: dfa\nstates: z\nalphabet: a\ninitial: z\nfinal: z\ntrans: z a z\n")
    t = bounded_tower_exists(empty_a, sigma_star, 1)
    assert t == Tower(words=((),), start_side="B")
    assert verify_tower(t, empty_a, sigma_star)


def test_tower_rejects_bad_height_and_budget():
    a, b = aut(AB_CYCLE), aut(BA_CYCLE)
    with pytest.raises(ValueError):
        bounded_tower_exists(a, b, 0)
    with pytest.raises(Inconclusive):
        bounded_tower_exists(a, b, 3, max_nodes=1)


def test_verify_tower_rejects_broken_chains():
    a, b = aut(AB_CYCLE), aut(BA_CYCLE)
    good = bounded_tower_exists(a, b, 3)
    assert verify_tower(good, a, b)
    assert not verify_tower(Tower(good.words, "B"), a, b)
    assert not verify_tower(Tower(good.words, "C"), a, b)
    assert not verify_tower(Tower((), "A"), a, b)
    # chain breaks: swap the middle word for one that is no subsequence source
    assert not verify_tower(
        Tower((tuple("ab"), tuple("ba"), tuple("ababab")), "A"), a, b
    )
    # membership breaks: middle word not in L(b)
    assert not verify_tower(
        Tower((tuple("ab"), tuple("abab"), tuple("ababab")), "A"), a, b
    )


def test_verify_tower_reads_words_over_the_union_alphabet():
    # as on the lifted pair: a letter of the other alphabet only rejects the
    # word, a letter outside both raises
    a, b = aut(AA_PLUS), aut(BB_PLUS)
    wide_a, wide_b = lift_pair(a, b)
    for u in itertools.product("ab", repeat=2):
        for w in itertools.product("ab", repeat=3):
            expected = automata.membership(wide_a, u) and automata.membership(wide_b, u + w)
            assert verify_tower(Tower((u, u + w), "A"), a, b) == (
                expected and is_subsequence(u, u + w)
            )
    with pytest.raises(automata.AlphabetMismatchError, match="'c'"):
        verify_tower(Tower((("a",), ("b", "c")), "A"), a, b)


def test_towers_verify_on_random_pairs():
    rng = random.Random(33)
    found = 0
    for _ in range(40):
        a = random_nfa(rng, max_states=4, letters=("a", "b"))
        b = random_nfa(rng, max_states=4, letters=("a", "b"))
        for h in (1, 2, 3):
            t = bounded_tower_exists(a, b, h)
            if t is not None:
                assert len(t.words) == h
                assert verify_tower(t, a, b)
                found += 1
    assert found > 20


def test_tower_search_on_unlifted_operands_matches_the_lifted_pair():
    # a letter missing from one operand is a dead move there, as the sink of
    # the lifted automaton was
    cases = [(single_word_nfa("aa", "a"), single_word_nfa("aba", "ab"))]
    rng = random.Random(35)
    while len(cases) < 30:
        a = random_nfa(rng, max_states=4, letters=("a", "b", "c"))
        b = random_nfa(rng, max_states=4, letters=("a", "b", "c"))
        if a.alphabet != b.alphabet:
            cases.append((a, b))
    for a, b in cases:
        wide_a, wide_b = automata.lift_pair(a, b)
        for h in (1, 2, 3):
            assert bounded_tower_exists(a, b, h) == bounded_tower_exists(wide_a, wide_b, h)
            assert bounded_tower_exists(b, a, h) == bounded_tower_exists(wide_b, wide_a, h)


def test_tower_absence_and_brute_force_agree():
    # for small finite languages compare against explicit enumeration
    rng = random.Random(34)
    for _ in range(25):
        wa = tuple(rng.choice("ab") for _ in range(rng.randint(1, 3)))
        wb = tuple(rng.choice("ab") for _ in range(rng.randint(1, 3)))
        a = single_word_nfa("".join(wa), "ab")
        b = single_word_nfa("".join(wb), "ab")
        t = bounded_tower_exists(a, b, 2)
        expected = is_subsequence(wa, wb) or is_subsequence(wb, wa)
        assert (t is not None) == expected


# ------------------------------------------------------------- dual deepening


def test_dual_deepening_frozen_outcomes():
    assert dual_deepening(aut(AA_PLUS), aut(BB_PLUS), 6, 5) == DeepeningVerdict(
        separable=True, level=1, method="separator"
    )
    assert dual_deepening(aut(AB_CYCLE), aut(BA_CYCLE), 6, 5) is None
    assert dual_deepening(aut(JUST_AB), aut(JUST_BA), 6, 5) == DeepeningVerdict(
        separable=True, level=2, method="separator"
    )
    # {aaa} vs {aaaaa}: no tower of height 3 is found before the k=4 separator
    short = single_word_nfa("aaa", "a")
    long = single_word_nfa("aaaaa", "a")
    assert dual_deepening(short, long, 6, 5) == DeepeningVerdict(
        separable=True, level=3, method="tower-absence"
    )


def test_each_operand_is_determinized_once(monkeypatch):
    # {a} over {a} against {aa} over {a, b}: the decision, its k = 2
    # separator, the separator's check and every deepening probe read the
    # two operands' cached minimal DFAs
    calls = []
    real = automata.subset_construction

    def counting(a):
        calls.append(a)
        return real(a)

    for name, module in list(sys.modules.items()):
        if name.startswith("ptsep") and hasattr(module, "subset_construction"):
            monkeypatch.setattr(module, "subset_construction", counting)
    a, b = single_word_nfa("a", "a"), single_word_nfa("aa", "ab")
    v = decide_separability(a, b, want_separator=True)
    assert v.separable and v.separator.k == 2
    assert verify_separator(v.separator, a, b)
    assert dual_deepening(a, b, 6, 5) == DeepeningVerdict(separable=True, level=2, method="separator")
    assert len(calls) == 2


def test_operands_within_the_bound_are_not_determinized(monkeypatch):
    # Σ*aΣ² over {a, b}, a 4-state NFA whose minimal DFA has 8 states,
    # against b*: the decision, its k = 1 separator, the separator's check
    # and a deepening that concludes at level 1 fit the default budget and
    # read the trimmed operands. At 40 and 1000 configurations the bound
    # fails, and the first operand is determinized once for both searches
    calls = []
    real = automata.subset_construction

    def counting(a):
        calls.append(a)
        return real(a)

    for name, module in list(sys.modules.items()):
        if name.startswith("ptsep") and hasattr(module, "subset_construction"):
            monkeypatch.setattr(module, "subset_construction", counting)
    moves = [("p", "a", "p"), ("p", "b", "p"), ("p", "a", "q1"), ("q1", "a", "q2")]
    moves += [("q1", "b", "q2"), ("q2", "a", "q3"), ("q2", "b", "q3")]
    a = Nfa.build(["p", "q1", "q2", "q3"], "ab", moves, ["p"], ["q3"])
    b = aut("kind: dfa\nstates: y\nalphabet: b\ninitial: y\nfinal: y\ntrans: y b y\n")
    v = decide_separability(a, b, want_separator=True)
    assert v.separable and v.separator.k == 1
    assert verify_separator(v.separator, a, b)
    assert dual_deepening(a, b, 6, 5) == DeepeningVerdict(separable=True, level=1, method="separator")
    assert calls == []
    for k, max_nodes in ((1, 40), (2, 1000)):
        assert not oracles._profiles_fit(4, 2, k, max_nodes)
        assert reachable_profiles(a, k, max_nodes) == reachable_profiles(a, k)
    assert calls == [a]


def test_dual_deepening_shortcuts_on_common_word():
    sigma = aut("kind: dfa\nstates: z\nalphabet: a\ninitial: z\nfinal: z\ntrans: z a z\n")
    assert dual_deepening(sigma, sigma, 6, 5) is None


def test_common_word_search_matches_the_lifted_product():
    rng = random.Random(21)
    outcomes = set()
    mixed = 0
    for _ in range(300):
        a = random_nfa(rng, max_states=5, letters=tuple(rng.sample("abcd", 3)))
        b = random_nfa(rng, max_states=5, letters=tuple(rng.sample("abcd", 3)))
        expected = not language_empty(product_intersection(*lift_pair(a, b)))
        assert _share_a_word(a, b) == expected
        outcomes.add(expected)
        mixed += a.alphabet != b.alphabet
    assert outcomes == {True, False} and mixed > 150
    # no pair is named, so operands whose pair names would collide in
    # product_intersection, ("a,b", "c") and ("a", "b,c"), are answered
    a = Nfa.build(["a,b", "a"], ["x"], [], ["a,b", "a"], ["a"])
    b = Nfa.build(["c", "b,c"], ["x"], [], ["c", "b,c"], ["c"])
    assert _share_a_word(a, b) and dual_deepening(a, b, 6, 5) is None


def reference_deepening(a, b, kmax, hmax, max_nodes, tower_max_nodes):
    """dual_deepening from public parts: the lifted product for the common
    word, and each separator probe as two whole profile searches, neither
    stopped early."""
    if not language_empty(product_intersection(*lift_pair(a, b))):
        return None
    for level in range(1, max(kmax, hmax) + 1):
        if level <= kmax:
            try:
                profs_a = reachable_profiles(a, level, max_nodes)
                separated = not (profs_a & reachable_profiles(b, level, max_nodes))
            except Inconclusive:
                separated = False
            if separated:
                return DeepeningVerdict(separable=True, level=level, method="separator")
        if level <= hmax:
            try:
                tower = bounded_tower_exists(a, b, level, tower_max_nodes)
            except Inconclusive:
                continue
            if tower is None:
                return DeepeningVerdict(separable=True, level=level, method="tower-absence")
    return None


def test_dual_deepening_matches_the_reference_probes():
    rng = random.Random(777)
    pairs = [(random_nfa(rng, max_states=5), random_nfa(rng, max_states=5)) for _ in range(300)]
    for budgets in ((500, 5000), (5, 50)):
        verdicts = set()
        for a, b in pairs:
            got = dual_deepening(a, b, 6, 5, *budgets)
            assert got == reference_deepening(a, b, 6, 5, *budgets)
            verdicts.add(got is None)
        assert verdicts == {True, False}


def test_separator_probe_stops_at_the_first_shared_profile():
    # A: odd numbers of a's; B: positive even numbers of a's, with b, c, d
    # read anywhere. Disjoint and not separable. At k = 1 B meets A's
    # profile {ε, a} after "aa", among its first 12 configurations, while
    # its whole space has 24 and overruns a budget of 12
    odd = aut("kind: dfa\nstates: e o\nalphabet: a\ninitial: e\nfinal: o\ntrans: e a o\ntrans: o a e\n")
    lines = ["kind: dfa", "states: z o e", "alphabet: a b c d", "initial: z", "final: e"]
    lines += ["trans: z a o", "trans: o a e", "trans: e a o"]
    lines += [f"trans: {q} {sym} {q}" for q in "zoe" for sym in "bcd"]
    even = aut("\n".join(lines))
    with pytest.raises(Inconclusive):
        reachable_profiles(even, 1, max_nodes=12)
    assert separable_by_kpt(odd, even, 1, max_nodes=12) is None
    for args in ((1, 0, 12, 50), (2, 2, 12, 50), (6, 5, 500, 5000)):
        assert dual_deepening(odd, even, *args) is None
        assert reference_deepening(odd, even, *args) is None


# ------------------------------------------------------------------ pt_bounded


def test_pt_bounded_frozen_outcomes():
    sigma = aut("kind: dfa\nstates: z\nalphabet: a b\ninitial: z\nfinal: z\ntrans: z a z\ntrans: z b z\n")
    assert pt_bounded(sigma, 4) == PtBoundedVerdict(is_pt=True, k=1)

    even_a = aut("kind: dfa\nstates: e o\nalphabet: a\ninitial: e\nfinal: e\ntrans: e a o\ntrans: o a e\n")
    assert pt_bounded(even_a, 4) == PtBoundedVerdict(is_pt=False, k=None)

    contains_a = aut(
        "kind: dfa\nstates: n y\nalphabet: a b\ninitial: n\nfinal: y\n"
        "trans: n a y\ntrans: n b n\ntrans: y a y\ntrans: y b y\n"
    )
    assert pt_bounded(contains_a, 4) == PtBoundedVerdict(is_pt=True, k=1)

    starts_with_a = aut(
        "kind: dfa\nstates: p q qp\nalphabet: a b\ninitial: p\nfinal: q\n"
        "trans: p a q\ntrans: p b qp\ntrans: q a q\ntrans: q b q\n"
        "trans: qp a qp\ntrans: qp b qp\n"
    )
    assert pt_bounded(starts_with_a, 4) == PtBoundedVerdict(is_pt=False, k=None)


def test_pt_bounded_needs_enough_k_for_four_pieces():
    # words with at least four a's (as a subsequence): 4-PT but not 3-PT
    lines = ["kind: dfa", "states: c0 c1 c2 c3 c4", "alphabet: a b", "initial: c0", "final: c4"]
    for i in range(4):
        lines.append(f"trans: c{i} a c{i + 1}")
        lines.append(f"trans: c{i} b c{i}")
    lines.append("trans: c4 a c4")
    lines.append("trans: c4 b c4")
    d = aut("\n".join(lines))
    assert pt_bounded(d, 3) is None
    assert pt_bounded(d, 4) == PtBoundedVerdict(is_pt=True, k=4)


def test_pt_bounded_handles_budget_exhaustion():
    even_a = aut("kind: dfa\nstates: e o\nalphabet: a\ninitial: e\nfinal: e\ntrans: e a o\ntrans: o a e\n")
    assert pt_bounded(even_a, 2, max_nodes=1) is None


def test_pt_bounded_stops_at_the_first_conflict():
    # even number of a's over {a,b,c,d}: the 1-profile {ε,a} is met at o
    # (after "a") and at e (after "aa") among the first 12 configurations,
    # while the full 1-profile space has 24 and overruns the budget
    lines = ["kind: dfa", "states: e o", "alphabet: a b c d", "initial: e", "final: e"]
    lines += ["trans: e a o", "trans: o a e"]
    lines += [f"trans: {q} {sym} {q}" for q in "eo" for sym in "bcd"]
    d = aut("\n".join(lines))
    with pytest.raises(Inconclusive):
        reachable_profiles(d, 1, max_nodes=12)
    assert pt_bounded(d, 1, max_nodes=12) == PtBoundedVerdict(is_pt=False, k=None)
