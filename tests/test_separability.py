import copy
import gc
import random
import weakref
from collections import deque

import pytest

from conftest import aut, brute_language, check_tower, random_nfa
from ptsep import automata, separability
from ptsep.automata import (
    AlphabetMismatchError,
    AutomatonError,
    Nfa,
    lift_alphabet,
    restricted_reach,
    scc_decomposition,
    trim,
)
from ptsep.mcvp import certificate_cycle_alphabet, evaluate, instance_pair, random_circuit
from ptsep.oracles import dual_deepening, verify_separator, verify_tower
from ptsep.separability import (
    BlockSegment,
    PatternWitness,
    PumpAnchor,
    _search_block_product,
    build_block_product,
    decide_separability,
    expand_pattern,
    maximal_common_cycle_alphabet,
    towers_from_pattern,
    verify_pattern,
)

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

RAW_AB = """
kind: nfa
states: r0 r1
alphabet: a b
initial: r0
final: r0
trans: r0 a r1
trans: r1 b r0
"""

RAW_BA = """
kind: nfa
states: w0 w1
alphabet: a b
initial: w0
final: w0
trans: w0 b w1
trans: w1 a w0
"""

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

CYCLE_PAIR_WITNESS = PatternWitness(
    connectors=((), ()),
    blocks=(
        BlockSegment(
            anchor=PumpAnchor(r_a="s1", r_b="t1", gamma=frozenset({"a", "b"})),
            a_entry=("a",),
            a_cycle=("b", "a"),
            a_exit=("b",),
            b_entry=("b",),
            b_cycle=("a", "b", "a", "b"),
            b_exit=("a",),
        ),
    ),
)


# -------------------------------------------------- common cycle alphabets


def test_maximal_common_cycle_alphabet_fixpoint():
    a, b = aut(AB_CYCLE), aut(BA_CYCLE)
    assert maximal_common_cycle_alphabet(a, b, "s1", "t1") == frozenset({"a", "b"})
    assert maximal_common_cycle_alphabet(a, b, "s0", "t0") == frozenset()
    assert maximal_common_cycle_alphabet(a, b, "sink", "sink") == frozenset({"a", "b"})


def test_maximal_common_cycle_alphabet_shrinks_to_common_part():
    # left loops on {a,b} at p, right only on {b} at q: the fixpoint drops a
    left = aut(
        """
        kind: nfa
        states: p
        alphabet: a b
        initial: p
        final: p
        trans: p a p
        trans: p b p
        """
    )
    right = aut(
        """
        kind: nfa
        states: q
        alphabet: a b
        initial: q
        final: q
        trans: q b q
        """
    )
    assert maximal_common_cycle_alphabet(left, right, "p", "q") == frozenset({"b"})


def test_maximal_common_cycle_alphabet_validates_inputs():
    a, b = aut(AB_CYCLE), aut(AA_PLUS)
    with pytest.raises(AlphabetMismatchError):
        maximal_common_cycle_alphabet(a, b, "s0", "z0")
    with pytest.raises(AutomatonError):
        maximal_common_cycle_alphabet(aut(AB_CYCLE), aut(BA_CYCLE), "nope", "t0")


# -------------------------------------------------------- block product


def block_edges(bp):
    """Each anchor of a block product with its enter and exit sets, in the
    shape of :func:`referee_anchors`. The sets are derived from the
    product's reach maps: a state enters root r when r is in its reach set,
    so the enter sets come from inverting each map once."""
    enter = {}
    for gamma, maps in bp.reach.items():
        for side, reach in enumerate(maps):
            into = {}
            for p, targets in reach.items():
                for r in targets:
                    into.setdefault(r, set()).add(p)
            enter[gamma, side] = {r: frozenset(ps) for r, ps in into.items()}
    out = []
    for x in bp.anchors:
        reach_a, reach_b = bp.reach[x.gamma]
        out.append(
            (
                (x.r_a, x.r_b, x.gamma),
                enter[x.gamma, 0][x.r_a],
                enter[x.gamma, 1][x.r_b],
                reach_a[x.r_a],
                reach_b[x.r_b],
            )
        )
    return out


def test_block_product_structure_for_cycle_pair():
    bp = build_block_product(aut(AB_CYCLE), aut(BA_CYCLE))
    # the dead sink is trimmed away on both sides
    assert bp.a.states == {"s0", "s1", "s2"}
    assert bp.b.states == {"t0", "t1", "t2"}
    # one block, {s1, s2} x {t1, t2} over {a, b}, anchored at its least states
    assert bp.anchors == (PumpAnchor("s1", "t1", frozenset({"a", "b"})),)
    # one pair of reach maps per anchor alphabet
    assert list(bp.reach) == [frozenset({"a", "b"})]
    [(_, enter_a, enter_b, exit_a, exit_b)] = block_edges(bp)
    assert enter_a == frozenset({"s0", "s1", "s2"})
    assert exit_a == frozenset({"s1", "s2"})
    assert enter_b == frozenset({"t0", "t1", "t2"})
    assert exit_b == frozenset({"t1", "t2"})
    referee = referee_anchors(bp.a, bp.b)
    assert [key[:2] for key, *_ in referee] == [
        ("s1", "t1"),
        ("s1", "t2"),
        ("s2", "t1"),
        ("s2", "t2"),
    ]
    assert_blocks_hold_the_referee(bp, referee)


def referee_edges(a, b, triples):
    """The (r_a, r_b, gamma) triples as anchors with their enter and exit
    sets, read from :func:`restricted_reach` on ``a`` and ``b``."""
    reach, sides = {}, {}

    def side(aut_, r, gamma):
        if (id(aut_), gamma) not in reach:
            reach[id(aut_), gamma] = restricted_reach(aut_, gamma)
        if (id(aut_), gamma, r) not in sides:
            into = reach[id(aut_), gamma]
            enter = frozenset(p for p in aut_.states if r in into[p])
            sides[id(aut_), gamma, r] = enter, into[r]
        return sides[id(aut_), gamma, r]

    out = []
    for r_a, r_b, gamma in triples:
        (enter_a, exit_a), (enter_b, exit_b) = side(a, r_a, gamma), side(b, r_b, gamma)
        out.append(((r_a, r_b, gamma), enter_a, enter_b, exit_a, exit_b))
    return out


def referee_anchors(a, b):
    """The anchors of two trimmed automata, one maximal_common_cycle_alphabet
    call per pair of states on some cycle, in (r_a, r_b) order, in the shape
    of :func:`block_edges`."""

    def cyclic(aut):
        full = scc_decomposition(aut, aut.alphabet)
        return sorted(q for comp in full if comp.letters for q in comp.states)

    triples = []
    for r_a in cyclic(a):
        for r_b in cyclic(b):
            gamma = maximal_common_cycle_alphabet(a, b, r_a, r_b)
            if gamma:
                triples.append((r_a, r_b, gamma))
    return referee_edges(a, b, triples)


class FreshComponents:
    """Each state's gamma-component, from a fresh SCC pass per automaton and
    gamma: (its states, its least state)."""

    def __init__(self):
        self.passes = {}

    def __call__(self, aut_, gamma, q):
        if (id(aut_), gamma) not in self.passes:
            self.passes[id(aut_), gamma] = {
                p: (comp.states, min(comp.states))
                for comp in scc_decomposition(aut_, gamma)
                for p in comp.states
            }
        return self.passes[id(aut_), gamma][q]


def assert_blocks_hold_the_referee(bp, referee):
    """Each per-pair referee anchor lies in exactly one block, a block
    holding (r_a, r_b) when r_a and r_b lie in the components of its roots
    under its gamma. That block has the referee's gamma and its enter and
    exit sets, and its roots are the least states of the referee roots'
    gamma-components. Every block holds some referee anchor."""
    component = FreshComponents()
    blocks = {}
    for (r_a, r_b, gamma), *sets in block_edges(bp):
        key = (gamma, component(bp.a, gamma, r_a)[0], component(bp.b, gamma, r_b)[0])
        blocks.setdefault(key, []).append(((r_a, r_b, gamma), sets))
    gammas = {gamma for gamma, _, _ in blocks}
    held = set()
    for (r_a, r_b, gamma), *sets in referee:
        holding = [
            block
            for g in gammas
            for block in blocks.get(
                (g, component(bp.a, g, r_a)[0], component(bp.b, g, r_b)[0]), []
            )
        ]
        assert len(holding) == 1, (r_a, r_b, gamma)
        [(key, block_sets)] = holding
        least = (component(bp.a, gamma, r_a)[1], component(bp.b, gamma, r_b)[1])
        assert key == (*least, gamma)
        assert block_sets == sets
        held.add(key)
    assert held == {(x.r_a, x.r_b, x.gamma) for x in bp.anchors}


def test_grouped_anchor_fixpoint_matches_the_per_pair_referee():
    rng = random.Random(777)
    pairs = [(random_nfa(rng, max_states=5), random_nfa(rng, max_states=5)) for _ in range(300)]
    pairs += [(b, a) for a, b in pairs]
    pairs += [instance_pair(random_circuit(n, seed)) for n in (2, 5, 13, 20, 40) for seed in (0, 1)]
    anchored = 0
    for a, b in pairs:
        bp = build_block_product(a, b)
        referee = referee_anchors(bp.a, bp.b)
        assert_blocks_hold_the_referee(bp, referee)
        anchored += bool(referee)
    assert anchored > 200


def test_true_mcvp_instances_have_one_block_over_the_certificate_alphabet():
    true = 0
    for n in (2, 3, 5, 13, 20, 40, 80, 160, 320):
        for seed in range(12):
            c = random_circuit(n, seed)
            if evaluate(c):
                true += 1
                bp = build_block_product(*instance_pair(c))
                assert [x.gamma for x in bp.anchors] == [certificate_cycle_alphabet(c)], (n, seed)
    assert true == 60


def views(x):
    """The views kept on an operand's trim, by gamma."""
    return x._trimmed.__dict__.get("_views", {})


def test_cached_views_equal_a_fresh_pass():
    # every view the fixpoint keeps on an operand's trim has the components
    # of a fresh Tarjan pass on the trimmed, lifted operand, and every reach
    # map it built is restricted_reach on that operand
    rng = random.Random(777)
    pairs = [(random_nfa(rng, max_states=5), random_nfa(rng, max_states=5)) for _ in range(300)]
    pairs += [(b, a) for a, b in pairs]
    pairs += [instance_pair(random_circuit(n, seed)) for n in (2, 5, 13, 20, 40) for seed in (0, 1)]
    checked = reached = 0
    for a, b in pairs:
        anchors = build_block_product(a, b).anchors
        sigma = a.alphabet | b.alphabet
        for side in (a, b):
            fresh = trim(lift_alphabet(side, sigma))
            for gamma, view in views(side).items():
                assert gamma <= a.alphabet & b.alphabet
                assert view.components == scc_decomposition(fresh, gamma)
                checked += 1
                if "reach" in view.__dict__:
                    assert view.reach == restricted_reach(fresh, gamma)
                    reached += 1
            # reach is built for the anchor alphabets and no other
            assert reach_computed(side) == {x.gamma for x in anchors}
    assert checked > 500 and reached > 200


def test_kept_views_leave_the_operands_to_reference_counting():
    # a view holds its automaton's index, not the automaton: with the
    # collector off, dropping the operands frees them and their trims
    a, b = instance_pair(random_circuit(40, 6))
    decide_separability(a, b)
    assert views(a) and views(b)
    refs = [weakref.ref(x) for x in (a, b, a._trimmed, b._trimmed)]
    gc.disable()
    try:
        del a, b
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_swapped_call_trims_nothing_and_runs_no_scc_pass(monkeypatch):
    trims = count_calls(monkeypatch, automata, "trim")
    passes = count_calls(monkeypatch, separability, "scc_decomposition")
    rng = random.Random(778)
    pairs = [(random_nfa(rng, max_states=5), random_nfa(rng, max_states=5)) for _ in range(100)]
    pairs += [(aut(AB_CYCLE), aut(BA_CYCLE)), instance_pair(random_circuit(20, 0))]
    first_passes = 0
    for a, b in pairs:
        trims.clear()
        passes.clear()
        first = decide_separability(a, b)
        assert len(trims) == 2
        first_passes += len(passes)
        reached = [reach_computed(x) for x in (a, b)]
        trims.clear()
        passes.clear()
        assert decide_separability(b, a).separable == first.separable
        assert trims == [] and passes == []
        # and builds no reach map either
        assert [reach_computed(x) for x in (a, b)] == reached
    assert first_passes > 60


def reach_computed(x):
    """The gammas whose view on an operand's trim has built its reach map."""
    return {gamma for gamma, view in views(x).items() if "reach" in view.__dict__}


def test_empty_operand_costs_no_scc_pass_on_the_other_side(monkeypatch):
    passes = count_calls(monkeypatch, separability, "scc_decomposition")
    empty = aut("kind: nfa\nstates: x y\nalphabet: a b\ninitial: x\nfinal: y\ntrans: x a x\n")
    for other in (aut(AB_CYCLE), aut(BA_CYCLE), aut(RAW_AB)):
        for a, b in ((empty, other), (other, empty)):
            bp = build_block_product(a, b)
            assert bp.anchors == () and bp.reach == {}
            assert decide_separability(a, b).separable
    assert passes == []


def test_building_the_product_again_gives_an_equal_product():
    # the second build reads the views the first one kept, and must not
    # have changed them
    rng = random.Random(779)
    pairs = [(random_nfa(rng, max_states=5), random_nfa(rng, max_states=5)) for _ in range(200)]
    pairs += [instance_pair(random_circuit(n, 1)) for n in (5, 20)]
    for a, b in pairs:
        first = build_block_product(a, b)
        kept = [copy.deepcopy(view_contents(x)) for x in (a, b)]
        again = build_block_product(a, b)
        assert again == first and again.reach == first.reach
        assert [view_contents(x) for x in (a, b)] == kept
        assert build_block_product(b, a).anchors == tuple(
            sorted(
                (PumpAnchor(x.r_b, x.r_a, x.gamma) for x in first.anchors),
                key=lambda x: (x.r_a, x.r_b),
            )
        )


def view_contents(x):
    """Each view on an operand's trim as (components, reach map or None)."""
    return {
        gamma: (view.components, view.__dict__.get("reach")) for gamma, view in views(x).items()
    }


def referee_search(bp, anchors):
    """The block-product BFS with a plain anchor scan: at every dequeued
    pair, after its letter children, every unfired anchor of ``anchors`` (in
    the shape of :func:`referee_anchors`) that the pair enters fires, in list
    order, and offers its whole exit product. Letter edges are read from the
    automata's transitions. Returns (goal, parents) or None."""
    succ = {}
    for side, aut_ in enumerate((bp.a, bp.b)):
        for src, sym, dst in aut_.transitions:
            succ.setdefault((side, src, sym), []).append(dst)

    def accepting(node):
        return node[0] in bp.a.final and node[1] in bp.b.final

    parents = {}
    queue = deque()

    def push(child, edge):
        """Record an unseen child; True when it is accepting."""
        if child in parents:
            return False
        parents[child] = edge
        queue.append(child)
        return accepting(child)

    for node in sorted((p, q) for p in bp.a.initial for q in bp.b.initial):
        if push(node, None):
            return node, parents
    fired = set()
    while queue:
        node = queue.popleft()
        p, q = node
        for sym in sorted(bp.a.alphabet):
            for p2 in sorted(succ.get((0, p, sym), ())):
                for q2 in sorted(succ.get((1, q, sym), ())):
                    if push((p2, q2), ("letter", sym, node)):
                        return (p2, q2), parents
        for idx, (_, enter_a, enter_b, exit_a, exit_b) in enumerate(anchors):
            if idx not in fired and p in enter_a and q in enter_b:
                fired.add(idx)
                for p2 in sorted(exit_a):
                    for q2 in sorted(exit_b):
                        if push((p2, q2), ("block", idx, node)):
                            return (p2, q2), parents
    return None


def many_anchor_nfa(n, leave):
    """An n-state NFA, strongly connected over {a, b} (i -a-> i+1 mod n,
    i -b-> 2i mod n), that leaves its last cycle state on ``leave`` to its
    final state f. For two of them every pair of cycle states is an anchor."""
    states = [f"s{i}" for i in range(n)]
    trans = {(states[i], "a", states[(i + 1) % n]) for i in range(n)}
    trans |= {(states[i], "b", states[2 * i % n]) for i in range(n)}
    trans.add((states[-1], leave, "f"))
    return Nfa.build(
        states=states + ["f"],
        alphabet={"a", "b", leave},
        transitions=trans,
        initial={"s0"},
        final={"f"},
    )


def moves_per_letter_nfa(rng, n, letters="abcd"):
    """An n-state NFA with 0, 1 or 2 moves per state and letter, to targets
    drawn uniformly; q0 is initial, and each state is final with
    probability 0.1."""
    states = [f"q{i}" for i in range(n)]
    trans = {
        (q, sym, rng.choice(states))
        for q in states
        for sym in letters
        for _ in range(rng.randint(0, 2))
    }
    return Nfa.build(
        states=states,
        alphabet=set(letters),
        transitions=trans,
        initial={states[0]},
        final={q for q in states if rng.random() < 0.1},
    )


def random_moves_nfa(rng, n=300, letters="abcd", moves=900):
    """A random NFA with ``moves`` distinct transitions over n states."""
    states = [f"q{i}" for i in range(n)]
    trans = set()
    while len(trans) < moves:
        trans.add((rng.choice(states), rng.choice(letters), rng.choice(states)))
    return Nfa.build(
        states=states,
        alphabet=set(letters),
        transitions=trans,
        initial={"q0"},
        final={q for q in states if rng.random() < 0.1},
    )


# two anchors, (r, t1) and (r, t2), that exit to the same set on side A and to
# different sets on side B: the second adds (r, u) and may not be skipped
SHARED_EXIT_A = """
kind: nfa
states: r f
alphabet: a b c
initial: r
final: f
trans: r a r
trans: r b r
trans: r c f
"""

SHARED_EXIT_B = """
kind: nfa
states: s0 t1 t2 u g
alphabet: a b c
initial: s0
final: g
trans: s0 a t1
trans: s0 b t2
trans: t1 a t1
trans: t1 b t1
trans: t1 c g
trans: t2 a t2
trans: t2 b t2
trans: t2 b u
trans: u c g
"""


def same_search(bp, got, referee):
    """The product's search result ``got`` against :func:`referee_search`
    over the per-pair ``referee`` anchors: equal verdicts, and on a goal the
    same goal and the same parents in the same insertion order, with each
    block edge named by its anchor's (r_a, r_b, gamma), not its index."""
    want = referee_search(bp, referee)
    if got is None or want is None:
        return got is want

    def named(found, keys):
        goal, parents = found
        return goal, [
            (node, ("block", keys[edge[1]], edge[2]) if edge and edge[0] == "block" else edge)
            for node, edge in parents.items()
        ]

    own = [(x.r_a, x.r_b, x.gamma) for x in bp.anchors]
    return named(got, own) == named(want, [key for key, *_ in referee])


def test_search_fires_anchors_like_the_scanning_referee():
    rng = random.Random(777)
    pairs = [(random_nfa(rng, max_states=5), random_nfa(rng, max_states=5)) for _ in range(300)]
    pairs += [(b, a) for a, b in pairs]
    pairs += [instance_pair(random_circuit(n, seed)) for n in (2, 5, 13, 20, 40) for seed in (0, 1)]
    pairs.append((aut(SHARED_EXIT_A), aut(SHARED_EXIT_B)))
    sizes = (1, 2, 5, 12)
    pairs += [
        (many_anchor_nfa(m, "c"), many_anchor_nfa(n, leave))
        for m in sizes
        for n in sizes
        for leave in "cd"
    ]
    goals = blocks = 0
    for a, b in pairs:
        bp = build_block_product(a, b)
        got = _search_block_product(bp)
        assert same_search(bp, got, referee_anchors(bp.a, bp.b))
        if got is not None:
            goals += 1
            blocks += any(edge and edge[0] == "block" for edge in got[1].values())
    assert goals > 200 and blocks > 40


def test_many_anchor_family():
    for n in (25, 50, 150):
        assert decide_separability(many_anchor_nfa(n, "c"), many_anchor_nfa(n, "d")).separable
    for n in (25, 50):
        a, b = many_anchor_nfa(n, "c"), many_anchor_nfa(n, "c")
        v = decide_separability(a, b)
        assert not v.separable
        assert v.witness.blocks and verify_pattern(v.witness, a, b)


def block_pairs(bp):
    """Every (r_a, r_b, gamma) that the blocks of a product stand for: each
    pair of states of the block's two gamma-components, from a fresh SCC
    pass, in (r_a, r_b) order."""
    component = FreshComponents()
    triples = [
        (r_a, r_b, x.gamma)
        for x in bp.anchors
        for r_a in component(bp.a, x.gamma, x.r_a)[0]
        for r_b in component(bp.b, x.gamma, x.r_b)[0]
    ]
    return sorted(triples, key=lambda triple: triple[:2])


def test_random_300_state_pair_matches_the_scanning_referee():
    rng = random.Random(300)
    a, b = random_moves_nfa(rng), random_moves_nfa(rng)
    bp = build_block_product(a, b)
    triples = block_pairs(bp)
    assert len(triples) > 50_000
    # the per-pair fixpoint on a sample of state pairs, inside and outside
    # the blocks
    gammas = {(r_a, r_b): gamma for r_a, r_b, gamma in triples}
    sample = random.Random(301)
    for _ in range(30):
        r_a, r_b = sample.choice(sorted(bp.a.states)), sample.choice(sorted(bp.b.states))
        want = gammas.get((r_a, r_b), frozenset())
        assert maximal_common_cycle_alphabet(bp.a, bp.b, r_a, r_b) == want
    referee = referee_edges(bp.a, bp.b, triples)
    assert_blocks_hold_the_referee(bp, referee)
    got = _search_block_product(bp)
    assert same_search(bp, got, referee)
    v = decide_separability(a, b)
    assert v.separable == (got is None)
    if not v.separable:
        assert verify_pattern(v.witness, a, b)


def test_1000_state_pair_has_a_handful_of_anchors():
    rng = random.Random(1000)
    a, b = moves_per_letter_nfa(rng, 1000), moves_per_letter_nfa(rng, 1000)
    bp = build_block_product(a, b)
    # one anchor per pair of roots would be 950 600 anchors here
    assert 1 <= len(bp.anchors) <= 5
    # the reach maps hold one set per component, not one per state
    for gamma, maps in bp.reach.items():
        for side, reach in zip((bp.a, bp.b), maps):
            assert reach.keys() == side.states
            assert len({id(s) for s in reach.values()}) == len(scc_decomposition(side, gamma))
    v = decide_separability(a, b)
    assert not v.separable and verify_pattern(v.witness, a, b)


# ---------------------------------------------------------- the decision


def test_cycle_pair_is_not_separable_with_frozen_pattern():
    v = decide_separability(aut(AB_CYCLE), aut(BA_CYCLE))
    assert not v.separable
    assert v.separator is None and not v.separator_omitted
    assert v.witness == CYCLE_PAIR_WITNESS
    assert verify_pattern(v.witness, aut(AB_CYCLE), aut(BA_CYCLE))


def test_identical_languages_are_not_separable():
    a = aut(AB_CYCLE)
    v = decide_separability(a, a)
    assert not v.separable
    assert v.witness == PatternWitness(
        connectors=((), ()),
        blocks=(
            BlockSegment(
                anchor=PumpAnchor(r_a="s1", r_b="s1", gamma=frozenset({"a", "b"})),
                a_entry=("a",),
                a_cycle=("b", "a"),
                a_exit=("b",),
                b_entry=("a",),
                b_cycle=("b", "a"),
                b_exit=("b",),
            ),
        ),
    )
    assert verify_pattern(v.witness, a, a)


def test_shared_word_shows_up_as_blockless_pattern():
    v = decide_separability(aut(RAW_AB), aut(RAW_BA))
    assert not v.separable
    # the empty word lies in both languages: a zero-block pattern
    assert v.witness == PatternWitness(connectors=((),), blocks=())
    assert verify_pattern(v.witness, aut(RAW_AB), aut(RAW_BA))


def test_disjoint_unary_pair_is_separable():
    v = decide_separability(aut(AA_PLUS), aut(BB_PLUS))
    assert v.separable and v.witness is None and v.separator is None


def test_separator_is_attached_on_request():
    a, b = aut(AA_PLUS), aut(BB_PLUS)
    v = decide_separability(a, b, want_separator=True)
    assert v.separable and not v.separator_omitted
    assert v.separator is not None and v.separator.k == 1
    assert verify_separator(v.separator, a, b)


def test_separator_omitted_when_kmax_is_too_small():
    # {aaaa} vs {aa} needs pieces of length 3 to tell apart
    lines_a = ["kind: nfa", "states: n0 n1 n2 n3 n4", "alphabet: a", "initial: n0", "final: n4"]
    lines_a += [f"trans: n{i} a n{i + 1}" for i in range(4)]
    lines_b = ["kind: nfa", "states: m0 m1 m2", "alphabet: a", "initial: m0", "final: m2"]
    lines_b += [f"trans: m{i} a m{i + 1}" for i in range(2)]
    a, b = aut("\n".join(lines_a)), aut("\n".join(lines_b))
    v = decide_separability(a, b, want_separator=True, kmax=2)
    assert v.separable and v.separator is None and v.separator_omitted
    v2 = decide_separability(a, b, want_separator=True, kmax=4)
    assert v2.separator is not None and v2.separator.k == 3
    assert verify_separator(v2.separator, a, b)


def test_different_alphabets_are_lifted_internally():
    # separable: the letter sets force it, yet the call must not raise
    v = decide_separability(aut(AA_PLUS), aut(BB_PLUS))
    assert v.separable
    # and the unseparable direction still works across alphabets
    sigma_a = aut("kind: dfa\nstates: z\nalphabet: a\ninitial: z\nfinal: z\ntrans: z a z\n")
    sigma_ab = aut(
        "kind: dfa\nstates: z\nalphabet: a b\ninitial: z\nfinal: z\ntrans: z a z\ntrans: z b z\n"
    )
    v2 = decide_separability(sigma_a, sigma_ab)
    assert not v2.separable
    assert verify_pattern(v2.witness, sigma_a, sigma_ab)


# ----------------------------------------------------- pattern manipulation


def test_expand_pattern_frozen_expansions():
    w = CYCLE_PAIR_WITNESS
    assert expand_pattern(w, "A", (2,)) == tuple("ababab")
    assert expand_pattern(w, "B", (1,)) == tuple("bababa")
    assert expand_pattern(w, "A", (1,)) == tuple("abab")


def test_expand_pattern_validates_arguments():
    w = CYCLE_PAIR_WITNESS
    with pytest.raises(ValueError):
        expand_pattern(w, "C", (1,))
    with pytest.raises(ValueError):
        expand_pattern(w, "A", (1, 2))
    with pytest.raises(ValueError):
        expand_pattern(w, "A", (0,))  # the cycle must appear at least once


def test_verify_pattern_rejects_tampering():
    a, b = aut(AB_CYCLE), aut(BA_CYCLE)
    w = CYCLE_PAIR_WITNESS
    blk = w.blocks[0]
    # cycle word with the wrong letter set
    bad = PatternWitness(
        w.connectors,
        (BlockSegment(blk.anchor, blk.a_entry, ("b",), blk.a_exit, blk.b_entry, blk.b_cycle, blk.b_exit),),
    )
    assert not verify_pattern(bad, a, b)
    # expansion that leaves the language
    bad2 = PatternWitness(
        w.connectors,
        (BlockSegment(blk.anchor, ("b",), blk.a_cycle, blk.a_exit, blk.b_entry, blk.b_cycle, blk.b_exit),),
    )
    assert not verify_pattern(bad2, a, b)
    # blockless pattern whose word is in neither language
    assert not verify_pattern(PatternWitness(((),), ()), a, b)
    # an anchor naming a state neither automaton has
    ghost = PumpAnchor("nowhere", blk.anchor.r_b, blk.gamma)
    bad3 = PatternWitness(
        w.connectors,
        (BlockSegment(ghost, blk.a_entry, blk.a_cycle, blk.a_exit, blk.b_entry, blk.b_cycle, blk.b_exit),),
    )
    assert not verify_pattern(bad3, a, b)
    # A = {aa, aaaa, aaaaaa} is finite, hence separable from B = aaa(aa)*. A
    # forged block pumping "aa" at the anchor (0, 0) expands into words of
    # both languages for pump counts 1 to 3, but no run of either side closes
    # a cycle at state 0, so the witness proves nothing
    a = aut(
        "kind: nfa\nstates: 0 1 2 3 4 5 6\nalphabet: a\ninitial: 0\nfinal: 2 4 6\n"
        + "".join(f"trans: {i} a {i + 1}\n" for i in range(6))
    )
    b = aut(
        "kind: nfa\nstates: 0 1 2 3 4\nalphabet: a\ninitial: 0\nfinal: 3\n"
        "trans: 0 a 1\ntrans: 1 a 2\ntrans: 2 a 3\ntrans: 3 a 4\ntrans: 4 a 3\n"
    )
    assert decide_separability(a, b).separable
    anchor = PumpAnchor("0", "0", frozenset({"a"}))
    forged = PatternWitness(((), ()), (BlockSegment(anchor, (), ("a", "a"), (), ("a",), ("a", "a"), ()),))
    assert not verify_pattern(forged, a, b)


def test_pattern_witness_shape_is_validated():
    with pytest.raises(ValueError):
        PatternWitness(connectors=((),), blocks=CYCLE_PAIR_WITNESS.blocks)


# ------------------------------------------------------------------- towers


def test_towers_from_pattern_frozen_and_prefix_stable():
    a, b = aut(AB_CYCLE), aut(BA_CYCLE)
    t = towers_from_pattern(CYCLE_PAIR_WITNESS, 4)
    assert t.start_side == "A"
    assert ["".join(w) for w in t.words] == ["abab", "bababa", "abababab", "bababababa"]
    assert verify_tower(t, a, b)
    assert check_tower(t.words, t.start_side, a, b)
    t8 = towers_from_pattern(CYCLE_PAIR_WITNESS, 8)
    assert t8.words[:4] == t.words
    assert verify_tower(t8, a, b)
    with pytest.raises(ValueError):
        towers_from_pattern(CYCLE_PAIR_WITNESS, 0)


def test_towers_from_blockless_pattern_repeat_the_shared_word():
    a, b = aut(RAW_AB), aut(RAW_BA)
    w = decide_separability(a, b).witness
    t = towers_from_pattern(w, 5)
    assert t.words == ((),) * 5
    assert verify_tower(t, a, b)


# ------------------------------------------------------------ random sample


def test_random_pairs_symmetry_intersection_and_oracle():
    rng = random.Random(40)
    sep = nonsep = 0
    for _ in range(50):
        a = random_nfa(rng, max_states=4, letters=("a", "b"))
        b = random_nfa(rng, max_states=4, letters=("a", "b"))
        va = decide_separability(a, b)
        vb = decide_separability(b, a)
        assert va.separable == vb.separable
        la, lb = brute_language(a, 5), brute_language(b, 5)
        if la & lb:
            assert not va.separable
        if not va.separable:
            assert verify_pattern(va.witness, a, b)
            nonsep += 1
        else:
            sep += 1
        verdict = dual_deepening(a, b, kmax=4, hmax=4)
        if verdict is not None:
            assert verdict.separable == va.separable
    assert sep > 5 and nonsep > 5


def test_random_separable_pairs_yield_verified_separators():
    rng = random.Random(41)
    attached = 0
    for _ in range(40):
        a = random_nfa(rng, max_states=3, letters=("a", "b"))
        b = random_nfa(rng, max_states=3, letters=("a", "b"))
        v = decide_separability(a, b, want_separator=True)
        if v.separable and v.separator is not None:
            assert verify_separator(v.separator, a, b)
            attached += 1
    assert attached > 5
