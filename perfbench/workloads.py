"""The four benchmark workloads.

Each workload turns a seed into a list of generated inputs (``inputs``) and
runs one input to a checked verdict (``check``). ``check`` returns
``(problem, conclusive)``: ``problem`` is ``None`` when the verdict agreed with
the workload's referee and every witness replayed, otherwise a one-line
reason; ``conclusive`` says whether the workload's budgeted oracle gave an
answer (it may run out of budget, which is not a failure; the ladders have
no oracle and are always conclusive).

Calls go through the ``ptsep`` module attributes (``separability.decide_...``)
so that the traced run's wrappers see them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import gen
from ptsep import automata, mcvp, oracles, piecewise, separability


def check_circuit(inp: gen.CircuitInput, params: dict) -> tuple[str | None, bool]:
    c = mcvp.parse_circuit(inp.text)
    value = mcvp.evaluate(c)
    if value != inp.value:
        return "evaluator disagrees with the generator's circuit value", True
    walker, rounds = mcvp.instance_pair(c)
    verdict = separability.decide_separability(walker, rounds)
    if verdict.separable == value:
        return f"separable={verdict.separable} for a circuit of value {value}", True
    if verdict.witness is not None:
        tower = separability.towers_from_pattern(verdict.witness, params["tower_height"])
        if not separability.verify_pattern(verdict.witness, walker, rounds):
            return "pattern witness failed replay", True
        if not oracles.verify_tower(tower, walker, rounds):
            return "tower failed replay", True
    return None, True


def check_chain(inp: gen.ChainInput, params: dict) -> tuple[str | None, bool]:
    verdict = piecewise.is_pt_nfa(automata.parse_automaton(inp.text))
    if not piecewise.verify_pt_witness(verdict):
        return "PT witness failed replay", True
    if inp.z is None:
        return (None if verdict.is_pt else "chain reported not PT"), True
    w = verdict.witness
    expected = (inp.chain, inp.chain[:-1] + (inp.z,), frozenset(inp.chain) | {inp.z})
    if not isinstance(w, piecewise.Triple) or (w.w, w.w_prime, w.gamma) != expected:
        return f"twin witness is not the constructed triple: {w!r}", True
    return None, True


def lifted(a, b):
    union = a.alphabet | b.alphabet
    return automata.lift_alphabet(a, union), automata.lift_alphabet(b, union)


def check_pair(inp: tuple[str, str], params: dict) -> tuple[str | None, bool]:
    a = automata.parse_automaton(inp[0])
    b = automata.parse_automaton(inp[1])
    verdict = separability.decide_separability(a, b, want_separator=True)
    if verdict.separable and not automata.language_empty(automata.product_intersection(*lifted(a, b))):
        return "separable despite a common word", False
    if verdict.witness is not None:
        tower = separability.towers_from_pattern(verdict.witness, params["tower_height"])
        if not separability.verify_pattern(verdict.witness, a, b):
            return "pattern witness failed replay", False
        if not oracles.verify_tower(tower, a, b):
            return "tower failed replay", False
    elif verdict.separator is not None:
        # the same profile searches that found the separator, at the same
        # library-default budget, so this cannot run out where they did not
        if not oracles.verify_separator(verdict.separator, a, b):
            return "separator failed replay", False
    elif not (verdict.separable and verdict.separator_omitted):
        return "verdict carries neither witness, separator nor omission", False
    if separability.decide_separability(b, a).separable != verdict.separable:
        return "verdict changes when the operands swap", False
    oracle = oracles.dual_deepening(
        a,
        b,
        kmax=params["oracle_kmax"],
        hmax=params["oracle_hmax"],
        max_nodes=params["max_nodes"],
        tower_max_nodes=params["tower_max_nodes"],
    )
    if oracle is None:
        return None, False
    if oracle.separable != verdict.separable:
        return f"dual_deepening says separable={oracle.separable}", True
    return None, True


def pt_by_confluence(d: automata.Dfa) -> bool:
    """Piecewise testability of a minimal complete DFA by the Klima-Polak
    characterization, which shares no code with ``ptsep.piecewise``: the DFA
    is partially ordered (no cycle through two distinct states) and locally
    confluent (for every state q and letters a, b some word w over {a, b}
    has q.a.w = q.b.w)."""
    step = {(src, sym): dst for src, sym, dst in d.transitions}
    letters = sorted(d.alphabet)
    indegree = dict.fromkeys(d.states, 0)
    for (src, _), dst in step.items():
        if dst != src:
            indegree[dst] += 1
    ready = [q for q, n in indegree.items() if n == 0]
    ordered = 0
    while ready:
        q = ready.pop()
        ordered += 1
        for sym in letters:
            dst = step[q, sym]
            if dst != q:
                indegree[dst] -= 1
                if indegree[dst] == 0:
                    ready.append(dst)
    if ordered < len(d.states):
        return False
    return all(
        meet(step, (step[q, a], step[q, b]), (a, b))
        for q in d.states
        for i, a in enumerate(letters)
        for b in letters[i + 1 :]
    )


def meet(step: dict, pair: tuple[str, str], letters: tuple[str, ...]) -> bool:
    """Whether some word over ``letters`` takes both states of ``pair`` to
    the same state."""
    seen, todo = {pair}, [pair]
    while todo:
        r, s = todo.pop()
        if r == s:
            return True
        for sym in letters:
            nxt = (step[r, sym], step[s, sym])
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return False


def check_pt(inp: str, params: dict) -> tuple[str | None, bool]:
    verdict = piecewise.is_pt_nfa(automata.parse_automaton(inp))
    if not piecewise.verify_pt_witness(verdict):
        return "PT witness failed replay", False
    if pt_by_confluence(verdict.minimal_dfa) != verdict.is_pt:
        return f"is_pt={verdict.is_pt} but the Klima-Polak test disagrees", False
    oracle = oracles.pt_bounded(verdict.minimal_dfa, params["oracle_kmax"], params["max_nodes"])
    if oracle is None:
        return None, False
    if oracle.is_pt != verdict.is_pt:
        return f"pt_bounded says is_pt={oracle.is_pt}", True
    return None, True


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int
    make: Callable[..., list]
    check: Callable[[Any, dict], tuple[str | None, bool]]
    params: dict

    def inputs(self, seed: int) -> list:
        return self.make(seed, self.params)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mcvp-ladder",
            default_seed=0,
            make=lambda seed, p: gen.circuit_ladder(seed, p["sizes"], p["per_value"]),
            check=check_circuit,
            # The median instance is one of the n = 80 circuits, so that size
            # has the most of them: a median over eight circuits varies less
            # from seed to seed than one over four.
            params={"sizes": (40, 80, 160), "per_value": (2, 4, 2), "tower_height": 4},
        ),
        Workload(
            name="pt-chain",
            default_seed=0,
            make=lambda seed, p: gen.chain_ladder(seed, p["sizes"]),
            check=check_chain,
            params={"sizes": (40, 60, 80)},
        ),
        Workload(
            name="pair-crosscheck",
            default_seed=777,
            make=lambda seed, p: gen.pair_corpus(seed, p["pairs"]),
            check=check_pair,
            params={
                "pairs": 10000,
                "tower_height": 4,
                "oracle_kmax": 6,
                "oracle_hmax": 5,
                "max_nodes": 500,
                "tower_max_nodes": 5000,
            },
        ),
        Workload(
            name="pt-corpus",
            default_seed=4242,
            make=lambda seed, p: gen.nfa_corpus(seed, p["nfas"], max_states=6),
            check=check_pt,
            params={"nfas": 5000, "oracle_kmax": 4, "max_nodes": 1000},
        ),
    )
}
