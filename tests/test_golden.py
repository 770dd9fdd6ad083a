"""Exact outputs on the acceptance corpora, pinned by digest.

Each instance is dumped in a canonical text form (sets sorted, automata
serialized) and hashed; ``golden_outputs.txt`` holds one ``<instance>
<digest>`` line per instance, so a failure names the instances whose
verdict, witness, tower or minimal DFA changed. Covered:

- the 300 seed-777 pairs: ``decide_separability``, its pattern witness and
  ``towers_from_pattern(., 4)``; and the bounded oracles on the same pairs,
  ``dual_deepening(a, b, 6, 5, 500, 5000)``, ``bounded_tower_exists(a, b, h,
  3000)`` for h = 1..4 and ``reachable_profiles(a, k, 400)`` for k = 0..3;
- the 1000 seed-4242 NFAs: ``is_pt_nfa`` (verdict, witness and minimal DFA),
  and ``pt_bounded(minimal DFA, 4, n)`` for n = 1000 and 50;
- the MCVP instances of ``random_circuit(n, seed)`` for n = 40, 80, 160, 320
  and seeds 0 and 1: the serialized padded walker and round counter, and
  ``decide_separability`` on them with its pattern witness and
  ``towers_from_pattern(., 4)``.

An oracle that runs out of budget is dumped as its ``Inconclusive`` message.

Regenerate, only after a deliberate output change, with
``PYTHONPATH=src python tests/test_golden.py > tests/golden_outputs.txt``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from pathlib import Path

from conftest import random_nfa
from ptsep.automata import Nfa, serialize_automaton
from ptsep.mcvp import instance_pair, random_circuit
from ptsep.oracles import (
    Inconclusive,
    bounded_tower_exists,
    dual_deepening,
    pt_bounded,
    reachable_profiles,
)
from ptsep.piecewise import is_pt_nfa
from ptsep.separability import decide_separability, towers_from_pattern

GOLDEN = Path(__file__).with_name("golden_outputs.txt")


def canonical(x) -> str:
    if isinstance(x, Nfa):
        return repr(serialize_automaton(x))
    if dataclasses.is_dataclass(x):
        fields = (f"{f.name}={canonical(getattr(x, f.name))}" for f in dataclasses.fields(x))
        return f"{type(x).__name__}({', '.join(fields)})"
    if isinstance(x, frozenset):
        return "{" + ", ".join(sorted(canonical(v) for v in x)) + "}"
    if isinstance(x, tuple):
        inner = ", ".join(canonical(v) for v in x)
        return f"({inner},)" if len(x) == 1 else f"({inner})"
    return repr(x)


def bounded(search, *args):
    """The search's result, or its Inconclusive message."""
    try:
        return search(*args)
    except Inconclusive as exc:
        return f"Inconclusive: {exc}"


def instances():
    """(instance name, canonical output) for every covered instance."""
    rng = random.Random(777)
    pairs = [(random_nfa(rng, max_states=5), random_nfa(rng, max_states=5)) for _ in range(300)]
    for i, (a, b) in enumerate(pairs):
        v = decide_separability(a, b)
        tower = None if v.witness is None else towers_from_pattern(v.witness, 4)
        yield f"pair-{i}", canonical((v, tower))
    for i, (a, b) in enumerate(pairs):
        deepening = dual_deepening(a, b, 6, 5, 500, 5000)
        towers = tuple(bounded(bounded_tower_exists, a, b, h, 3000) for h in range(1, 5))
        profiles = tuple(bounded(reachable_profiles, a, k, 400) for k in range(4))
        yield f"oracle-{i}", canonical((deepening, towers, profiles))
    rng = random.Random(4242)
    verdicts = [is_pt_nfa(random_nfa(rng, max_states=6)) for _ in range(1000)]
    for i, verdict in enumerate(verdicts):
        yield f"nfa-{i}", canonical(verdict)
    for i, verdict in enumerate(verdicts):
        d = verdict.minimal_dfa
        yield f"pt-bounded-{i}", canonical((pt_bounded(d, 4, 1000), pt_bounded(d, 4, 50)))
    for n in (40, 80, 160, 320):
        for seed in (0, 1):
            yield f"mcvp-{n}-{seed}", canonical(instance_pair(random_circuit(n, seed)))
    for n in (40, 80, 160, 320):
        for seed in (0, 1):
            v = decide_separability(*instance_pair(random_circuit(n, seed)))
            tower = None if v.witness is None else towers_from_pattern(v.witness, 4)
            yield f"mcvp-verdict-{n}-{seed}", canonical((v, tower))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_outputs_match_the_golden_digests():
    expected = dict(line.split() for line in GOLDEN.read_text(encoding="utf-8").splitlines())
    outputs = dict(instances())
    assert outputs.keys() == expected.keys()
    changed = [name for name, text in outputs.items() if digest(text) != expected[name]]
    shown = "\n".join(f"{name}: {outputs[name]}" for name in changed[:3])
    assert not changed, f"{len(changed)} instances changed, first {changed[:10]}:\n{shown}"


if __name__ == "__main__":
    for name, text in instances():
        print(name, digest(text))
