"""Seeded input generators for the benchmark workloads.

Every generator returns text: automaton text in the format that
``ptsep.automata.parse_automaton`` reads, or circuit text for
``ptsep.mcvp.parse_circuit``. Nothing here imports ``ptsep``, so the program
under test only ever sees generated inputs, and the ground truth that comes
with an input (a circuit's value, a chain's expected witness) is computed
from the construction, not by the code being measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def automaton_text(kind, states, alphabet, initial, final, transitions) -> str:
    """Canonical automaton text, byte-identical to what
    ``ptsep.serialize_automaton`` writes for the same automaton."""
    lines = [
        f"kind: {kind}",
        ("states: " + " ".join(sorted(states))).rstrip(),
        ("alphabet: " + " ".join(sorted(alphabet))).rstrip(),
        ("initial: " + " ".join(sorted(initial))).rstrip(),
        ("final: " + " ".join(sorted(final))).rstrip(),
    ]
    lines += [f"trans: {s} {a} {d}" for s, a, d in sorted(set(transitions))]
    return "\n".join(lines) + "\n"


def random_nfa_text(rng: random.Random, max_states: int = 6, letters=("a", "b", "c")) -> str:
    """The random NFA of the acceptance suite's ``random_nfa``, drawn in the
    same order from ``rng``, as text."""
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    alpha = letters[: rng.randint(1, len(letters))]
    trans = []
    for q in states:
        for sym in sorted(alpha):
            for t in states:
                if rng.random() < 1.5 / n:
                    trans.append((q, sym, t))
    final = [q for q in states if rng.random() < 0.35]
    initial = [rng.choice(states)]
    return automaton_text("nfa", states, alpha, initial, final, trans)


def nfa_corpus(seed: int, count: int, max_states: int) -> list[str]:
    """``count`` NFAs from one ``random.Random(seed)`` stream."""
    rng = random.Random(seed)
    return [random_nfa_text(rng, max_states) for _ in range(count)]


def pair_corpus(seed: int, count: int, max_states: int = 5) -> list[tuple[str, str]]:
    """``count`` NFA pairs from one stream, first operand drawn first; the
    first 300 pairs at seed 777 are the acceptance suite's pair corpus."""
    rng = random.Random(seed)
    return [(random_nfa_text(rng, max_states), random_nfa_text(rng, max_states)) for _ in range(count)]


# ---------------------------------------------------------------------------
# circuits


def random_circuit_gates(n: int, seed: int) -> list[tuple]:
    """The gates of ``ptsep.mcvp.random_circuit(n, seed)``, drawn in the same
    order: ``("const", bit)`` or ``(kind, left, right)`` with 1-based
    operands."""
    rng = random.Random(seed)
    gates: list[tuple] = [("const", rng.randint(0, 1)), ("const", rng.randint(0, 1))]
    for i in range(3, n + 1):
        kind = rng.choice(("const", "and", "or"))
        if kind == "const":
            gates.append(("const", rng.randint(0, 1)))
        else:
            gates.append((kind, rng.randint(1, i - 1), rng.randint(1, i - 1)))
    return gates


def circuit_value(gates: list[tuple]) -> bool:
    """Value of the output gate, evaluated directly from the gate list."""
    vals: list[bool] = []
    for g in gates:
        if g[0] == "const":
            vals.append(bool(g[1]))
        elif g[0] == "and":
            vals.append(vals[g[1] - 1] and vals[g[2] - 1])
        else:
            vals.append(vals[g[1] - 1] or vals[g[2] - 1])
    return vals[-1]


def circuit_text(gates: list[tuple]) -> str:
    lines = []
    for i, g in enumerate(gates, start=1):
        if g[0] == "const":
            lines.append(f"{i} = {g[1]}")
        else:
            lines.append(f"{i} = {g[0].upper()} {g[1]} {g[2]}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CircuitInput:
    n: int
    text: str
    value: bool


def typical_mix(gates: list[tuple]) -> bool:
    """Within one of the expected (n - 2) / 3 AND gates and OR gates. The
    block product has (walker states) x (round states) x (letters) candidate
    pairs, and those state counts follow the binary and AND gate counts, so
    fixing the mix keeps a size's cost from swinging between seeds."""
    expected = (len(gates) - 2) / 3
    kinds = [g[0] for g in gates]
    return all(abs(kinds.count(kind) - expected) <= 1 for kind in ("and", "or"))


def circuit_ladder(seed: int, sizes, per_value) -> list[CircuitInput]:
    """For each size n and its count c in ``per_value``, the first c true and
    c false random circuits with a typical gate mix among circuit seeds drawn
    from ``random.Random(seed)``, so every size mixes both verdicts.

    Each size always draws 4n candidate circuits, and more only if those
    hold too few: about 1 in 25 candidates is kept at n = 40 and 80 and 1 in
    80 at n = 160, so 4n candidates are short in about one seed in a
    hundred. A fixed number of draws keeps the generation time, which is
    part of the set-up time, from depending on the seed."""
    rng = random.Random(seed)
    out: list[CircuitInput] = []
    for n, count in zip(sizes, per_value):
        wanted = {True: count, False: count}
        drawn = 0
        while drawn < 4 * n or any(wanted.values()):
            gates = random_circuit_gates(n, rng.getrandbits(32))
            drawn += 1
            value, typical = circuit_value(gates), typical_mix(gates)
            if typical and wanted[value]:
                wanted[value] -= 1
                out.append(CircuitInput(n, circuit_text(gates), value))
    return out


# ---------------------------------------------------------------------------
# chain DFAs


@dataclass(frozen=True)
class ChainInput:
    """A chain DFA with ``n`` states, or its non-PT twin. ``chain`` lists the
    letters that advance the chain in order; ``z`` is the twin's extra
    letter (``None`` for the plain chain)."""

    n: int
    text: str
    chain: tuple[str, ...]
    z: str | None


def chain_dfa(n: int, twin: bool, rng: random.Random) -> ChainInput:
    """State c_i advances on its own letter and self-loops on every other
    letter; c_{n-1} accepts and loops on everything. The language is "contains
    the chain word as a subsequence", piecewise testable and minimal.

    The twin adds a letter z that sends c_{n-2} to a rejecting absorbing
    state r and self-loops everywhere else. It is not piecewise testable: the
    only triple is p = c_0, q = c_{n-1}, q' = r over the full alphabet, and
    since state names sort as c000 < ... < r that pair is the last one the
    sorted triple scan reaches.

    The seed only names the letters and orders the text lines, so every seed
    costs the same.
    """
    names = [f"l{v:03d}" for v in rng.sample(range(1000), n)]
    chain, z = tuple(names[: n - 1]), (names[n - 1] if twin else None)
    alphabet = list(chain) + ([z] if twin else [])
    states = [f"c{i:03d}" for i in range(n)]
    trans = []
    for i, q in enumerate(states):
        for j, sym in enumerate(chain):
            trans.append((q, sym, states[i + 1] if j == i else q))
        if twin:
            trans.append((q, z, "r" if i == n - 2 else q))
    if twin:
        states.append("r")
        trans += [("r", sym, "r") for sym in alphabet]
    lines = automaton_text("dfa", states, alphabet, [states[0]], [f"c{n - 1:03d}"], trans).splitlines()
    header, body = lines[:5], lines[5:]
    rng.shuffle(body)
    return ChainInput(n, "\n".join(header + body) + "\n", chain, z)


def chain_ladder(seed: int, sizes) -> list[ChainInput]:
    """Each size as a plain chain followed by its twin."""
    rng = random.Random(seed)
    return [chain_dfa(n, twin, rng) for n in sizes for twin in (False, True)]
