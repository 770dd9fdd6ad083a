"""Monotone circuit evaluation encoded as a separability question.

A monotone boolean circuit (constants, AND, OR, operands pointing backwards)
is compiled into two DFAs whose languages are separable by a piecewise
testable language exactly when the circuit evaluates to false. The first
automaton walks gate certificates downwards from the output gate; the second
loops certificate-shaped rounds and forces both operands of every AND that
gets asserted. A padded variant of the first automaton is minimal as given,
so the pair also exercises decision procedures that insist on minimal input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .automata import Dfa, minimize


class CircuitError(ValueError):
    """Raised for malformed circuit text or an inconsistent gate list."""


class MinimalityViolation(AssertionError):
    """Raised if the padded automaton fails its own minimality guarantee."""


@dataclass(frozen=True)
class Gate:
    """One gate: kind is 'const', 'and' or 'or'; constants store their bit in
    ``value``, binary gates store 1-based operand indices that must both be
    smaller than the gate's own index."""

    kind: str
    value: int | None = None
    left: int | None = None
    right: int | None = None

    def __post_init__(self):
        if self.kind == "const":
            if self.value not in (0, 1) or self.left is not None or self.right is not None:
                raise CircuitError("constant gates carry only a bit")
        elif self.kind in ("and", "or"):
            if self.value is not None or self.left is None or self.right is None:
                raise CircuitError("binary gates carry two operand indices")
        else:
            raise CircuitError(f"unknown gate kind {self.kind!r}")


@dataclass(frozen=True)
class Circuit:
    """Gates in evaluation order, 1-based; the last gate is the output."""

    gates: tuple[Gate, ...]

    def __post_init__(self):
        if not self.gates:
            raise CircuitError("a circuit needs at least one gate")
        for i, g in enumerate(self.gates, start=1):
            if g.kind != "const":
                for ref in (g.left, g.right):
                    if not 1 <= ref < i:
                        raise CircuitError(
                            f"gate {i} refers to gate {ref}, which is not strictly earlier"
                        )

    @property
    def n(self) -> int:
        return len(self.gates)


def parse_circuit(text: str) -> Circuit:
    """Parse lines of the form ``i = 0``, ``i = 1``, ``i = AND j k`` or
    ``i = OR j k`` (case-insensitive operators, ``#`` comments, blank lines
    ignored). Gate numbers must be 1, 2, ... in order without gaps."""
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            head, rhs = line.split("=", 1)
        except ValueError:
            raise CircuitError(f"line {lineno}: expected 'index = definition'") from None
        try:
            index = int(head.strip())
        except ValueError:
            raise CircuitError(f"line {lineno}: gate index must be an integer") from None
        if index != len(gates) + 1:
            raise CircuitError(
                f"line {lineno}: expected gate {len(gates) + 1}, got {index}"
            )
        parts = rhs.split()
        if len(parts) == 1 and parts[0] in ("0", "1"):
            gates.append(Gate(kind="const", value=int(parts[0])))
        elif len(parts) == 3 and parts[0].upper() in ("AND", "OR"):
            try:
                left, right = int(parts[1]), int(parts[2])
            except ValueError:
                raise CircuitError(
                    f"line {lineno}: operand indices must be integers"
                ) from None
            gates.append(Gate(kind=parts[0].lower(), left=left, right=right))
        else:
            raise CircuitError(f"line {lineno}: definition must be 0, 1, AND j k, or OR j k")
    try:
        return Circuit(gates=tuple(gates))
    except CircuitError as exc:
        raise CircuitError(str(exc)) from None


def _gate_values(c: Circuit) -> list[bool]:
    """The value of every gate, in gate order."""
    vals: list[bool] = []
    for g in c.gates:
        if g.kind == "const":
            vals.append(bool(g.value))
        elif g.kind == "and":
            vals.append(vals[g.left - 1] and vals[g.right - 1])
        else:
            vals.append(vals[g.left - 1] or vals[g.right - 1])
    return vals


def evaluate(c: Circuit) -> bool:
    """Value of the output gate."""
    return _gate_values(c)[-1]


def circuit_alphabet(c: Circuit) -> frozenset[str]:
    """x, y, plus a_i / b_i per gate."""
    syms = {"x", "y"}
    for i in range(1, c.n + 1):
        syms.add(f"a{i}")
        syms.add(f"b{i}")
    return frozenset(syms)


def _operand_target(c: Circuit, ref: int) -> str:
    g = c.gates[ref - 1]
    if g.kind == "const":
        return "T" if g.value == 1 else "F"
    return str(ref)


def _complete(
    states: set[str],
    alphabet: frozenset[str],
    table: dict[tuple[str, str], str],
    initial: str,
    final: set[str],
) -> Dfa:
    """Close a partial transition table with a dead sink: every row starts
    with all letters into the sink, and the table is written over it."""
    sink = "sink"
    assert sink not in states
    into_sink = dict.fromkeys(alphabet, sink)
    rows = {q: into_sink.copy() for q in states | {sink}}
    for (q, sym), t in table.items():
        rows[q][sym] = t
    return Dfa._from_rows(rows, alphabet, {initial}, final)


def _certificate_table(c: Circuit) -> tuple[set[str], dict[tuple[str, str], str]]:
    """The certificate walker's states and its partial transition table, which
    both walkers complete with a sink."""
    states = {"s", "T", "F"} | {str(i) for i in range(1, c.n + 1) if c.gates[i - 1].kind != "const"}
    table: dict[tuple[str, str], str] = {("s", "x"): _operand_target(c, c.n), ("T", "y"): "s"}
    for i in range(1, c.n + 1):
        g = c.gates[i - 1]
        if g.kind == "const":
            continue
        table[(str(i), f"a{i}")] = _operand_target(c, g.left)
        table[(str(i), f"b{i}")] = _operand_target(c, g.right)
    return states, table


def build_certificate_dfa(c: Circuit) -> Dfa:
    """The certificate walker.

    From s, the letter x asserts the output gate; at an asserted AND or OR
    gate i, the letter a_i moves to the left operand and b_i to the right
    (constants resolve to T for true and F for false). From T the letter y
    returns to s, so accepted words chain certificate rounds; both T and F
    accept, as reaching F just means a round bottomed out at a false constant.
    """
    states, table = _certificate_table(c)
    return _complete(states, circuit_alphabet(c), table, "s", {"T", "F"})


def build_round_dfa(c: Circuit) -> Dfa:
    """The round counter.

    Words alternate x and y; between them, at the mid state t, a true
    constant's letters self-loop, an OR gate's letters self-loop, and an AND
    gate i forces the pair a_i b_i through a private waiting state. A false
    constant's letters are rejected outright. Accepts exactly the words that
    close every round, so going through k rounds of valid certificates stays
    inside the language.
    """
    alphabet = circuit_alphabet(c)
    states = {"q", "t"}
    table: dict[tuple[str, str], str] = {("q", "x"): "t", ("t", "y"): "q"}
    for i in range(1, c.n + 1):
        g = c.gates[i - 1]
        if g.kind == "and":
            wait = f"w{i}"
            states.add(wait)
            table[("t", f"a{i}")] = wait
            table[(wait, f"b{i}")] = "t"
        elif g.kind == "or" or (g.kind == "const" and g.value == 1):
            table[("t", f"a{i}")] = "t"
            table[("t", f"b{i}")] = "t"
    return _complete(states, alphabet, table, "q", {"q"})


def build_padded_certificate_dfa(c: Circuit) -> Dfa:
    """The certificate walker with 2n fresh padding letters that make the
    automaton minimal without touching its behaviour on the circuit alphabet.

    Letter f_i (i <= n-1) maps s to gate state i when that gate is binary;
    letter f_{n-1+i} maps binary gate state i to F; f_{2n} maps F to T. All
    fresh letters are undefined elsewhere, so no word over the original
    alphabet changes membership. Raises MinimalityViolation if the result is
    not minimal, which would break the guarantee callers rely on.
    """
    n = c.n
    states, table = _certificate_table(c)
    alphabet = circuit_alphabet(c) | {f"f{j}" for j in range(1, 2 * n + 1)}
    for i in range(1, n):
        if c.gates[i - 1].kind != "const":
            table[("s", f"f{i}")] = str(i)
    for i in range(1, n + 1):
        if c.gates[i - 1].kind != "const":
            table[(str(i), f"f{n - 1 + i}")] = "F"
    table[("F", f"f{2 * n}")] = "T"
    if all(g.kind == "const" for g in c.gates):
        # No gate state feeds F, and x skips it when the output constant is
        # true, so reach it through an otherwise unused padding letter.
        table[("s", "f1")] = "F"
    padded = _complete(states, alphabet, table, "s", {"T", "F"})
    if len(minimize(padded).states) != len(padded.states):
        raise MinimalityViolation("padded certificate automaton is not minimal")
    return padded


def certificate_cycle_alphabet(c: Circuit) -> frozenset[str]:
    """The pump-anchor letter set behind a true circuit: empty when the
    output is false, otherwise x, y, and the certificate letters a_i / b_i of
    true gates that a certificate for the output can actually traverse."""
    vals = _gate_values(c)
    if not vals[-1]:
        return frozenset()

    syms = {"x", "y"}
    seen: set[int] = set()
    stack = [c.n]
    while stack:
        i = stack.pop()
        if i in seen:
            continue
        seen.add(i)
        g = c.gates[i - 1]
        if g.kind == "const" or not vals[i - 1]:
            continue
        for sym_name, ref in ((f"a{i}", g.left), (f"b{i}", g.right)):
            if vals[ref - 1]:
                syms.add(sym_name)
                stack.append(ref)
    return frozenset(syms)


def random_circuit(n: int, seed: int) -> Circuit:
    """A reproducible random circuit with n gates: the first two are random
    constants, each later gate is uniformly a constant, an AND, or an OR with
    operands drawn uniformly among strictly earlier gates."""
    import random

    if n < 2:
        raise CircuitError("random circuits need at least two gates")
    rng = random.Random(seed)
    gates: list[Gate] = [
        Gate(kind="const", value=rng.randint(0, 1)),
        Gate(kind="const", value=rng.randint(0, 1)),
    ]
    for i in range(3, n + 1):
        kind = rng.choice(("const", "and", "or"))
        if kind == "const":
            gates.append(Gate(kind="const", value=rng.randint(0, 1)))
        else:
            gates.append(
                Gate(kind=kind, left=rng.randint(1, i - 1), right=rng.randint(1, i - 1))
            )
    return Circuit(gates=tuple(gates))


def instance_pair(c: Circuit) -> tuple[Dfa, Dfa]:
    """(padded certificate walker, round counter); not separable by any
    piecewise testable language exactly when the circuit is true."""
    return build_padded_certificate_dfa(c), build_round_dfa(c)
