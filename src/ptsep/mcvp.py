"""Monotone circuit evaluation encoded as a separability question.

A monotone boolean circuit (constants, AND, OR, operands pointing backwards)
is compiled into two DFAs whose languages are separable by a piecewise
testable language exactly when the circuit evaluates to false. The first
automaton walks gate certificates downwards from the output gate; the second
loops certificate-shaped rounds and forces both operands of every AND that
gets asserted. A padded variant of the first automaton is minimal as given,
so the pair also exercises decision procedures that insist on minimal input.

Both automata are complete DFAs over about 4n letters, so their transition
tables have Θ(n²) entries, yet only O(n) moves avoid the dead state "sink".
The builders hand over just those moves, and the sink stays implicit
(:class:`~ptsep.automata.Dfa`); the full tables are written out only when
an automaton is printed.
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


def _certificate_rows(c: Circuit) -> dict[str, dict[str, str]]:
    """The certificate walker's rows. Every letter a row lacks leads to the
    dead state "sink", whose row is empty."""
    rows = {"s": {"x": _operand_target(c, c.n)}, "T": {"y": "s"}, "F": {}, "sink": {}}
    for i, g in enumerate(c.gates, start=1):
        if g.kind != "const":
            rows[str(i)] = {
                f"a{i}": _operand_target(c, g.left),
                f"b{i}": _operand_target(c, g.right),
            }
    return rows


def build_certificate_dfa(c: Circuit) -> Dfa:
    """The certificate walker.

    From s, the letter x asserts the output gate; at an asserted AND or OR
    gate i, the letter a_i moves to the left operand and b_i to the right
    (constants resolve to T for true and F for false). From T the letter y
    returns to s, so accepted words chain certificate rounds; both T and F
    accept, as reaching F just means a round bottomed out at a false constant.
    """
    return Dfa._from_rows(_certificate_rows(c), circuit_alphabet(c), {"s"}, {"T", "F"}, "sink")


def build_round_dfa(c: Circuit) -> Dfa:
    """The round counter.

    Words alternate x and y; between them, at the mid state t, a true
    constant's letters self-loop, an OR gate's letters self-loop, and an AND
    gate i forces the pair a_i b_i through a private waiting state. A false
    constant's letters are rejected outright. Accepts exactly the words that
    close every round, so going through k rounds of valid certificates stays
    inside the language.
    """
    rows: dict[str, dict[str, str]] = {"q": {"x": "t"}, "t": {"y": "q"}, "sink": {}}
    mid = rows["t"]
    for i, g in enumerate(c.gates, start=1):
        if g.kind == "and":
            wait = f"w{i}"
            mid[f"a{i}"] = wait
            rows[wait] = {f"b{i}": "t"}
        elif g.kind == "or" or (g.kind == "const" and g.value == 1):
            mid[f"a{i}"] = "t"
            mid[f"b{i}"] = "t"
    return Dfa._from_rows(rows, circuit_alphabet(c), {"q"}, {"q"}, "sink")


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
    rows = _certificate_rows(c)
    alphabet = circuit_alphabet(c) | {f"f{j}" for j in range(1, 2 * n + 1)}
    for i, g in enumerate(c.gates, start=1):
        if g.kind != "const":
            if i < n:
                rows["s"][f"f{i}"] = str(i)
            rows[str(i)][f"f{n - 1 + i}"] = "F"
    rows["F"][f"f{2 * n}"] = "T"
    if all(g.kind == "const" for g in c.gates):
        # No gate state feeds F, and x skips it when the output constant is
        # true, so reach it through an otherwise unused padding letter.
        rows["s"]["f1"] = "F"
    padded = Dfa._from_rows(rows, alphabet, {"s"}, {"T", "F"}, "sink")
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
