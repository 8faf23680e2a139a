"""Invertible letter-to-letter automata and their action on finite words.

An automaton here is a complete deterministic transducer: every state has,
for every letter, a successor state and an output letter, and every state's
output row is a permutation of the alphabet.  Starting it in a fixed state
gives a length-preserving, prefix-compatible bijection on words over the
alphabet; those bijections are what the rest of the library counts and
audits.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    AlphabetMismatchError,
    AlphabetTooSmallError,
    DepthTooSmallError,
    LetterOutOfRangeError,
    MissingTransitionError,
    NonBijectiveOutputError,
    NotMaterializableError,
    UnknownFamilyError,
    UnknownStateError,
    ValidationError,
)

Word = tuple[int, ...]

BUILTIN_FAMILIES = ("adding", "flip_all", "flip_alternator", "remark_chain")


@dataclass(frozen=True)
class Alphabet:
    """A finite set of at least two distinct printable letter tokens.

    Letters are handled internally as indices 0..size-1; the tokens exist so
    files and CLI output stay readable.
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if len(self.symbols) < 2:
            raise AlphabetTooSmallError(
                f"alphabet needs at least 2 letters, got {len(self.symbols)}"
            )
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError("alphabet symbols must be pairwise distinct")
        for sym in self.symbols:
            if not sym or any(ch.isspace() for ch in sym):
                raise ValidationError(f"bad alphabet symbol {sym!r}")
        object.__setattr__(self, "_lookup", {s: i for i, s in enumerate(self.symbols)})

    @classmethod
    def of_size(cls, k: int) -> "Alphabet":
        return cls(tuple(str(i) for i in range(k)))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, token: str) -> int:
        try:
            return self._lookup[token]
        except KeyError:
            raise LetterOutOfRangeError(f"unknown letter {token!r}") from None

    def word(self, text: str) -> Word:
        """Decode a word from text.

        Single-character alphabets read contiguously ("011"); otherwise the
        letters must be whitespace-separated.
        """
        if not text:
            return ()
        if any(ch.isspace() for ch in text):
            return tuple(self.index(tok) for tok in text.split())
        if all(len(s) == 1 for s in self.symbols):
            return tuple(self.index(ch) for ch in text)
        return (self.index(text),)

    def text(self, word: Sequence[int]) -> str:
        toks = [self.symbols[x] for x in self.check_word(word)]
        if all(len(s) == 1 for s in self.symbols):
            return "".join(toks)
        return " ".join(toks)

    def check_word(self, word: Sequence[int]) -> Word:
        w = tuple(word)
        for x in w:
            if not 0 <= x < self.size:
                raise LetterOutOfRangeError(
                    f"letter index {x} out of range for alphabet of size {self.size}"
                )
        return w


@dataclass(frozen=True)
class MaterializationPolicy:
    """Record that an automaton is a finite stand-in for a parametric family.

    ``depth`` is how much of the family was materialized.  ``horizons`` maps
    state names to the largest processing length for which the table is exact
    when started there; states without an entry are exact at every length.
    """

    family: str
    depth: int
    horizons: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.depth < 1:
            raise ValidationError("materialization depth must be >= 1")
        object.__setattr__(self, "horizons", tuple(self.horizons))

    def horizon(self, state: str) -> int | None:
        for name, h in self.horizons:
            if name == state:
                return h
        return None


@dataclass(frozen=True)
class Automaton:
    """A complete, invertible letter transducer.

    ``transitions[q][x]`` is the successor state index and ``outputs[q][x]``
    the emitted letter index when state ``q`` reads letter ``x``.
    """

    alphabet: Alphabet
    states: tuple[str, ...]
    transitions: tuple[tuple[int, ...], ...]
    outputs: tuple[tuple[int, ...], ...]
    policy: MaterializationPolicy | None = None

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "transitions", tuple(tuple(r) for r in self.transitions))
        object.__setattr__(self, "outputs", tuple(tuple(r) for r in self.outputs))
        if not self.states:
            raise ValidationError("automaton needs at least one state")
        if len(set(self.states)) != len(self.states):
            raise ValidationError("state names must be distinct")
        n, k = len(self.states), self.alphabet.size
        if len(self.transitions) != n or len(self.outputs) != n:
            raise MissingTransitionError("transition and output tables must cover every state")
        identity = tuple(range(k))
        for q, name in enumerate(self.states):
            trow, orow = self.transitions[q], self.outputs[q]
            if len(trow) > k or len(orow) > k:
                raise ValidationError(f"state {name!r} has more rows than letters")
            if len(trow) < k or len(orow) < k:
                missing = min(len(trow), len(orow))
                raise MissingTransitionError(
                    f"state {name!r} has no entry for letter "
                    f"{self.alphabet.symbols[missing]!r}"
                )
            for t in trow:
                if not 0 <= t < n:
                    raise UnknownStateError(f"state {name!r} has a dangling transition target")
            if tuple(sorted(orow)) != identity:
                raise NonBijectiveOutputError(
                    f"output row of state {name!r} is not a permutation of the alphabet"
                )
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.states)})

    @classmethod
    def from_table(
        cls,
        symbols: "Alphabet | Sequence[str]",
        table: Mapping[str, Mapping[str, tuple[str, str]]],
        policy: MaterializationPolicy | None = None,
    ) -> "Automaton":
        """Build and check an automaton from name-keyed tables.

        ``table`` maps each state name to a row mapping input letter tokens to
        ``(next state name, output letter token)`` pairs.
        """
        alphabet = symbols if isinstance(symbols, Alphabet) else Alphabet(tuple(symbols))
        states = tuple(table)
        index = {s: i for i, s in enumerate(states)}
        transitions, outputs = [], []
        for name in states:
            row = table[name]
            for tok in row:
                if tok not in alphabet.symbols:
                    raise LetterOutOfRangeError(
                        f"state {name!r} has a row for unknown letter {tok!r}"
                    )
            trow, orow = [], []
            for tok in alphabet.symbols:
                if tok not in row:
                    raise MissingTransitionError(
                        f"state {name!r} has no transition for letter {tok!r}"
                    )
                nxt, out = row[tok]
                if nxt not in index:
                    raise UnknownStateError(
                        f"state {name!r} points to unknown state {nxt!r} on letter {tok!r}"
                    )
                trow.append(index[nxt])
                orow.append(alphabet.index(out))
            transitions.append(tuple(trow))
            outputs.append(tuple(orow))
        return cls(alphabet, states, tuple(transitions), tuple(outputs), policy)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def state_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownStateError(f"no state named {name!r}") from None

    def horizon(self, state: str) -> int | None:
        """Largest exact processing length from ``state`` (None = unbounded)."""
        if self.policy is None:
            return None
        return self.policy.horizon(state)

    def at(self, state: str) -> "Transformation":
        return Transformation(self, state)


@dataclass(frozen=True)
class Transformation:
    """An automaton started in a fixed state, acting on words."""

    automaton: Automaton
    state: str

    def __post_init__(self):
        object.__setattr__(self, "_start", self.automaton.state_index(self.state))

    @property
    def start(self) -> int:
        return self._start

    @property
    def alphabet(self) -> Alphabet:
        return self.automaton.alphabet

    def _check_length(self, length: int) -> None:
        h = self.automaton.horizon(self.state)
        if h is not None and length > h:
            raise NotMaterializableError(
                f"processing length {length} exceeds the materialized horizon {h} "
                f"of state {self.state!r}"
            )

    def apply(self, word: Sequence[int]) -> Word:
        """Image of ``word``; same length, each letter emitted as it is read."""
        w = self.alphabet.check_word(word)
        self._check_length(len(w))
        trans, out = self.automaton.transitions, self.automaton.outputs
        q = self._start
        result = []
        for x in w:
            result.append(out[q][x])
            q = trans[q][x]
        return tuple(result)

    def apply_stream(self, letters: Iterable[int]) -> Iterator[int]:
        """Streaming form of :meth:`apply` for unbounded inputs."""
        trans, out = self.automaton.transitions, self.automaton.outputs
        k = self.alphabet.size
        h = self.automaton.horizon(self.state)
        q = self._start
        for i, x in enumerate(letters):
            if not 0 <= x < k:
                raise LetterOutOfRangeError(f"letter index {x} out of range")
            if h is not None and i + 1 > h:
                raise NotMaterializableError(
                    f"streamed past the materialized horizon {h} of state {self.state!r}"
                )
            yield out[q][x]
            q = trans[q][x]

    def apply_text(self, text: str) -> str:
        return self.alphabet.text(self.apply(self.alphabet.word(text)))

    def path(self, word: Sequence[int]) -> tuple[int, ...]:
        """State indices visited while reading ``word``, including the start."""
        w = self.alphabet.check_word(word)
        self._check_length(len(w))
        trans = self.automaton.transitions
        q = self._start
        visited = [q]
        for x in w:
            q = trans[q][x]
            visited.append(q)
        return tuple(visited)

    def inverse(self) -> "Transformation":
        return Transformation(invert(self.automaton), inverse_name(self.state))

    def then(self, other: "Transformation") -> "Transformation":
        """The composite that applies ``self`` first, then ``other``."""
        product = compose(
            self.automaton, other.automaton, prune_from=(self.state, other.state)
        )
        return Transformation(product, pair_name(self.state, other.state))


def inverse_name(name: str) -> str:
    return name + "^-1"


def pair_name(a: str, b: str) -> str:
    return f"({a},{b})"


def invert(automaton: Automaton) -> Automaton:
    """Swap every edge's input and output letters; rename states q -> q^-1.

    Because each output row is a permutation the swapped rows are total, and
    the machine started at q^-1 undoes the original machine started at q.
    """
    k = automaton.alphabet.size
    transitions, outputs = [], []
    for q in range(automaton.n_states):
        trow = [0] * k
        orow = [0] * k
        for x in range(k):
            y = automaton.outputs[q][x]
            trow[y] = automaton.transitions[q][x]
            orow[y] = x
        transitions.append(tuple(trow))
        outputs.append(tuple(orow))
    policy = automaton.policy
    if policy is not None:
        policy = MaterializationPolicy(
            policy.family,
            policy.depth,
            tuple((inverse_name(s), h) for s, h in policy.horizons),
        )
    return Automaton(
        automaton.alphabet,
        tuple(inverse_name(s) for s in automaton.states),
        tuple(transitions),
        tuple(outputs),
        policy,
    )


def compose(
    a: Automaton,
    b: Automaton,
    prune_from: tuple[str, str] | None = None,
) -> Automaton:
    """Product automaton feeding ``a``'s output letters into ``b``.

    State (q, s) acts as "a at q, then b at s".  With ``prune_from`` only the
    pairs reachable from that pair are kept (the rest cannot influence it).
    """
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(
            f"cannot compose over alphabets {a.alphabet.symbols} and {b.alphabet.symbols}"
        )
    k = a.alphabet.size

    if prune_from is None:
        pairs = list(itertools.product(range(a.n_states), range(b.n_states)))
    else:
        start = (a.state_index(prune_from[0]), b.state_index(prune_from[1]))
        pairs = [start]
        seen = {start}
        queue = deque([start])
        while queue:
            qa, qb = queue.popleft()
            for x in range(k):
                nxt = (a.transitions[qa][x], b.transitions[qb][a.outputs[qa][x]])
                if nxt not in seen:
                    seen.add(nxt)
                    pairs.append(nxt)
                    queue.append(nxt)

    index = {p: i for i, p in enumerate(pairs)}
    names, transitions, outputs = [], [], []
    for qa, qb in pairs:
        names.append(pair_name(a.states[qa], b.states[qb]))
        trow, orow = [], []
        for x in range(k):
            y = a.outputs[qa][x]
            trow.append(index[(a.transitions[qa][x], b.transitions[qb][y])])
            orow.append(b.outputs[qb][y])
        transitions.append(tuple(trow))
        outputs.append(tuple(orow))

    policy = None
    if a.policy is not None or b.policy is not None:
        horizons = []
        for qa, qb in pairs:
            hs = [h for h in (a.horizon(a.states[qa]), b.horizon(b.states[qb])) if h is not None]
            if hs:
                horizons.append((pair_name(a.states[qa], b.states[qb]), min(hs)))
        depths = [p.depth for p in (a.policy, b.policy) if p is not None]
        fam_a = a.policy.family if a.policy else "finite"
        fam_b = b.policy.family if b.policy else "finite"
        policy = MaterializationPolicy(f"{fam_a}*{fam_b}", min(depths), tuple(horizons))

    return Automaton(a.alphabet, tuple(names), tuple(transitions), tuple(outputs), policy)


def minimize(automaton: Automaton) -> tuple[Automaton, dict[str, str]]:
    """Quotient by the coarsest behavioral congruence.

    Partition refinement: states start in classes keyed by their output row
    and split while some class distinguishes a pair by successor classes.
    The quotient class is named after its lowest-index member.  Returns the
    quotient and the mapping old state name -> class name.
    """
    n, k = automaton.n_states, automaton.alphabet.size
    labels: dict[tuple, int] = {}
    cls = []
    for q in range(n):
        key = automaton.outputs[q]
        cls.append(labels.setdefault(key, len(labels)))

    while True:
        labels = {}
        refined = []
        for q in range(n):
            key = (cls[q], tuple(cls[t] for t in automaton.transitions[q]))
            refined.append(labels.setdefault(key, len(labels)))
        if len(labels) == len(set(cls)):
            cls = refined
            break
        cls = refined

    representative: dict[int, int] = {}
    for q in range(n):
        representative.setdefault(cls[q], q)
    ordered = sorted(representative.values())
    new_of_old_class = {cls[q]: i for i, q in enumerate(ordered)}

    names = tuple(automaton.states[q] for q in ordered)
    transitions = tuple(
        tuple(new_of_old_class[cls[automaton.transitions[q][x]]] for x in range(k))
        for q in ordered
    )
    outputs = tuple(automaton.outputs[q] for q in ordered)

    policy = automaton.policy
    if policy is not None:
        horizons = []
        for i, rep in enumerate(ordered):
            hs = [
                h
                for q in range(n)
                if cls[q] == cls[rep]
                for h in [automaton.horizon(automaton.states[q])]
                if h is not None
            ]
            if hs:
                horizons.append((names[i], min(hs)))
        policy = MaterializationPolicy(policy.family, policy.depth, tuple(horizons))

    quotient = Automaton(automaton.alphabet, names, transitions, outputs, policy)
    mapping = {
        automaton.states[q]: names[new_of_old_class[cls[q]]] for q in range(n)
    }
    return quotient, mapping


def trivial_states(automaton: Automaton) -> frozenset[int]:
    """Indices of states that act as the identity on every word.

    Computed as the greatest set of states with identity output rows that is
    closed under transitions; this is the semantic notion, so syntactically
    different copies of the identity are all detected.
    """
    identity = tuple(range(automaton.alphabet.size))
    return greatest_closed_subset(
        automaton, {q for q in range(automaton.n_states) if automaton.outputs[q] == identity}
    )


def greatest_closed_subset(automaton: Automaton, candidates: set[int]) -> frozenset[int]:
    """Largest subset of ``candidates`` that every transition stays inside.

    Iteratively prunes states with a transition leaving the set; once no
    state escapes, no word can lead out of what is left.
    """
    while True:
        stable = {
            q for q in candidates
            if all(t in candidates for t in automaton.transitions[q])
        }
        if stable == candidates:
            return frozenset(stable)
        candidates = stable


def is_trivial_state(automaton: Automaton, state: str) -> bool:
    """True iff the automaton started at ``state`` is the identity on words."""
    return automaton.state_index(state) in trivial_states(automaton)


def identity_automaton(alphabet: Alphabet | int) -> Automaton:
    """Single state ``e`` copying its input; the unit for composition."""
    if isinstance(alphabet, int):
        alphabet = Alphabet.of_size(alphabet)
    k = alphabet.size
    return Automaton(alphabet, ("e",), ((0,) * k,), (tuple(range(k)),))


def generate_builtin(
    name: str,
    depth: int | None = None,
    length: int | None = None,
) -> Automaton:
    """Construct a builtin machine by family name.

    ``adding``          two states over {0,1}; started at q it adds one to a
                        word read as a binary number, lowest digit first.
    ``flip_all``        one state r over {0,1} negating every letter.
    ``flip_alternator`` states a, b over {0,1}; a negates, b copies, and they
                        swap after every letter regardless of input.
    ``remark_chain``    depth-bounded chain q_1..q_D plus e over {0,1,2,3}:
                        letter 0 kills to e, letter 1 steps down the chain,
                        letters 2 and 3 step up; every q_i swaps 0 and 1 and
                        fixes 2 and 3.  Passing ``length`` asserts the table
                        must be exact for that many letters from q_1, which
                        the clamp at q_D can only honor up to the depth.
    """
    if name == "adding":
        return Automaton.from_table(
            ("0", "1"),
            {
                "q": {"0": ("e", "1"), "1": ("q", "0")},
                "e": {"0": ("e", "0"), "1": ("e", "1")},
            },
        )
    if name == "flip_all":
        return Automaton.from_table(
            ("0", "1"),
            {"r": {"0": ("r", "1"), "1": ("r", "0")}},
        )
    if name == "flip_alternator":
        return Automaton.from_table(
            ("0", "1"),
            {
                "a": {"0": ("b", "1"), "1": ("b", "0")},
                "b": {"0": ("a", "0"), "1": ("a", "1")},
            },
        )
    if name == "remark_chain":
        if depth is None or depth < 1:
            raise ValidationError("remark_chain requires depth >= 1")
        if length is not None and length > depth:
            raise DepthTooSmallError(
                f"depth {depth} cannot serve processing length {length}; "
                f"materialize at least depth {length}"
            )
        table: dict[str, dict[str, tuple[str, str]]] = {}
        for i in range(1, depth + 1):
            down = "e" if i == 1 else f"q_{i - 1}"
            up = f"q_{i + 1}" if i < depth else f"q_{depth}"
            table[f"q_{i}"] = {
                "0": ("e", "1"),
                "1": (down, "0"),
                "2": (up, "2"),
                "3": (up, "3"),
            }
        table["e"] = {x: ("e", x) for x in "0123"}
        policy = MaterializationPolicy(
            "remark_chain",
            depth,
            tuple((f"q_{i}", depth - i + 1) for i in range(1, depth + 1)),
        )
        return Automaton.from_table(("0", "1", "2", "3"), table, policy)
    raise UnknownFamilyError(
        f"unknown builtin family {name!r}; choose from {', '.join(BUILTIN_FAMILIES)}"
    )
