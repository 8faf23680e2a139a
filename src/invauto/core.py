"""Invertible letter-to-letter automata and their action on finite words.

An automaton here is a complete deterministic transducer: every state has,
for every letter, a successor state and an output letter, and every state's
output row is a permutation of the alphabet.  Starting it in a fixed state
gives a length-preserving, prefix-compatible bijection on words over the
alphabet; those bijections are what the rest of the library counts and
audits.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .errors import (
    AlphabetMismatchError,
    AlphabetTooSmallError,
    ArgumentError,
    DepthTooSmallError,
    LetterOutOfRangeError,
    MissingTransitionError,
    NonBijectiveOutputError,
    NotMaterializableError,
    UnknownFamilyError,
    UnknownStateError,
    ValidationError,
)

if TYPE_CHECKING:  # imported where used: fractions loads decimal
    from fractions import Fraction

Word = tuple[int, ...]

# the builtin machines with a fixed table over {0,1}, by family name
_FIXED_BUILTINS = {
    "adding": {
        "q": {"0": ("e", "1"), "1": ("q", "0")},
        "e": {"0": ("e", "0"), "1": ("e", "1")},
    },
    "flip_all": {"r": {"0": ("r", "1"), "1": ("r", "0")}},
    "flip_alternator": {
        "a": {"0": ("b", "1"), "1": ("b", "0")},
        "b": {"0": ("a", "0"), "1": ("a", "1")},
    },
}
BUILTIN_FAMILIES = (*_FIXED_BUILTINS, "remark_chain")

_SPLIT_BITS = 128  # below this many bits an int goes to Decimal directly


def _exact_str(x: int | Fraction) -> str:
    """``str(x)`` with every digit, also past the interpreter's limit on
    int-to-str conversion, which is left as it is: an int's Decimal is exact
    and its str is not limited."""
    try:
        return str(x)
    except ValueError:  # the limit was hit
        pass
    text = _decimal_str(x.numerator)
    return text if x.denominator == 1 else f"{text}/{_decimal_str(x.denominator)}"


def _decimal_str(n: int) -> str:
    """Every digit of ``n`` in near-linear time, as CPython 3.12's
    ``_pylong`` does it: split n into binary halves, convert each half, and
    join them as hi * 2**w + lo in ``decimal``, whose large products are
    fast, at a precision that keeps every digit."""
    import decimal

    powers: dict[int, decimal.Decimal] = {}  # w -> 2**w, shared by the halves

    def power(w: int) -> decimal.Decimal:
        if w not in powers:
            if w <= _SPLIT_BITS:
                powers[w] = decimal.Decimal(2) ** w
            else:
                powers[w] = power(w >> 1) * power(w - (w >> 1))
        return powers[w]

    def convert(m: int, w: int) -> decimal.Decimal:  # 0 <= m < 2**w
        if w <= _SPLIT_BITS:
            return decimal.Decimal(m)
        half = w >> 1
        hi = m >> half
        return convert(m - (hi << half), half) + convert(hi, w - half) * power(half)

    with decimal.localcontext() as context:
        context.prec = decimal.MAX_PREC
        context.Emax = decimal.MAX_EMAX
        context.traps[decimal.Inexact] = True
        magnitude = convert(abs(n), n.bit_length())
    return f"-{magnitude}" if n < 0 else str(magnitude)


def _exact_repr(value) -> str:
    """``repr(value)``, with every digit of an int or Fraction past the
    interpreter's limit on int-to-str conversion, also inside tuples."""
    try:
        return repr(value)
    except ValueError:  # the limit was hit: rebuild the repr piece by piece
        pass
    from fractions import Fraction

    if type(value) is Fraction:
        return f"Fraction({_exact_str(value.numerator)}, {_exact_str(value.denominator)})"
    if type(value) is tuple:
        inner = ", ".join(map(_exact_repr, value))
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    return _exact_str(value)


def _dataclass_repr(obj) -> str:
    """The repr a dataclass generates, built with :func:`_exact_repr`, so a
    record holding long counts prints them in full."""
    shown = ", ".join(
        f"{f.name}={_exact_repr(getattr(obj, f.name))}" for f in fields(obj) if f.repr
    )
    return f"{type(obj).__qualname__}({shown})"


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
        k = len(self.symbols)
        if w and not (0 <= min(w) and max(w) < k):
            # slow path only to name the first bad letter
            for x in w:
                if not 0 <= x < k:
                    raise LetterOutOfRangeError(
                        f"letter index {x} out of range for alphabet of size {k}"
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
        object.__setattr__(self, "_lookup", dict(self.horizons))

    def horizon(self, state: str) -> int | None:
        return self._lookup.get(state)


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
        object.__setattr__(self, "transitions", tuple(map(tuple, self.transitions)))
        object.__setattr__(self, "outputs", tuple(map(tuple, self.outputs)))
        if not self.states:
            raise ValidationError("automaton needs at least one state")
        n, k = len(self.states), self.alphabet.size
        # the name lookup doubles as the duplicate check
        index = dict(zip(self.states, range(n)))
        if len(index) != n:
            raise ValidationError("state names must be distinct")
        trans, outs = self.transitions, self.outputs
        if len(trans) != n or len(outs) != n:
            raise MissingTransitionError("transition and output tables must cover every state")
        # whole-table checks first; each distinct output row is checked once
        identity = list(range(k))
        valid = (
            set(map(len, trans)) == {k} == set(map(len, outs))
            and min(chain.from_iterable(trans)) >= 0
            and max(chain.from_iterable(trans)) < n
            and all(sorted(row) == identity for row in set(outs))
        )
        if not valid:
            self._reject_first_bad_state()
        object.__setattr__(self, "_index", index)

    def __hash__(self) -> int:
        """The hash the dataclass would generate, computed once per object
        (walking a long table is slow) and kept on it."""
        kept = getattr(self, "_hash", None)
        if kept is None:
            kept = hash((self.alphabet, self.states, self.transitions, self.outputs, self.policy))
            object.__setattr__(self, "_hash", kept)
        return kept

    def __getstate__(self) -> dict:
        # str hashes change with PYTHONHASHSEED, so the kept hash stays here
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def _reject_first_bad_state(self) -> None:
        """Raise for the first state whose rows are malformed, state by state."""
        n, k = len(self.states), self.alphabet.size
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

    def _require_full(self, operation: str) -> None:
        """Refuse a whole-table answer on a depth-bounded materialization."""
        if self.policy is not None:
            raise NotMaterializableError(
                f"{operation} needs the full automaton; this one is a "
                "depth-bounded materialization (diagnose empirically from the "
                "count tables instead)"
            )

    def at(self, state: str) -> "Transformation":
        return Transformation(self, state)


@dataclass(frozen=True)
class Transformation:
    """An automaton started in a fixed state, acting on words."""

    automaton: Automaton
    state: str

    def __post_init__(self):
        object.__setattr__(self, "_start", self.automaton.state_index(self.state))
        object.__setattr__(self, "_horizon", self.automaton.horizon(self.state))

    @property
    def start(self) -> int:
        return self._start

    @property
    def alphabet(self) -> Alphabet:
        return self.automaton.alphabet

    def _check_length(self, level: int) -> None:
        """The level rule: words of length ``level`` need 0 <= level <= horizon."""
        if level < 0:
            raise ArgumentError("level must be >= 0")
        if self._horizon is not None and level > self._horizon:
            raise NotMaterializableError(
                f"level {level} exceeds the materialized horizon {self._horizon} "
                f"of state {self.state!r}"
            )

    def apply(self, word: Sequence[int]) -> Word:
        """Image of ``word``; same length, each letter emitted as it is read."""
        w = self.alphabet.check_word(word)
        self._check_length(len(w))
        return self._image(w)

    def _image(self, w: Word) -> Word:
        """:meth:`apply` for a word already checked against the alphabet and
        the horizon."""
        trans, out = self.automaton.transitions, self.automaton.outputs
        q = self._start
        result = []
        append = result.append
        for x in w:
            append(out[q][x])
            q = trans[q][x]
        return tuple(result)

    def apply_stream(self, letters: Iterable[int]) -> Iterator[int]:
        """Streaming form of :meth:`apply` for unbounded inputs."""
        trans, out = self.automaton.transitions, self.automaton.outputs
        k = self.alphabet.size
        q = self._start
        for i, x in enumerate(letters):
            if not 0 <= x < k:
                raise LetterOutOfRangeError(f"letter index {x} out of range")
            self._check_length(i + 1)
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


def _derived_policy(
    family: str, depth: int, stands_for: Iterable[tuple[str, Iterable[int | None]]]
) -> MaterializationPolicy:
    """Policy of a machine derived from depth-bounded ones.

    ``stands_for`` pairs each derived state name with the horizons of the
    states it stands for (None: unbounded).  The derived state is exact only
    as far as all of them are, so its horizon is the least of theirs.
    """
    least = (
        (name, min((h for h in hs if h is not None), default=None)) for name, hs in stands_for
    )
    return MaterializationPolicy(family, depth, tuple((s, h) for s, h in least if h is not None))


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
        policy = _derived_policy(
            policy.family, policy.depth, ((inverse_name(s), (h,)) for s, h in policy.horizons)
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
    nb = b.n_states
    # pair_name(sa, sb) is heads[qa] + tails[qb]
    heads = [f"({s}," for s in a.states]
    tails = [f"{s})" for s in b.states]
    names, transitions, outputs = [], [], []
    # pair (qa, qb) is numbered qa * nb + qb: a-major, as the full product lists it
    if prune_from is None:
        codes = range(a.n_states * nb)
        # one shared int per state index, so the table holds no copies of them
        ids = list(codes)
        # column[y][qb] is b's successor from qb on letter y
        column = [itemgetter(*(row[y] for row in b.transitions)) for y in range(k)]
        for head, ta, oa in zip(heads, a.transitions, a.outputs):
            names.extend(map(head.__add__, tails))
            # successor pairs of (qa, qb) for every qb at once, letter by letter
            targets = [column[y](ids[t * nb:(t + 1) * nb]) for t, y in zip(ta, oa)]
            # an itemgetter of one index returns the item itself, not a 1-tuple
            transitions.extend(zip(*targets) if nb > 1 else [tuple(targets)])
            outputs.extend(map(itemgetter(*oa), b.outputs))
    else:
        start = a.state_index(prune_from[0]) * nb + b.state_index(prune_from[1])
        # breadth-first from the start pair, letters ascending
        codes = [start]
        slot = {start: 0}
        for code in codes:
            qa, qb = divmod(code, nb)
            oa, tb = a.outputs[qa], b.transitions[qb]
            row = []
            for t, y in zip(a.transitions[qa], oa):
                nxt = t * nb + tb[y]
                i = slot.get(nxt)
                if i is None:
                    i = slot[nxt] = len(codes)
                    codes.append(nxt)
                row.append(i)
            names.append(heads[qa] + tails[qb])
            transitions.append(tuple(row))
            outputs.append(itemgetter(*oa)(b.outputs[qb]))

    policy = None
    if a.policy is not None or b.policy is not None:
        depths = [p.depth for p in (a.policy, b.policy) if p is not None]
        fam_a = a.policy.family if a.policy else "finite"
        fam_b = b.policy.family if b.policy else "finite"
        policy = _derived_policy(f"{fam_a}*{fam_b}", min(depths), (
            (name, (a.horizon(a.states[code // nb]), b.horizon(b.states[code % nb])))
            for name, code in zip(names, codes)
        ))

    return Automaton(a.alphabet, tuple(names), tuple(transitions), tuple(outputs), policy)


def minimize(automaton: Automaton) -> tuple[Automaton, dict[str, str]]:
    """Quotient by the coarsest behavioral congruence.

    Partition refinement: states start in classes keyed by their output row
    and split while some class distinguishes a pair by successor classes.
    The quotient class is named after its lowest-index member.  Returns the
    quotient and the mapping old state name -> class name.
    """
    labels: dict[tuple, int] = {}
    cls = [labels.setdefault(row, len(labels)) for row in automaton.outputs]
    while True:
        labels = {}
        refined = [
            labels.setdefault((c, tuple(cls[t] for t in row)), len(labels))
            for c, row in zip(cls, automaton.transitions)
        ]
        stable = len(labels) == len(set(cls))
        cls = refined
        if stable:
            break

    # classes are numbered in order of their lowest-index member
    members: dict[int, list[int]] = {}
    for q, c in enumerate(cls):
        members.setdefault(c, []).append(q)
    ordered = [qs[0] for qs in members.values()]
    names = tuple(automaton.states[q] for q in ordered)
    transitions = tuple(tuple(cls[t] for t in automaton.transitions[q]) for q in ordered)
    outputs = tuple(automaton.outputs[q] for q in ordered)

    policy = automaton.policy
    if policy is not None:
        policy = _derived_policy(policy.family, policy.depth, (
            (names[c], [automaton.horizon(automaton.states[q]) for q in qs])
            for c, qs in members.items()
        ))

    quotient = Automaton(automaton.alphabet, names, transitions, outputs, policy)
    mapping = {name: names[c] for name, c in zip(automaton.states, cls)}
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
    if name in _FIXED_BUILTINS:
        return Automaton.from_table(("0", "1"), _FIXED_BUILTINS[name])
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
