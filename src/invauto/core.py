"""Invertible letter-to-letter automata and their action on finite words.

An automaton here is a complete deterministic transducer: every state has,
for every letter, a successor state and an output letter, and every state's
output row is a permutation of the alphabet.  Starting it in a fixed state
gives a length-preserving, prefix-compatible bijection on words over the
alphabet; those bijections are what the rest of the library counts and
audits.  The machines derived from these (inverse, product, quotient) are
built in :mod:`invauto.algebra`, which only the calls that use them import.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from functools import partial
from itertools import chain, count, cycle, repeat
from operator import attrgetter, getitem, index, itemgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import (
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


def _shown(value) -> str:
    """A name, letter token or letter for a message: a str by its repr,
    anything else by its type alone, as ``<list>``, since a repr may hold a
    memory address."""
    return repr(value) if isinstance(value, str) else f"<{type(value).__name__}>"


# an annotation's name -> how a refusal names it and the classes it takes
# (None: _rational's, made only for a value that is not an int)
_NAMED = {"int": ("an int", int), "str": ("a str", str), "bool": ("a bool", bool),
          "float": ("a float", (int, float)), "Fraction": ("an int or a Fraction", None),
          "Mapping": ("a mapping", Mapping)}


def _rational() -> tuple:
    return int, __import__("fractions").Fraction  # only here: fractions loads decimal


def _kind(text: str, scope: dict) -> tuple:
    """Annotation ``text`` as ("opt", X) for ``X | None``, ("seq", X) for
    ``tuple[X, ...]``, ("pair", X, Y), or ("name", description, classes of
    _NAMED or of ``scope``, the record's module)."""
    if text.endswith(" | None"):
        return "opt", _kind(text[:-7], scope)
    text = "tuple[int, ...]" if text == "Word" else text
    if text.startswith("tuple["):
        if text.endswith(", ...]"):
            return "seq", _kind(text[6:-6], scope)
        return ("pair", *(_kind(part, scope) for part in text[6:-1].split(", ")))
    name = text.partition("[")[0]  # Mapping[K, V] is judged as a mapping only
    return ("name", *_NAMED.get(name, (f"a{'n' * (name[0] in 'AEIOU')} {name}", scope.get(name))))


def _holds(kind: tuple, value) -> bool:
    """Whether ``value`` holds ``kind``, with a tuple at every depth; the
    items of a tuple are read in one C-level pass, a row's in turn."""
    form = kind[0]
    if form == "opt":
        return value is None or _holds(kind[1], value)
    if form == "name":
        return isinstance(value, kind[2] or _rational())
    if not isinstance(value, tuple):
        return False
    if form == "pair":
        return len(value) == 2 and _holds(kind[1], value[0]) and _holds(kind[2], value[1])
    row = kind[1]
    if row[0] == "name":
        return all(map(isinstance, value, repeat(row[2] or _rational())))
    classes = [k[2] or _rational() for k in row[1:]]  # a row's, place by place
    return (all(map(isinstance, value, repeat(tuple)))
            and (row[0] == "seq" or {*map(len, value)} <= {len(classes)})
            and all(map(isinstance, chain.from_iterable(value), cycle(classes))))


def _fast(kind: tuple, n: str, namespace: dict) -> str:
    """Source of field ``n``'s fast test: inline for a class, None or a
    tuple of one class's items, else a call of :func:`_holds`."""
    if kind[0] == "seq" and kind[1][0] == "name":
        namespace[f"_class_{n}"] = kind[1][2] or int
        return f"isinstance({n}, tuple) and all(map(isinstance, {n}, _repeat(_class_{n})))"
    inner, none = (kind[1], f"{n} is None or ") if kind[0] == "opt" else (kind, "")
    if inner[0] == "name":  # a Fraction's takes an int: a Fraction goes to the judge
        namespace[f"_class_{n}"] = inner[2] or int
        return f"{none}isinstance({n}, _class_{n})"
    namespace[f"_kind_{n}"] = kind
    return f"_holds(_kind_{n}, {n})"


def _first_init(cls, params: str, fields: str, defaults: dict, error, self, *values) -> None:
    """A record's first ``__init__``: compile the checking one (one fast
    test per field, all in one line; when one refuses, :func:`_judged`
    builds the record), put it in its place, and run it."""
    scope = sys.modules[cls.__module__].__dict__
    kinds = tuple((n, _kind(text, scope)) for n, text in cls.__annotations__.items())
    namespace = {"_defaults": defaults, "_set": object.__setattr__, "_holds": _holds,
                 "_repeat": repeat, "_judged": partial(_judged, kinds, error)}
    tests = " and ".join(f"({_fast(kind, n, namespace)})" for n, kind in kinds)
    body = f"    if not ({tests}):\n        return _judged(self{fields})\n"
    body += "".join(f"    _set(self, {n!r}, {n})\n" for n, _ in kinds)
    if hasattr(cls, "__post_init__"):
        body += "    self.__post_init__()\n"
    exec(f"def __init__(self{params}):\n{body}", namespace)  # a real signature, as namedtuple has
    namespace["__init__"].__qualname__ = cls.__init__.__qualname__
    cls.__init__ = namespace["__init__"]
    cls.__init__(self, *values)


def _judged(kinds: tuple, error, self, *values) -> None:
    """A record's ``__init__`` past a refused fast test: each field judged
    and set in turn, then ``__post_init__`` if there is one."""
    for (name, kind), value in zip(kinds, values):
        object.__setattr__(self, name, _judge(kind, value, name, error))
    if hasattr(self, "__post_init__"):
        self.__post_init__()


def _judge(kind: tuple, value, place: str, error):
    """``value`` if it holds ``kind``, made a tuple at every depth ``kind``
    declares (from any iterable but a str) in C-level passes; else raise
    ``error`` for its first fault, as ``PLACE must be KIND, not TYPE`` with
    an item's place (``transitions[1][0]``), never a repr."""
    form = kind[0]
    if form == "opt" and value is not None:
        return _judge(kind[1], value, place, error)
    if form == "name" and kind[2] is int:  # the int rule
        _check_int(value, place, error=error)
    elif form == "name" and not _holds(kind, value):
        raise error(f"{place} must be {kind[1]}, not {type(value).__name__}")
    elif form in ("seq", "pair"):
        what = "a tuple" if form == "seq" else "a pair"
        if isinstance(value, str) or not hasattr(value, "__iter__"):
            raise error(f"{place} must be {what}, not {type(value).__name__}")
        value = tuple(value)
        if form == "pair" and len(value) != 2:
            raise error(f"{place} must be {what}, not {len(value)} items")
        rows = form == "seq" and kind[1][0] != "name"  # rows made tuples too, if no str
        if rows and not any(map(isinstance, value, repeat(str))) and all(
                map(hasattr, value, repeat("__iter__"))):
            value = tuple(map(tuple, value))
        if not _holds(kind, value):  # only to name the first fault
            for i, item in enumerate(value):
                _judge(kind[i + 1] if form == "pair" else kind[1], item, f"{place}[{i}]", error)
    return value


def _record(cls=None, error=ArgumentError):
    """Make ``cls`` a frozen value record, as ``@dataclass(frozen=True)``
    would, without importing :mod:`dataclasses` (and :mod:`inspect`).

    The fields are the class's annotations in order (also ``_fields`` and
    ``__match_args__``); a class attribute of the same name is a default.
    ``__init__`` (compiled on the first build, :func:`_first_init`) judges
    every field by one rule, then calls ``__post_init__`` if there is one.
    The rule: a field holds what its annotation names.  ``int``, ``str``,
    ``bool``, ``float`` and a class take an instance (a bool is an int, an
    int a float; ``Fraction`` takes an int or a Fraction); ``X | None``
    takes None too; ``tuple[X, ...]`` (``Word`` is ``tuple[int, ...]``) and
    ``tuple[X, Y]`` take any iterable but a str, kept a tuple at every
    depth; ``Mapping[K, V]`` takes any mapping.  A refusal raises ``error``
    as ``FIELD must be KIND, not TYPE`` (:func:`_judge`).  ``__eq__`` and ``__hash__`` read the field
    tuple, and the repr prints every digit (:func:`_exact_repr`).  Setting
    or deleting an attribute raises AttributeError, so the class's own code
    uses ``object.__setattr__``.  A method the class defines itself is kept.
    """
    if cls is None:
        return lambda cls: _record(cls, error)
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}" for n in names)
    fields = "".join(f", {n}" for n in names)
    # the checks are compiled on the first build, so a process pays only for the records it builds
    namespace = {"_defaults": defaults,
                 "_first": partial(_first_init, cls, params, fields, defaults, error)}
    exec(f"def __init__(self{params}):\n    _first(self{fields})\n", namespace)  # a real signature
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)  # a one-tuple still

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    labels = [f"{', ' if i else ''}{n}=" for i, n in enumerate(names)]

    def __repr__(self):
        # one join of all pieces, as the dataclass repr does, so a long
        # table's text is not copied once per field and again for the whole
        shown = [type(self).__qualname__, "("]
        for label, value in zip(labels, values(self)):
            shown += (label, _exact_repr(value))
        shown.append(")")
        return "".join(shown)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = {
        "__init__": namespace["__init__"], "__eq__": __eq__, "__hash__": __hash__,
        "__repr__": __repr__, "__setattr__": __setattr__, "__delattr__": __delattr__,
    }
    for name, method in methods.items():
        if name not in cls.__dict__:
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    cls._fields = cls.__match_args__ = names
    return cls


@_record(error=ValidationError)
class Alphabet:
    """A finite set of at least two distinct printable letter tokens.

    Letters are handled internally as indices 0..size-1; the tokens exist so
    files and CLI output stay readable.
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) < 2:
            raise AlphabetTooSmallError(
                f"alphabet needs at least 2 letters, got {len(self.symbols)}"
            )
        for sym in self.symbols:
            if not sym or any(ch.isspace() for ch in sym):
                raise ValidationError(f"bad alphabet symbol {sym!r}")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValidationError("alphabet symbols must be pairwise distinct")
        object.__setattr__(self, "_lookup", {s: i for i, s in enumerate(self.symbols)})
        # the letters that fit in a byte, which check_word deletes in one pass
        object.__setattr__(self, "_bytes", bytes(range(min(len(self.symbols), 256))))
        # a word is written letter after letter when every letter is one character
        object.__setattr__(self, "_separator", "" if max(map(len, self.symbols)) == 1 else " ")

    @classmethod
    def of_size(cls, k: int) -> "Alphabet":
        _check_int(k, "alphabet size")
        return cls(tuple(str(i) for i in range(k)))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, token: str) -> int:
        try:
            return self._lookup[token]
        except (KeyError, TypeError):  # a TypeError: the token does not hash
            raise LetterOutOfRangeError(f"unknown letter {_shown(token)}") from None

    def word(self, text: str) -> Word:
        """Decode a word from text: one letter per character ("011") when every
        letter is one character and the text has no whitespace, else "0 1 1"."""
        tokens = text.split()
        if self._separator == "" and tokens == [text]:
            tokens = text
        return tuple(map(self.index, tokens))

    def text(self, word: Sequence[int]) -> str:
        return self._separator.join([self.symbols[x] for x in self.check_word(word)])

    def check_word(self, word: Sequence[int]) -> Word:
        """``word`` as a tuple, once every letter is an integer index below
        the alphabet size.  Accepted when deleting the alphabet's letters
        from its bytes leaves none; a letter that is not an integer, or not
        below 256, or a byte left over sends it through the loop that names
        the first bad letter (an out-of-range one by its index).  A letter
        with ``__index__`` (a bool) passes and is kept as it is."""
        w = tuple(word)
        try:
            if not bytes(w).translate(None, self._bytes):
                return w
        except (TypeError, ValueError):
            pass
        k = len(self.symbols)
        for x in w:
            try:
                i = index(x)
            except TypeError:
                raise LetterOutOfRangeError(
                    f"letter {_shown(x)} is not an integer index for alphabet of size {k}"
                ) from None
            if not 0 <= i < k:
                raise LetterOutOfRangeError(
                    f"letter index {i} out of range for alphabet of size {k}"
                )
        return w


@_record(error=ValidationError)
class MaterializationPolicy:
    """Record that an automaton is a finite stand-in for a parametric family.

    ``depth`` (an int >= 1) is how much of the family was materialized.
    ``horizons`` maps state names (strs) to the largest processing length
    (an int >= 0) for which the table is exact when started there; states
    without an entry are exact at every length.
    """

    family: str
    depth: int
    horizons: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.depth < 1:
            raise ValidationError("materialization depth must be >= 1")
        if self.horizons and min(map(itemgetter(1), self.horizons)) < 0:
            state = next(s for s, h in self.horizons if h < 0)
            raise ValidationError(f"horizon of state {state!r} must be >= 0")
        lookup = dict(self.horizons)
        if len(lookup) < len(self.horizons):
            seen: set = set()
            repeated = next(s for s, _ in self.horizons if s in seen or seen.add(s))
            raise ValidationError(f"state {repeated!r} is given two horizons")
        object.__setattr__(self, "_lookup", lookup)

    def horizon(self, state: str) -> int | None:
        return self._lookup.get(state)


def _kept(obj, name: str, make):
    """``make(obj)``, made on the first call for ``obj`` and kept as its
    attribute ``name`` (through ``object.__setattr__``: a record refuses
    assignment); copies and pickles carry it.  Not through ``obj.__dict__``:
    on CPython 3.11, reading that slows every later attribute load on obj."""
    if not hasattr(obj, name):
        object.__setattr__(obj, name, make(obj))
    return getattr(obj, name)


def _unchecked(cls, fields: tuple, **kept):
    """A ``cls`` record with these fields and kept attributes, made without
    ``__init__`` and so without the record rule and ``__post_init__``: the values
    are set as given, so they must already be what it would make of them.
    For an :class:`Automaton` derived from checked machines, that is tuples
    of tuples (str names, rows of length k, int targets in range, output
    rows that permute the alphabet, a policy naming only these states).
    The names must be distinct too; the name index, unless given as the
    kept ``_index``, is left to the first :meth:`Automaton.state_index`,
    which checks them then."""
    self = cls.__new__(cls)
    for name, value in chain(zip(cls._fields, fields), kept.items()):
        object.__setattr__(self, name, value)
    return self


def _name_index(automaton: "Automaton") -> dict[str, int]:
    """State name -> index, which doubles as the check that names are
    distinct."""
    states = automaton.states
    index = dict(zip(states, range(len(states))))
    if len(index) != len(states):
        raise ValidationError("state names must be distinct")
    return index


def _field_hash(a: "Automaton") -> int:
    """The hash every record has, of the field tuple."""
    return hash((a.alphabet, a.states, a.transitions, a.outputs, a.policy))


def _resolved(cls, alphabet: Alphabet, table: Mapping, policy) -> "Automaton | None":
    """The machine of a name-keyed table (:meth:`Automaton.from_table`),
    resolved and proved in whole-table C-level passes, or None when a pass
    refuses.  Each row's letters are compared with the alphabet's, its pairs
    taken in alphabet order by one ``itemgetter``, and their next names and
    output letters looked up through ``map``, so each lookup proves its
    entry; then each distinct output row is checked to be a permutation, and
    the policy to name only these states.  It keeps the name index it used."""
    states = tuple(table)
    index = dict(zip(states, range(len(states))))
    lookup = alphabet._lookup
    k = len(lookup)
    try:
        rows = list(map(getitem, repeat(table), states))
        if not (
            states
            and len(index) == len(states)
            and all(map(isinstance, states, repeat(str)))
            and all(issubclass(kind, Mapping) for kind in set(map(type, rows)))
            and set(map(frozenset, rows)) == {frozenset(lookup)}
        ):
            return None
        pairs = list(chain.from_iterable(map(itemgetter(*alphabet.symbols), rows)))
        if not (
            all(map(isinstance, pairs, repeat((tuple, list))))
            and set(map(len, pairs)) == {2}
        ):
            return None
        # k references to one iterator: zip cuts it into rows of k
        nexts = map(index.__getitem__, map(itemgetter(0), pairs))
        transitions = tuple(zip(*[nexts] * k))
        outs = map(lookup.__getitem__, map(itemgetter(1), pairs))
        outputs = tuple(zip(*[outs] * k))
    except (KeyError, TypeError):  # an unknown or unhashable name or letter
        return None
    identity = list(range(k))
    if not all(sorted(row) == identity for row in set(outputs)):
        return None
    if policy is not None and not policy._lookup.keys() <= index.keys():
        return None
    return _unchecked(cls, (alphabet, states, transitions, outputs, policy), _index=index)


@_record(error=ValidationError)
class Automaton:
    """A complete, invertible letter transducer.

    ``transitions[q][x]`` is the successor state index and ``outputs[q][x]``
    the emitted letter index when state ``q`` reads letter ``x``.  State
    names are distinct strs.  A ``policy`` may give horizons (ints >= 0)
    only to states of this table.

    The constructor judges the fields by the record rule (:func:`_record`),
    then the rows, and builds the name index :meth:`state_index` reads as
    its check that names are distinct.  :meth:`from_table` (and so the
    readers in :mod:`invauto.textio`) proves every entry in its own
    resolving pass and keeps its index; the machines :mod:`invauto.algebra`
    derives are built by :func:`_unchecked`, with no check and no index.
    """

    alphabet: Alphabet
    states: tuple[str, ...]
    transitions: tuple[tuple[int, ...], ...]
    outputs: tuple[tuple[int, ...], ...]
    policy: MaterializationPolicy | None = None

    def __post_init__(self):
        if not self.states:
            raise ValidationError("automaton needs at least one state")
        n, k = len(self.states), self.alphabet.size
        index = _kept(self, "_index", _name_index)
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
        policy = self.policy
        if policy is not None and not policy._lookup.keys() <= index.keys():
            unknown = next(s for s, _ in policy.horizons if s not in index)
            raise UnknownStateError(f"policy names unknown state {unknown!r}")

    def __hash__(self) -> int:
        """The hash of the field tuple, as every record has, computed once
        per object (walking a long table is slow) and kept on it."""
        return _kept(self, "_hash", _field_hash)

    def __getstate__(self) -> dict:
        # str hashes change with PYTHONHASHSEED, so the kept hash stays here
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def _reject_first_bad_state(self) -> None:
        """Raise for the first state whose rows are malformed, state by state."""
        n, k = len(self.states), self.alphabet.size
        identity = tuple(range(k))
        for name, trow, orow in zip(self.states, self.transitions, self.outputs):
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

        ``table`` maps each state name to a row, a mapping from each input
        letter token to a ``(next state name, output letter token)`` pair: a
        tuple or list of two items.  One resolving pass proves every entry
        (:func:`_resolved`); the state-by-state loop below runs only when it
        refuses, to name the first fault, so a refused table raises the
        error the loop and the checking constructor find first.
        """
        alphabet = symbols if isinstance(symbols, Alphabet) else Alphabet(tuple(symbols))
        automaton = _resolved(cls, alphabet, table, policy)
        if automaton is not None:
            return automaton
        states = tuple(table)
        index = {s: i for i, s in enumerate(states)}
        transitions, outputs = [], []
        for name in states:
            row = table[name]
            if not isinstance(row, Mapping):
                raise ValidationError(f"state {_shown(name)} must map letters to pairs")
            for tok in row:
                if tok not in alphabet._lookup:
                    raise LetterOutOfRangeError(
                        f"state {_shown(name)} has a row for unknown letter {_shown(tok)}"
                    )
            trow, orow = [], []
            for tok in alphabet.symbols:
                if tok not in row:
                    raise MissingTransitionError(
                        f"state {_shown(name)} has no transition for letter {tok!r}"
                    )
                pair = row[tok]
                if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
                    raise ValidationError(f"state {_shown(name)}, letter {tok!r}: "
                                          "expected a (next state, output letter) pair")
                nxt, out = pair
                try:
                    trow.append(index[nxt])
                except (KeyError, TypeError):  # a TypeError: nxt does not hash
                    raise UnknownStateError(
                        f"state {_shown(name)} points to unknown state {_shown(nxt)} "
                        f"on letter {tok!r}"
                    ) from None
                orow.append(alphabet.index(out))
            transitions.append(tuple(trow))
            outputs.append(tuple(orow))
        return cls(alphabet, states, tuple(transitions), tuple(outputs), policy)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def state_index(self, name: str) -> int:
        """Index of the state named ``name``.  The name index is kept on the
        machine (:func:`_kept`): the checking constructor makes it, and a
        derived machine (:func:`_unchecked`) makes it on its first lookup."""
        try:
            return _kept(self, "_index", _name_index)[name]
        except (KeyError, TypeError):  # a TypeError: the name does not hash
            raise UnknownStateError(f"no state named {_shown(name)}") from None

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


@_record
class Transformation:
    """An automaton started in a fixed state, acting on words."""

    automaton: Automaton
    state: str

    def __post_init__(self):
        object.__setattr__(self, "_start", self.automaton.state_index(self.state))
        object.__setattr__(self, "_horizon", self.automaton.horizon(self.state))

    @classmethod
    def _known(cls, automaton: Automaton, state: str, start: int) -> "Transformation":
        """``Transformation(automaton, state)`` with no name index looked up,
        for a caller that knows ``start`` is the index of ``state``: a pruned
        product starts at its state 0, and q^-1 has q's index."""
        return _unchecked(cls, (automaton, state), _start=start, _horizon=automaton.horizon(state))

    @property
    def start(self) -> int:
        return self._start

    @property
    def alphabet(self) -> Alphabet:
        return self.automaton.alphabet

    def _check_length(self, level: int) -> None:
        """The level rule: words of length ``level`` need 0 <= level <= horizon,
        and level below sys.maxsize (:func:`_check_level`)."""
        _check_level(level)
        if self._horizon is not None and level > self._horizon:
            raise NotMaterializableError(
                f"level {level} exceeds the materialized horizon {self._horizon} "
                f"of state {self.state!r}"
            )

    def apply(self, word: Sequence[int]) -> Word:
        """Image of ``word``; same length, each letter emitted as it is read."""
        w = self.alphabet.check_word(word)
        self._check_length(len(w))
        return self._run(w)[0]

    def _run(self, w: Word) -> tuple[Word, int]:
        """Image of a word already checked against the alphabet and the
        horizon, and the state the run ends in."""
        trans, out = self.automaton.transitions, self.automaton.outputs
        q = self._start
        result = []
        append = result.append
        for x in w:
            append(out[q][x])
            q = trans[q][x]
        return tuple(result), q

    def apply_stream(self, letters: Iterable[int]) -> Iterator[int]:
        """Streaming form of :meth:`apply` for unbounded inputs."""
        trans, out = self.automaton.transitions, self.automaton.outputs
        k = self.alphabet.size
        q = self._start
        for i, x in enumerate(letters):
            if type(x) is not int or not 0 <= x < k:
                x = index(self.alphabet.check_word((x,))[0])  # raises, naming a bad letter
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
        from .algebra import inverse_name, invert

        return Transformation._known(invert(self.automaton), inverse_name(self.state), self._start)

    def then(self, other: "Transformation") -> "Transformation":
        """The composite that applies ``self`` first, then ``other``."""
        from .algebra import _composite

        return _composite(self, other)


def _check_int(value: object, what: str, least: int | None = None, error=ArgumentError) -> None:
    """The rule for an integer argument: raise ``error`` for a non-int, named by
    its type, never a repr (a bool counts as its int), or a value below ``least``."""
    if not isinstance(value, int):
        raise error(f"{what} must be an int, not {type(value).__name__}")
    if least is not None and value < least:
        raise error(f"{what} must be >= {least}")


def _check_level(level: int, what: str = "level") -> None:
    """Refuse a level that is not an int, or outside 0 <= level < sys.maxsize,
    as a usage error: the counts of levels 0..level are level + 1 items,
    which a sequence (and ``itertools.islice``) can only hold or skip up to
    sys.maxsize of."""
    _check_int(level, what, 0)
    if level >= sys.maxsize:
        raise ArgumentError(f"{what} must be below sys.maxsize, {sys.maxsize}")


def _components(automaton: Automaton) -> tuple[list[list[int]], list[int]]:
    """Strongly connected components of the whole transition graph, and
    state index -> component number (:func:`_tarjan`), made on first use
    (never at construction) and kept on the machine (:func:`_kept`) for
    trivial states, cores, unconditional cycles and growth classes."""
    return _kept(automaton, "_components", _tarjan)


def _tarjan(automaton: Automaton) -> tuple[list[list[int]], list[int]]:
    """Tarjan's algorithm, iterative (so path length is not bounded by the
    recursion limit), every state a root in index order; each component
    comes after every component it has an edge into."""
    trans = automaton.transitions
    order = [-1] * len(trans)  # visit number, -1 until visited
    low = [0] * len(trans)
    comp_of = [-1] * len(trans)  # a visited state with no component yet is on the stack
    visits = count()
    stack, work, components = [], [], []
    for root in range(len(trans)):
        if order[root] < 0:
            order[root] = low[root] = next(visits)
            stack.append(root)
            work.append((root, iter(trans[root])))
        while work:
            q, targets = work[-1]
            for t in targets:
                if order[t] < 0:
                    order[t] = low[t] = next(visits)
                    stack.append(t)
                    work.append((t, iter(trans[t])))
                    break
                if comp_of[t] < 0 and order[t] < low[q]:
                    low[q] = order[t]
            else:
                work.pop()
                if work and low[q] < low[work[-1][0]]:
                    low[work[-1][0]] = low[q]
                if low[q] == order[q]:  # q and all above it on the stack
                    component = []
                    while not component or component[-1] != q:
                        comp_of[stack[-1]] = len(components)
                        component.append(stack.pop())
                    components.append(component)
    return components, comp_of


def trivial_states(automaton: Automaton) -> frozenset[int]:
    """Indices of states that act as the identity on every word.

    Computed as the greatest set of states with identity output rows that is
    closed under transitions; this is the semantic notion, so syntactically
    different copies of the identity are all detected.
    """
    identity = tuple(range(automaton.alphabet.size))
    return greatest_closed_subset(
        automaton, {q for q, row in enumerate(automaton.outputs) if row == identity}
    )


def greatest_closed_subset(automaton: Automaton, candidates: set[int]) -> frozenset[int]:
    """Largest subset of ``candidates`` that every transition stays inside.

    One pass over the kept components (:func:`_components`) that hold a
    candidate, with no predecessor lists: one is kept iff its states are all
    candidates and each edge leaving it enters a kept component, met earlier.
    """
    components, comp_of = _components(automaton)
    trans = automaton.transitions
    kept = [False] * len(components)
    for ci in sorted({comp_of[q] for q in candidates}):
        kept[ci] = all(
            q in candidates and all(kept[comp_of[t]] or comp_of[t] == ci for t in trans[q])
            for q in components[ci]
        )
    return frozenset(q for q in candidates if kept[comp_of[q]])


def is_trivial_state(automaton: Automaton, state: str) -> bool:
    """True iff the automaton started at ``state`` is the identity on words."""
    return automaton.state_index(state) in trivial_states(automaton)


def identity_automaton(alphabet: Alphabet | int) -> Automaton:
    """Single state ``e`` copying its input; the unit for composition."""
    if not isinstance(alphabet, Alphabet):
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

    Only ``remark_chain`` takes a ``depth`` (an int >= 1); a depth given to
    a fixed family raises ArgumentError.  Every family takes ``length`` (an
    int >= 0): a fixed table serves every length.
    """
    if length is not None:
        _check_int(length, "length", 0)
    if name in _FIXED_BUILTINS:
        if depth is not None:
            raise ArgumentError(f"family {name!r} takes no depth")
        return Automaton.from_table(("0", "1"), _FIXED_BUILTINS[name])
    if name == "remark_chain":
        if depth is None:
            raise ValidationError("remark_chain requires a depth")
        _check_int(depth, "remark_chain depth", 1, ValidationError)
        if length is not None and length > depth:
            raise DepthTooSmallError(
                f"depth {depth} cannot serve processing length {length}; "
                f"materialize at least depth {length}"
            )
        # q_i is index i - 1 and e is index depth; q_i steps down to q_{i-1}
        # (q_1 to e) and up to q_{i+1}, clamped at q_depth
        states = (*(f"q_{i}" for i in range(1, depth + 1)), "e")
        downs = (depth, *range(depth - 1))
        ups = (*range(1, depth), depth - 1)
        transitions = [(depth, down, up, up) for down, up in zip(downs, ups)]
        transitions.append((depth,) * 4)
        outputs = ((1, 0, 2, 3),) * depth + ((0, 1, 2, 3),)
        # q_i is exact for depth - i + 1 letters
        horizons = tuple(zip(states, range(depth, 0, -1)))
        policy = MaterializationPolicy("remark_chain", depth, horizons)
        alphabet = Alphabet(("0", "1", "2", "3"))
        return Automaton(alphabet, states, tuple(transitions), outputs, policy)
    raise UnknownFamilyError(
        f"unknown builtin family {name!r}; choose from {', '.join(BUILTIN_FAMILIES)}"
    )
