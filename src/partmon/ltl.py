"""LTL formulas over named events: syntax trees, parsing, normal forms, and an
evaluator for ultimately periodic words.

Events are mutually exclusive: every trace position carries exactly one event
name, and an atom holds iff the current event is that name.  This matches the
single-event transition labels used throughout the monitor pipeline.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NAME_RE = re.compile(_WORD_RE.pattern + r"\Z")

class FormulaSyntaxError(ValueError):
    """Formula text that does not match the grammar.

    ``position`` is the 0-based character offset of the offending input.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownAtomError(ValueError):
    """An atom used in a formula that is not part of the declared alphabet."""

    def __init__(self, name: str, position: int | None = None):
        where = f" (at position {position})" if position is not None else ""
        super().__init__(f"unknown atom '{name}'{where}")
        self.name = name
        self.position = position


class UnknownEventError(ValueError):
    """An event outside the alphabet; ``position`` is 1-based when known."""

    def __init__(self, event: str, position: int | None = None):
        where = f" at position {position}" if position is not None else ""
        super().__init__(f"unknown event {str(event)!r}{where}")
        self.event = event
        self.position = position


class FormulaTooDeepError(ValueError):
    """A formula tree nested deeper than :data:`MAX_FORMULA_DEPTH` levels."""

    def __init__(self):
        super().__init__(f"formula nested deeper than {MAX_FORMULA_DEPTH} levels")


def _check_event_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(
            f"invalid event name {name!r}: must be letters, digits or underscores,"
            " not starting with a digit"
        )
    if name in RESERVED_WORDS:
        raise ValueError(f"invalid event name '{name}': reserved word")
    return name


class Alphabet:
    """Ordered collection of distinct event names.

    Declaration order is significant: it fixes state numbering, witness
    tie-breaking, and every other place events are enumerated.
    """

    __slots__ = ("symbols", "_index")

    def __init__(self, symbols: Iterable[str]):
        syms = tuple(symbols)
        if not syms:
            raise ValueError("alphabet must contain at least one event")
        seen: set[str] = set()
        for name in syms:
            _check_event_name(name)
            if name in seen:
                raise ValueError(f"duplicate event name '{name}'")
            seen.add(name)
        self.symbols = syms
        self._index = {name: i for i, name in enumerate(syms)}

    def index(self, event: str) -> int:
        try:
            return self._index[event]
        except (KeyError, TypeError):
            raise UnknownEventError(event) from None

    def __contains__(self, event: object) -> bool:
        return event in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.symbols == other.symbols

    def __hash__(self) -> int:
        return hash(self.symbols)

    def __repr__(self) -> str:
        return f"Alphabet({list(self.symbols)!r})"


class Record:
    """An immutable slotted value: compared, hashed, shown and pickled by its
    ``_fields``, in order, as a frozen dataclass is, without importing
    :mod:`dataclasses`.  A subclass's constructor stores its fields with
    ``_set_fields``, past the ``__setattr__`` that refuses changes."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _set_fields(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _immutable(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot change field {name!r}: {self.__class__.__name__} is immutable")

    __setattr__ = __delattr__ = _immutable

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Formula(Record):
    """Base class for formula nodes: immutable, hashable, compared by structure.

    ``depth``, the number of operators nested above the deepest leaf (a
    negated atom is a leaf), and the hash are stored when a node is built.
    This class's own constructor builds the leaves, true and false.  A child
    must be of a node class exactly: any other class can only be a root.
    """

    __slots__ = ("depth", "_hash")

    def __init__(self):
        _set_depth(self, 0)
        _set_hash(self, hash(self.__class__))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Walked without recursion, each pair of distinct nodes once: the pairs
        # in `shown` are equal unless the walk stops at a difference first.
        shown: set[tuple[int, int]] = set()
        pending = [(self, other)]
        while pending:
            a, b = pending.pop()
            if a is b or (id(a), id(b)) in shown:
                continue
            if a.__class__ is not b.__class__ or a._hash != b._hash:
                return False
            shown.add((id(a), id(b)))
            for field in a._fields:
                mine, theirs = getattr(a, field), getattr(b, field)
                if isinstance(mine, Formula):
                    pending.append((mine, theirs))
                elif mine != theirs:
                    return False
        return True

    def __str__(self) -> str:
        return format_formula(self)


class TrueFormula(Formula):
    __slots__ = ()


class FalseFormula(Formula):
    __slots__ = ()


class Atom(Formula):
    __slots__ = ("name",)
    _fields = ("name",)

    def __init__(self, name: str):
        _fill_atom(self, _check_event_name(name))


class _Unary(Formula):
    __slots__ = ("arg",)
    _fields = ("arg",)

    def __init__(self, arg: Formula):
        if arg.__class__ not in _NODES:
            raise TypeError(f"not a formula: {arg!r}")
        _fill_unary(self, arg)


class _Binary(Formula):
    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula):
        if left.__class__ not in _NODES:
            raise TypeError(f"not a formula: {left!r}")
        if right.__class__ not in _NODES:
            raise TypeError(f"not a formula: {right!r}")
        _fill_binary(self, left, right)


# The fill routines store a node's fields, depth and hash through the slots,
# past the __setattr__ that refuses it, and check nothing.  The constructors
# call them once the name or children pass; the parser and the normal forms
# call them on `object.__new__(cls)`, since they hold only children they
# built themselves or took from a tree already built.
_set_depth, _set_hash, _set_name = Formula.depth.__set__, Formula._hash.__set__, Atom.name.__set__
_set_arg, _set_left, _set_right = _Unary.arg.__set__, _Binary.left.__set__, _Binary.right.__set__
_new = object.__new__


def _fill_atom(node: Atom, name: str) -> Atom:
    _set_name(node, name)
    _set_depth(node, 0)
    _set_hash(node, hash((Atom, name)))
    return node


def _fill_unary(node: _Unary, arg: Formula) -> _Unary:
    _set_arg(node, arg)
    # The one place that says a negated atom is a leaf.
    leaf = node.__class__ is Not and arg.__class__ is Atom
    _set_depth(node, 0 if leaf else arg.depth + 1)
    _set_hash(node, hash((node.__class__, arg._hash)))
    return node


def _fill_binary(node: _Binary, left: Formula, right: Formula) -> _Binary:
    _set_left(node, left)
    _set_right(node, right)
    depth = left.depth if left.depth > right.depth else right.depth
    _set_depth(node, depth + 1)
    _set_hash(node, hash((node.__class__, left._hash, right._hash)))
    return node


class Not(_Unary):
    __slots__ = ()


class Next(_Unary):
    __slots__ = ()


class Eventually(_Unary):
    __slots__ = ()


class Always(_Unary):
    __slots__ = ()


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Until(_Binary):
    __slots__ = ()


class Release(_Binary):
    __slots__ = ()


TRUE = TrueFormula()
FALSE = FalseFormula()


def children(phi: Formula) -> tuple[Formula, ...]:
    """The operands of a node; TypeError for a root outside the node classes."""
    op = phi.__class__
    if op in _BINARY:
        return (phi.left, phi.right)
    if op in _UNARY:
        return (phi.arg,)
    if op in _NODES:
        return ()
    raise TypeError(f"not a formula: {phi!r}")


def atoms_in_order(phi: Formula) -> list[str]:
    """Atom names in order of first occurrence, reading the formula left to right."""
    seen: dict[Formula, None] = {}  # in preorder
    stack = [phi]
    while stack:
        f = stack.pop()
        if f not in seen:
            seen[f] = None
            stack.extend(reversed(children(f)))
    return [f.name for f in seen if isinstance(f, Atom)]


def _check_depth(phi: Formula) -> None:
    """Refuse a root outside the node classes, subclasses of them included,
    and a tree that a pass would have to recurse too deep into.  Below the
    root no such class can sit: the unary and binary constructors refuse it
    when the node is built."""
    if phi.__class__ not in _NODES:
        raise TypeError(f"not a formula: {phi!r}")
    if phi.depth > MAX_FORMULA_DEPTH:
        raise FormulaTooDeepError()


def _check_alphabet(alphabet: Alphabet) -> None:
    """Refuse anything but an Alphabet, whose ``in`` tests whole event names
    (on a str it would test substrings)."""
    if not isinstance(alphabet, Alphabet):
        raise TypeError(f"not an alphabet: {alphabet!r}")


def validate_formula(phi: Formula, alphabet: Alphabet) -> None:
    """Raise FormulaTooDeepError if the formula is nested deeper than
    :data:`MAX_FORMULA_DEPTH`, and UnknownAtomError if it mentions an event
    outside the alphabet."""
    _check_depth(phi)
    _check_alphabet(alphabet)
    for name in atoms_in_order(phi):
        if name not in alphabet:
            raise UnknownAtomError(name)


# --- concrete syntax -------------------------------------------------------
#
# One table fixes each operator's spellings, binding level and grouping, for
# the tokenizer, the parser and the printer alike.  A binary operator has its
# spelling, its level (a higher level binds tighter) and whether it groups to
# the right.  A unary operator has the prefix it is printed with, then its
# spellings; it binds tighter than every binary operator.  U and R bind
# tightest of the binary operators and group to the right, so their left
# operand is always unary: "a U b U c" is "a U (b U c)" and "!a U b" is
# "(!a) U b".  Whitespace is insignificant.

_BINARY = {
    Implies: ("->", 0, True),
    Or: ("|", 1, False),
    And: ("&", 2, False),
    Until: ("U", 3, True),
    Release: ("R", 3, True),
}
_UNARY = {
    Not: ("!", "!"),
    Next: ("X ", "X"),
    Eventually: ("F ", "F", "<>"),
    Always: ("G ", "G", "[]"),
}
_UNARY_LEVEL = 1 + max(level for _, level, _ in _BINARY.values())
#: The classes every pass knows, and the only ones a node takes as a child.
_NODES = frozenset({TrueFormula, FalseFormula, Atom, *_UNARY, *_BINARY})

_SPELLINGS = {spelling: op for op, (spelling, _, _) in _BINARY.items()}
_SPELLINGS.update((s, op) for op, (_, *spellings) in _UNARY.items() for s in spellings)
_CONSTANTS = {"true": TRUE, "false": FALSE}

#: Words with a fixed meaning in the concrete syntax; they cannot name events.
RESERVED_WORDS = frozenset(word for word in (*_CONSTANTS, *_SPELLINGS) if word.isidentifier())

#: A ``#`` comment in formula, trace and PMF text: it runs to the next line
#: break, ``\n``, ``\r\n`` or ``\r``, the universal newlines that ``open()``
#: reads a file with.
COMMENT_RE = re.compile(r"#[^\r\n]*")

# One token: a word, a spelling or a parenthesis.  Words come first, so "Xa"
# is one name, and a spelling that is a word needs no branch of its own.
# Words are ASCII, as event names are: any other letter is an unexpected
# character.
_SYMBOLS = "|".join(re.escape(spelling) for spelling in _SPELLINGS if not spelling.isidentifier())
_TOKEN = rf"{_WORD_RE.pattern}|{_SYMBOLS}|[()]"
# Each match is the whitespace and comments before a token (group 1), then
# the token (group 2), empty at the end of the text, or a character that
# starts no token (group 3).
_TOKEN_RE = re.compile(rf"((?:\s|{COMMENT_RE.pattern})*)(?:({_TOKEN}|\Z)|(.))", re.DOTALL)
# The tokens alone, for text that holds nothing else but whitespace.
_TOKEN_TEXT_RE = re.compile(f"({_TOKEN})")


def _tokenize(text: str) -> list[tuple[str, int]]:
    """Each token and its position, ending with ``("", len(text))``."""
    tokens = []
    at = 0
    for skipped, token, stray in _TOKEN_RE.findall(text):
        at += len(skipped)
        if stray:
            # a stray "-", "<" or "[" is the start of a spelling cut short
            longer = [spelling for spelling in _SPELLINGS if spelling[0] == stray]
            message = f"expected {longer[0]!r}" if longer else f"unexpected character {stray!r}"
            raise FormulaSyntaxError(message, at)
        tokens.append((token, at))
        if not token:
            break
        at += len(token)
    return tokens


def _tokens(text: str) -> list[str]:
    """The tokens of :func:`_tokenize` without their positions.  Text whose
    tokens and whitespace are all of it is read by one ``findall``; other
    text, a comment's or a stray character's, goes through :func:`_tokenize`,
    which refuses a stray character.  A ``#`` is in no token, so a comment
    always makes the lengths below differ."""
    tokens = _TOKEN_TEXT_RE.findall(text)
    if len("".join(tokens)) != len("".join(text.split())):
        return [token for token, _ in _tokenize(text)]
    tokens.append("")
    return tokens


#: Deepest nesting :func:`parse_formula` accepts, where every operator and
#: every pair of parentheses is one level.  Deeper text is rejected, which
#: keeps every recursive pass over a parsed formula well inside Python's
#: recursion limit.
#: Every pass over a tree built in code holds it to the same number of nested
#: operators, its ``depth``; a parsed tree always passes, since the parser
#: counts at least as many levels.
MAX_FORMULA_DEPTH = 100

# Each binary spelling: its class, its level, whether it groups to the
# right, and the lowest level of the operators it closes when it is read
# after an operand.  A left-grouping operator closes those of its own level
# too, a right-grouping one only those that bind tighter.
_INFIX = {
    spelling: (op, level, right, level + right) for op, (spelling, level, right) in _BINARY.items()
}
# The unary spellings, and "(" as None: what opens before an operand.
_PREFIX = {spelling: op for spelling, op in _SPELLINGS.items() if op in _UNARY}
_PREFIX["("] = None
# Levels below every operator's: an open "(", and the floor under the text.
_PAREN, _FLOOR = -1, -2


def parse_formula(text: str, alphabet: Alphabet | None = None) -> Formula:
    """Parse formula text into a syntax tree.

    Precedence, tightest first: unary (``!``, ``X``, ``F``/``<>``, ``G``/``[]``),
    then ``U``/``R`` (right-associative), then ``&``, ``|``, and ``->``
    (right-associative).  With an alphabet, atoms outside it raise
    UnknownAtomError; without one, any identifier is accepted.  Text nested
    deeper than :data:`MAX_FORMULA_DEPTH` levels raises FormulaSyntaxError.
    """
    if not isinstance(text, str):
        raise TypeError(f"formula text is not a str: {text!r}")
    if alphabet is not None:
        _check_alphabet(alphabet)
    # One operator-precedence loop reads each token once, without recursion.
    # `pending` holds each operator and "(" still open, as its level, its
    # class (None for "(") and its token's index, above the floor; `operands`
    # the left operand of each pending binary operator, with its depth.  A
    # depth here counts a pair of parentheses as a level.  `nested` counts
    # the pending "(", unary and right-grouping operators.
    tokens = _tokens(text)
    atoms: dict[str, Atom] = {}  # one node per name
    operands: list[tuple[Formula, int]] = []
    pending: list[tuple[int, type | None, int]] = [(_FLOOR, None, -1)]
    nested = 0
    i = 0
    while True:
        # An operand: its unary operators and "(", then a leaf.
        token = tokens[i]
        node = atoms.get(token)
        if node is None:
            if token in _PREFIX:
                nested += 1
                if nested > MAX_FORMULA_DEPTH:
                    raise _too_deep(text, i)
                op = _PREFIX[token]
                pending.append((_PAREN if op is None else _UNARY_LEVEL, op, i))
                i += 1
                continue
            node = _CONSTANTS.get(token)
            if node is None:
                if not token.isidentifier() or token in RESERVED_WORDS:
                    found = repr(token) if token else "end of input"
                    raise FormulaSyntaxError(f"expected a formula, found {found}", _position(text, i))
                if alphabet is not None and token not in alphabet:
                    raise UnknownAtomError(token, _position(text, i))
                node = atoms[token] = _fill_atom(_new(Atom), token)
        depth = 0
        i += 1
        # What follows the operand closes the operators it completes,
        # innermost first; then a binary operator opens and an operand
        # follows, or a ")" closes its "(" and what follows that is read, or
        # the text ends.
        while True:
            token = tokens[i]
            infix = _INFIX.get(token)
            closes = infix[3] if infix else 0
            while pending[-1][0] >= closes:
                level, op, at = pending.pop()
                if level == _UNARY_LEVEL:
                    nested -= 1
                    node = _fill_unary(_new(op), node)
                else:
                    left, left_depth = operands.pop()
                    nested -= _BINARY[op][2]
                    depth = left_depth if left_depth > depth else depth
                    node = _fill_binary(_new(op), left, node)
                depth += 1
                if depth > MAX_FORMULA_DEPTH:
                    raise _too_deep(text, at)
            if infix:
                op, level, right, _ = infix
                nested += right
                if nested > MAX_FORMULA_DEPTH:
                    raise _too_deep(text, i)
                pending.append((level, op, i))
                operands.append((node, depth))
                i += 1
                break
            if pending[-1][0] == _FLOOR:
                if token:
                    raise FormulaSyntaxError(f"unexpected {token!r} after formula", _position(text, i))
                return node
            if token != ")":
                found = f", found {token!r}" if token else ""
                raise FormulaSyntaxError(f"expected ')'{found}", _position(text, i))
            _, _, at = pending.pop()
            nested -= 1
            depth += 1
            if depth > MAX_FORMULA_DEPTH:
                raise _too_deep(text, at)
            i += 1


def _position(text: str, index: int) -> int:
    """Where the token of that index starts, found only for an error."""
    return _tokenize(text)[index][1]


def _too_deep(text: str, index: int) -> FormulaSyntaxError:
    message = f"formula nested deeper than {MAX_FORMULA_DEPTH} levels"
    return FormulaSyntaxError(message, _position(text, index))


def _fmt(phi: Formula, min_level: int) -> str:
    op = phi.__class__
    if op in _BINARY:
        spelling, level, right_assoc = _BINARY[op]
        left = _fmt(phi.left, level + right_assoc)
        s = f"{left} {spelling} {_fmt(phi.right, level + (not right_assoc))}"
    elif op in _UNARY:
        level = _UNARY_LEVEL
        s = _UNARY[op][0] + _fmt(phi.arg, level)
    elif op is Atom:
        return phi.name
    elif op is TrueFormula:
        return "true"
    else:
        return "false"
    return f"({s})" if level < min_level else s


def format_formula(phi: Formula) -> str:
    """Render a formula in the concrete syntax.

    Re-parsing yields an equal tree for every tree :func:`parse_formula`
    returned, and for a tree built in code whose text nests at most
    :data:`MAX_FORMULA_DEPTH` levels, parentheses counted: 50 levels of
    ``X (ev2 | f)`` are a tree of depth 100 but text the parser refuses.

    Raises FormulaTooDeepError for a tree nested deeper than
    :data:`MAX_FORMULA_DEPTH`.
    """
    _check_depth(phi)
    return _fmt(phi, 0)


# The operator each one becomes when a negation is pushed through it.
_DUAL = {TrueFormula: FalseFormula, And: Or, Until: Release, Eventually: Always, Next: Next}
_DUAL.update({dual: op for op, dual in _DUAL.items()})


def _nnf(f: Formula, neg: bool, done: dict[tuple[Formula, bool], Formula]) -> Formula:
    op = f.__class__
    if op is Not:
        return _nnf(f.arg, not neg, done)
    # Equal subformulas, literals included, come out as one object.  Every
    # child is a node of the input tree or one built here, so none is checked.
    out = done.get((f, neg))
    if out is None:
        if op is Atom:
            out = _fill_unary(_new(Not), f) if neg else f
        elif op is Implies:
            # l -> r is rewritten as !l | r before pushing negations.
            left = _nnf(f.left, not neg, done)
            out = _fill_binary(_new(And if neg else Or), left, _nnf(f.right, neg, done))
        else:
            dual = _DUAL[op] if neg else op
            if op in _BINARY:
                out = _fill_binary(_new(dual), _nnf(f.left, neg, done), _nnf(f.right, neg, done))
            elif op in _UNARY:
                out = _fill_unary(_new(dual), _nnf(f.arg, neg, done))
            else:
                out = dual()
        done[f, neg] = out
    return out


def nnf(phi: Formula) -> Formula:
    """Negation normal form: implications removed, negation only on atoms.

    Raises FormulaTooDeepError for a tree nested deeper than
    :data:`MAX_FORMULA_DEPTH`.
    """
    _check_depth(phi)
    return _nnf(phi, False, {})


def negate_nnf(phi: Formula) -> Formula:
    """Negation normal form of the *negated* formula.

    Raises FormulaTooDeepError for a tree nested deeper than
    :data:`MAX_FORMULA_DEPTH`.
    """
    _check_depth(phi)
    return _nnf(phi, True, {})


class LassoWord(Record):
    """Ultimately periodic infinite word stem · loop^ω; the loop must be nonempty."""

    __slots__ = _fields = ("stem", "loop")
    stem: tuple[str, ...]
    loop: tuple[str, ...]

    def __init__(self, stem: Iterable[str], loop: Iterable[str]):
        stem, loop = tuple(stem), tuple(loop)
        if not loop:
            raise ValueError("lasso loop must be nonempty")
        self._set_fields(stem, loop)


def lasso_eval(phi: Formula, word: LassoWord) -> bool:
    """Decide whether the infinite word stem · loop^ω satisfies the formula.

    Works by fixpoint labeling over the len(stem) + len(loop) positions of the
    lasso graph, where the position after the last loop element wraps back to
    the loop start.  Each subformula gets one truth bit per position; Until and
    Eventually are least fixpoints (start all-false), Release and Always are
    greatest fixpoints (start all-true), iterated until stable.

    This evaluator is deliberately independent of the automaton pipeline so it
    can serve as a semantics oracle for it.  Being restricted to ultimately
    periodic words, it samples rather than exhausts the set of infinite traces.

    Raises FormulaTooDeepError for a tree nested deeper than
    :data:`MAX_FORMULA_DEPTH` instead of recursing that deep.
    """
    _check_depth(phi)
    events = word.stem + word.loop
    n = len(events)
    full = (1 << n) - 1
    loop_entry = 1 << len(word.stem)
    high = 1 << (n - 1)

    def shift(v: int) -> int:
        # Bit i of the result is bit succ(i) of v; succ wraps the final
        # position back to the loop entry.
        return (v >> 1) | (high if v & loop_entry else 0)

    cache: dict[Formula, int] = {}

    def values(f: Formula) -> int:
        got = cache.get(f)
        if got is not None:
            return got
        op = f.__class__
        if op is TrueFormula:
            v = full
        elif op is FalseFormula:
            v = 0
        elif op is Atom:
            v = 0
            for i, ev in enumerate(events):
                if ev == f.name:
                    v |= 1 << i
        elif op is Not:
            v = full & ~values(f.arg)
        elif op is And:
            v = values(f.left) & values(f.right)
        elif op is Or:
            v = values(f.left) | values(f.right)
        elif op is Implies:
            v = (full & ~values(f.left)) | values(f.right)
        elif op is Next:
            v = shift(values(f.arg))
        elif op is Until or op is Eventually:
            # Until, or Eventually: F a is true U a.
            lv = values(f.left) if op is Until else full
            rv = values(f.right) if op is Until else values(f.arg)
            v = 0
            while True:
                nv = rv | (lv & shift(v))
                if nv == v:
                    break
                v = nv
        else:
            # Release, or Always: G a is false R a.
            lv = values(f.left) if op is Release else 0
            rv = values(f.right) if op is Release else values(f.arg)
            v = full
            while True:
                nv = rv & (lv | shift(v))
                if nv == v:
                    break
                v = nv
        cache[f] = v
        return v

    return bool(values(phi) & 1)
