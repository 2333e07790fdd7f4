"""Formula layer: nodes, grammar, normal forms, and the lasso-word evaluator."""

import copy
import hashlib
import pickle
import random
import re
import sys
import time
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partmon.ltl import (
    MAX_FORMULA_DEPTH,
    Alphabet,
    Always,
    And,
    Atom,
    Eventually,
    FALSE,
    Formula,
    FormulaSyntaxError,
    FormulaTooDeepError,
    Implies,
    LassoWord,
    Next,
    Not,
    Or,
    RESERVED_WORDS,
    Release,
    TRUE,
    UnknownAtomError,
    UnknownEventError,
    Until,
    _tokenize,
    atoms_in_order,
    children,
    format_formula,
    lasso_eval,
    negate_nnf,
    nnf,
    parse_formula,
    validate_formula,
)

from partmon import ltl
from partmon.buchi import ltl_to_nba
from partmon.formats import emit_monitor
from partmon.fsm import monitor_verdict, synthesize_monitor

from helpers import ALPHA3, NAMES3, all_lassos, is_nnf, random_formula, unfold_eval


# --- alphabets and words ----------------------------------------------------

def test_alphabet_preserves_declaration_order():
    alpha = Alphabet(["b", "a", "c"])
    assert list(alpha) == ["b", "a", "c"]
    assert alpha.index("a") == 1


def test_alphabet_index_refuses_an_unhashable_event():
    with pytest.raises(UnknownEventError, match=r"^unknown event \"\['b'\]\"$") as err:
        Alphabet(["a", "b", "c"]).index(["b"])
    assert (err.value.event, err.value.position) == (["b"], None)


def test_alphabet_rejects_bad_input():
    with pytest.raises(ValueError):
        Alphabet([])
    with pytest.raises(ValueError):
        Alphabet(["ev1", "ev1"])
    with pytest.raises(ValueError):
        Alphabet(["1bad"])
    with pytest.raises(ValueError):
        Alphabet(["true"])  # reserved word


def test_lasso_requires_nonempty_loop():
    with pytest.raises(ValueError):
        LassoWord(("ev1",), ())
    word = LassoWord([], ["ev1"])
    assert word.stem == () and word.loop == ("ev1",)


def test_lasso_word_is_an_immutable_value():
    word = LassoWord(["ev1"], ("ev2", "ev3"))
    same = LassoWord(stem=("ev1",), loop=["ev2", "ev3"])
    assert word == same and hash(word) == hash(same)
    assert word != LassoWord(("ev1",), ("ev3", "ev2"))
    assert word != (("ev1",), ("ev2", "ev3"))
    assert len({word, same, LassoWord((), ("ev1",))}) == 2
    assert repr(word) == "LassoWord(stem=('ev1',), loop=('ev2', 'ev3'))"
    for field in ("stem", "loop", "other"):
        with pytest.raises(AttributeError):
            setattr(word, field, ())
    with pytest.raises(AttributeError):
        del word.stem
    assert word.stem == ("ev1",) and word.loop == ("ev2", "ev3")
    for copied in (pickle.loads(pickle.dumps(word)), copy.deepcopy(word)):
        assert copied == word


# --- parsing ----------------------------------------------------------------

def test_parse_eventually():
    assert parse_formula("<> ev1", ALPHA3) == Eventually(Atom("ev1"))
    assert parse_formula("F ev1", ALPHA3) == Eventually(Atom("ev1"))


def test_parse_nested_disjunction():
    alpha = Alphabet(["ev1", "ev2", "ev3", "ev4"])
    phi = parse_formula("(ev1 & <>ev2) | (ev3 & []<>ev4)", alpha)
    assert phi == Or(
        And(Atom("ev1"), Eventually(Atom("ev2"))),
        And(Atom("ev3"), Always(Eventually(Atom("ev4")))),
    )


def test_parse_incomplete_until_is_a_syntax_error():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("ev1 U", ALPHA3)


def test_parse_precedence():
    a, b, c = Atom("ev1"), Atom("ev2"), Atom("ev3")
    # U binds tighter than &, which binds tighter than |, then ->
    assert parse_formula("ev1 U ev2 & ev3", ALPHA3) == And(Until(a, b), c)
    assert parse_formula("ev1 | ev2 & ev3", ALPHA3) == Or(a, And(b, c))
    assert parse_formula("ev1 -> ev2 -> ev3", ALPHA3) == Implies(a, Implies(b, c))
    # unary operators bind tighter than U
    assert parse_formula("!ev1 U ev2", ALPHA3) == Until(Not(a), b)
    assert parse_formula("F ev1 U ev2", ALPHA3) == Until(Eventually(a), b)
    # U and R are right-associative
    assert parse_formula("ev1 U ev2 U ev3", ALPHA3) == Until(a, Until(b, c))
    assert parse_formula("ev1 R ev2 R ev3", ALPHA3) == Release(a, Release(b, c))
    assert parse_formula("X X ev1", ALPHA3) == Next(Next(a))


def test_parse_comments_and_whitespace():
    text = "ev1  # leading event\n  U ev2   # until the second one"
    assert parse_formula(text, ALPHA3) == Until(Atom("ev1"), Atom("ev2"))
    # a comment ends at LF, CR LF or CR, and at no other line separator
    assert parse_formula("ev1 # c\r& ev2", ALPHA3) == And(Atom("ev1"), Atom("ev2"))
    for separator in ("\f", "\x85", "\u2028"):
        assert parse_formula(f"ev1 # c{separator}& ev2", ALPHA3) == Atom("ev1")


def test_parse_unknown_atom():
    with pytest.raises(UnknownAtomError):
        parse_formula("<> radX", ALPHA3)
    # without an alphabet any identifier is allowed
    assert parse_formula("<> radX") == Eventually(Atom("radX"))


def test_parse_bad_tokens():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("ev1 + ev2", ALPHA3)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(ev1", ALPHA3)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("", ALPHA3)


@pytest.mark.parametrize("text, position", [("é", 0), ("lé", 1), ("ab²", 2), ("ev1 & ﬁ", 6)])
def test_parse_non_ascii_letters_are_syntax_errors(text, position):
    """Event names are ASCII: a non-ASCII letter or digit is an unexpected
    character at its own position, not part of a name."""
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula(text)
    assert exc.value.position == position


@pytest.mark.parametrize("alphabet", ["xaby", ["ab", "y"], {"ab": 0, "y": 1}])
def test_parse_and_validate_refuse_an_alphabet_that_is_not_an_alphabet(alphabet):
    """``in`` on a str tests substrings, so "xaby" once read the atom ab as
    one of its events; synthesis refuses it with the same message."""
    message = f"^not an alphabet: {re.escape(repr(alphabet))}$"
    with pytest.raises(TypeError, match=message):
        parse_formula("ab & y", alphabet)
    with pytest.raises(TypeError, match=message):
        validate_formula(parse_formula("ab"), alphabet)
    with pytest.raises(TypeError, match=message):
        synthesize_monitor(parse_formula("ab"), alphabet)
    assert parse_formula("ab & y", None) == And(Atom("ab"), Atom("y"))


@pytest.mark.parametrize("text", [b"ev1", bytearray(b"ev1"), None, 3, ["ev1"]])
def test_parse_refuses_text_that_is_not_a_str(text):
    for alphabet in (None, ALPHA3):
        with pytest.raises(TypeError, match=f"^formula text is not a str: {re.escape(repr(text))}$"):
            parse_formula(text, alphabet)


# Formula-shaped pieces, so that generated text also reaches the parser
# beyond the tokenizer.
_FORMULA_PIECES = st.lists(
    st.sampled_from(
        ["ev1", "zork", "é", "²", "_", "(", ")", "!", "&", "|", "->", "-", "<>", "<",
         "[]", "[", "X", "F", "G", "U", "R", "true", "false", " ", "#", "\n"]
    ),
    max_size=30,
).map("".join)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(max_size=30), _FORMULA_PIECES), st.sampled_from([None, ALPHA3]))
def test_parse_formula_raises_only_typed_errors(text, alphabet):
    try:
        parse_formula(text, alphabet)
    except (FormulaSyntaxError, UnknownAtomError):
        pass


# Text shapes that nest one level per repetition.
_DEEP_SHAPES = {
    "negations": lambda n: "!" * n + "ev1",
    "parentheses": lambda n: "(" * n + "ev1" + ")" * n,
    "conjunction_chain": lambda n: " & ".join(["ev1"] * (n + 1)),
    "implication_chain": lambda n: " -> ".join(["ev1"] * (n + 1)),
}


# Pieces of formula text: operators, keywords, the lone "-", "<" and "[",
# names inside and outside ALPHA3, a non-ASCII letter, a digit, whitespace
# and comments.  The pieces that end the text at once are drawn less often,
# so that most texts reach the parser.
_SOUP_PIECES = (
    "!", "&", "|", "->", "<>", "[]", "(", ")", "X", "F", "G", "U", "R", "true", "false",
    "ev1", "ev3", "zork", " ", " ", " ", "\f", "\r", "\n", "# c\n",
) * 8 + ("-", "<", "[", "é", "7", "#")


def _syntax_texts():
    rng = random.Random(14)
    for _ in range(20_000):
        yield "".join(rng.choices(_SOUP_PIECES, k=rng.randint(0, 14)))
    for _ in range(1_000):
        yield format_formula(random_formula(rng, 4))
    for shape in sorted(_DEEP_SHAPES):
        for depth in range(MAX_FORMULA_DEPTH - 2, MAX_FORMULA_DEPTH + 3):
            yield _DEEP_SHAPES[shape](depth)


def _syntax_outcome(text, alphabet):
    try:
        return format_formula(parse_formula(text, alphabet))
    except (FormulaSyntaxError, UnknownAtomError) as exc:
        return type(exc).__name__, str(exc), exc.position


# sha256 over the outcome of parsing each of _syntax_texts(), once without an
# alphabet and once over ALPHA3: the printed tree, or the error's class,
# message and position.  A rewrite of the tokenizer, parser or printer must
# accept and print the same texts and reject the others with the same errors.
SYNTAX_SHA256 = "1e23ea006d019c9c706c7345d97be6ef2b3e1683b90b9ab528b1e292664b71a7"


def test_parse_and_print_outcomes_are_unchanged():
    digest = hashlib.sha256()
    for text in _syntax_texts():
        for alphabet in (None, ALPHA3):
            digest.update(repr(_syntax_outcome(text, alphabet)).encode() + b"\n")
    assert digest.hexdigest() == SYNTAX_SHA256


# Every character str.isspace() accepts: what str.split() drops, so what
# the one-findall scan takes for whitespace.
_WHITESPACE = tuple(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())


def _scan_texts():
    rng = random.Random(35)
    comments = ("# c\n", "# c\r", "# c\r\n", "#\r\n", "#&ev1\n")
    pieces = _SOUP_PIECES + _WHITESPACE * 2 + comments * 4
    for _ in range(20_000):
        yield "".join(rng.choices(pieces, k=rng.randint(0, 14)))


def test_the_fast_scan_and_the_positional_scan_agree(monkeypatch):
    """Text without a comment is read by one findall when its tokens and the
    characters str.split() drops make up all of it; the positional scan
    skips what re's \\s matches.  The two sets are equal, so on every text
    both scans read the same tokens or refuse it with the same error, and
    of the texts the positional scan accepts, it rereads only those with a
    comment."""
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert tuple(re.findall(r"\s", everything)) == _WHITESPACE
    scanned = []
    monkeypatch.setattr(ltl, "_tokenize", lambda text: scanned.append(text) or _tokenize(text))
    for text in _scan_texts():
        try:
            positional = [token for token, _ in _tokenize(text)]
        except FormulaSyntaxError as exc:
            with pytest.raises(FormulaSyntaxError) as refused:
                ltl._tokens(text)
            assert (str(refused.value), refused.value.position) == (str(exc), exc.position)
            continue
        scanned.clear()
        assert ltl._tokens(text) == positional, repr(text)
        assert ("#" in text) == bool(scanned), repr(text)


@pytest.mark.parametrize("shape", sorted(_DEEP_SHAPES))
def test_parse_rejects_formulas_nested_past_the_limit(shape):
    text = _DEEP_SHAPES[shape](MAX_FORMULA_DEPTH + 1)
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula(text, ALPHA3)
    assert 0 < exc.value.position < len(text)
    # far past the limit it is the same typed error, not a RecursionError
    with pytest.raises(FormulaSyntaxError):
        parse_formula(_DEEP_SHAPES[shape](3000), ALPHA3)


@pytest.mark.parametrize("shape", sorted(_DEEP_SHAPES))
def test_formulas_at_the_depth_limit_go_through_every_pass(shape):
    phi = parse_formula(_DEEP_SHAPES[shape](MAX_FORMULA_DEPTH), ALPHA3)
    assert parse_formula(format_formula(phi), ALPHA3) == phi
    assert is_nnf(nnf(phi)) and is_nnf(negate_nnf(phi))
    word = LassoWord(("ev1",), ("ev2",))
    assert lasso_eval(phi, word) == unfold_eval(phi, word)
    monitor = synthesize_monitor(phi, ALPHA3)
    assert monitor_verdict(monitor, word.stem + word.loop).is_conclusive


# Trees built in code, one operator per level: unary chains, a left-leaning
# conjunction chain and a right-leaning until chain.  A negated atom is a
# leaf, so the negation chain starts from true.
_BUILT_SHAPES = {
    "negations": lambda n: reduce(lambda f, _: Not(f), range(n), TRUE),
    "nexts": lambda n: reduce(lambda f, _: Next(f), range(n), Atom("ev1")),
    "conjunction_chain": lambda n: reduce(And, [Atom("ev1")] * (n + 1)),
    "until_chain": lambda n: reduce(lambda f, _: Until(Atom("ev2"), f), range(n), Atom("ev1")),
}


@pytest.mark.parametrize("shape", sorted(_BUILT_SHAPES))
def test_built_formulas_past_the_limit_raise_a_typed_error(shape):
    for depth in (MAX_FORMULA_DEPTH + 1, 1500):
        phi = _BUILT_SHAPES[shape](depth)
        with pytest.raises(FormulaTooDeepError, match=str(MAX_FORMULA_DEPTH)):
            synthesize_monitor(phi, ALPHA3)
        with pytest.raises(FormulaTooDeepError):
            format_formula(phi)
        with pytest.raises(FormulaTooDeepError):
            validate_formula(phi, ALPHA3)
        with pytest.raises(FormulaTooDeepError):
            nnf(phi)
        with pytest.raises(FormulaTooDeepError):
            negate_nnf(phi)
        with pytest.raises(FormulaTooDeepError):
            lasso_eval(phi, LassoWord(("ev1",), ("ev2",)))


@pytest.mark.parametrize("shape", sorted(_BUILT_SHAPES))
def test_built_formulas_at_the_limit_are_accepted(shape):
    phi = _BUILT_SHAPES[shape](MAX_FORMULA_DEPTH)
    validate_formula(phi, ALPHA3)
    assert parse_formula(format_formula(phi), ALPHA3) == phi
    assert is_nnf(nnf(phi)) and is_nnf(negate_nnf(phi))
    word = LassoWord(("ev1",), ("ev2",))
    assert lasso_eval(phi, word) == unfold_eval(phi, word)


def test_atoms_in_order_is_first_occurrence():
    phi = parse_formula("ev2 U (ev1 & ev2)", ALPHA3)
    assert atoms_in_order(phi) == ["ev2", "ev1"]


# --- formula nodes ------------------------------------------------------------

def test_nodes_refuse_children_that_are_not_formulas():
    with pytest.raises(TypeError, match="not a formula: 3"):
        And(Atom("ev1"), 3)
    with pytest.raises(TypeError):
        Not("ev1")
    with pytest.raises(TypeError):
        Until(Atom("ev1"), None)


def test_node_contract():
    text = "[](ev1 -> <>ev2) & !(ev3 U X ev1)"
    phi, twin = parse_formula(text, ALPHA3), parse_formula(text, ALPHA3)
    assert phi is not twin and phi == twin and hash(phi) == hash(twin)
    assert phi != parse_formula("[](ev1 -> <>ev2) & !(ev3 U X ev2)", ALPHA3)
    assert repr(And(Atom("ev1"), Not(TRUE))) == (
        "And(left=Atom(name='ev1'), right=Not(arg=TrueFormula()))"
    )
    # depth counts operators above the deepest leaf; a negated atom is a leaf
    assert (Atom("ev1").depth, Not(Atom("ev1")).depth, Not(Not(Atom("ev1"))).depth) == (0, 0, 1)
    assert phi.depth == 4
    with pytest.raises(AttributeError):
        phi.left = TRUE
    with pytest.raises(AttributeError):
        del phi.right
    with pytest.raises(AttributeError):
        Atom("ev1").name = "ev2"
    for copied in (pickle.loads(pickle.dumps(phi)), copy.deepcopy(phi)):
        assert copied == phi and hash(copied) == hash(phi)
        assert format_formula(copied) == format_formula(phi)
    shared = And(phi, phi)
    copied = copy.deepcopy(shared)
    assert copied.left is copied.right
    # the hash is stored, so a chain far past the depth limit hashes too
    # (kept out of the assertions, whose failure message would print it)
    chain = reduce(lambda f, _: Next(f), range(1500), Atom("ev1"))
    twin = reduce(lambda f, _: Next(f), range(1500), Atom("ev1"))
    chain_hash, twin_hash, depth = hash(chain), hash(twin), chain.depth
    assert chain_hash == twin_hash and depth == 1500


def _preorder(phi):
    stack = [phi]
    while stack:
        f = stack.pop()
        yield f
        stack.extend(reversed(children(f)))


def test_one_parse_shares_its_atoms():
    """Each distinct atom of one parse is one object, checked against the
    alphabet once; the tree equals the one the public constructors build,
    node for node, and gives the same tableau.  Those constructors still
    check what they are given."""
    phi = parse_formula("ev1 & X ev1", ALPHA3)
    assert phi.left is phi.right.arg
    built = And(Atom("ev1"), Next(Atom("ev1")))
    assert phi == built
    rng = random.Random(36)
    for tree in [built, *(random_formula(rng, 5) for _ in range(300))]:
        parsed = parse_formula(format_formula(tree), ALPHA3)
        atoms = {}
        for node in _preorder(parsed):
            if isinstance(node, Atom):
                assert atoms.setdefault(node.name, node) is node
        shape = [(f.__class__, f.depth, hash(f)) for f in _preorder(parsed)]
        assert shape == [(f.__class__, f.depth, hash(f)) for f in _preorder(tree)]
        for negated in (False, True):
            got = ltl_to_nba(Not(parsed) if negated else parsed, ALPHA3)
            want = ltl_to_nba(Not(tree) if negated else tree, ALPHA3)
            assert (got.initial, got.edges, got.num_marks, got.obligations) == (
                want.initial, want.edges, want.num_marks, want.obligations
            )
    for name in ("1ev", "true", "U", "é", "", 3):
        with pytest.raises(ValueError, match="^invalid event name"):
            Atom(name)
    with pytest.raises(TypeError, match="^not a formula: 'ev1'"):
        And(Atom("ev1"), "ev1")


def _doubled(op, phi, levels):
    for _ in range(levels):
        phi = op(phi, phi)
    return phi


@pytest.mark.parametrize("op, text", [(And, "ev1"), (Or, "[](ev1 -> <>ev2)")])
def test_shared_subtrees_are_walked_once(op, text):
    """30 levels of f = op(f, f): 31 distinct nodes, 2^30 paths.  Every pass
    visits a node once, so this takes milliseconds.  The DAG never appears
    in an assertion, whose failure message would print all of it."""
    base = parse_formula(text, ALPHA3)
    dag = _doubled(op, base, 30)
    started = time.perf_counter()
    pmf = emit_monitor(synthesize_monitor(dag, ALPHA3))
    elapsed = time.perf_counter() - started
    assert pmf == emit_monitor(synthesize_monitor(base, ALPHA3))
    assert elapsed < 1.0
    validate_formula(dag, ALPHA3)
    normal, negated = nnf(dag), negate_nnf(dag)
    same_depth = normal.depth == negated.depth == dag.depth
    assert same_depth
    names = atoms_in_order(dag)
    assert names == atoms_in_order(base)
    for word in all_lassos(NAMES3, 1, 2):
        value = lasso_eval(dag, word)
        assert value == lasso_eval(base, word)


def test_equality_compares_each_pair_of_nodes_once():
    """Trees built apart compare without recursion, each pair of distinct
    nodes once: a 1,500-deep chain, also as a dict key, and 30 levels of
    f = And(f, f) (2^30 paths).  The trees stay out of the assertions, whose
    failure message would print them."""
    chain = reduce(And, [Atom("ev1")] * 1500)
    twin = reduce(And, [Atom("ev1")] * 1500)
    equal, found = chain == twin, {chain: "found"}.get(twin)
    assert equal and found == "found"
    dag, same = _doubled(And, Atom("ev1"), 30), _doubled(And, Atom("ev1"), 30)
    # one leaf differs: the rightmost path of `odd` ends in ev2
    odd = Atom("ev2")
    for level in range(30):
        odd = And(_doubled(And, Atom("ev1"), level), odd)
    equal, unequal = dag == same, dag != odd
    assert equal and unequal


# --- printing round trip ----------------------------------------------------

_atoms = st.sampled_from([Atom(n) for n in NAMES3])
_leaves = st.one_of(_atoms, st.just(TRUE), st.just(FALSE))
_formulas = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.builds(Not, sub),
        st.builds(Next, sub),
        st.builds(Eventually, sub),
        st.builds(Always, sub),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Until, sub, sub),
        st.builds(Release, sub, sub),
    ),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(_formulas)
def test_format_parse_round_trip(phi):
    assert parse_formula(format_formula(phi), ALPHA3) == phi


_EV1, _EV2 = Atom("ev1"), Atom("ev2")

# Every node class: its spellings, the printed one first, and its tree.
_SPELLED = [
    (("!ev1",), Not(_EV1)),
    (("X ev1",), Next(_EV1)),
    (("F ev1", "<>ev1", "<> ev1", "F(ev1)"), Eventually(_EV1)),
    (("G ev1", "[]ev1", "[] ev1", "G(ev1)"), Always(_EV1)),
    (("ev1 & ev2",), And(_EV1, _EV2)),
    (("ev1 | ev2",), Or(_EV1, _EV2)),
    (("ev1 -> ev2",), Implies(_EV1, _EV2)),
    (("ev1 U ev2",), Until(_EV1, _EV2)),
    (("ev1 R ev2",), Release(_EV1, _EV2)),
    (("true",), TRUE),
    (("false",), FALSE),
    (("ev1",), _EV1),
]


@pytest.mark.parametrize("texts, phi", _SPELLED, ids=[type(phi).__name__ for _, phi in _SPELLED])
def test_every_spelling_parses_to_its_class_and_prints_canonically(texts, phi):
    for text in texts:
        assert parse_formula(text, ALPHA3) == phi
    assert format_formula(phi) == texts[0]


def test_reserved_words_are_the_spelled_words():
    assert RESERVED_WORDS == {"true", "false", "X", "F", "G", "U", "R"}


def test_format_refuses_a_node_class_outside_the_table():
    """At the root, or below it, where the node that would hold it is built."""
    class Odd(Formula):
        __slots__ = ()

    for build in (Odd, lambda: And(_EV1, Not(Odd()))):
        with pytest.raises(TypeError, match="^not a formula: "):
            format_formula(build())


class _Foreign(Formula):
    """A formula class that is not a node class."""

    __slots__ = ()


class _ForeignAnd(And):
    """A subclass of a node class: no pass knows it either."""

    __slots__ = ()


_PASSES = {
    "nnf": nnf,
    "negate_nnf": negate_nnf,
    "validate_formula": lambda phi: validate_formula(phi, ALPHA3),
    "format_formula": format_formula,
    "ltl_to_nba": lambda phi: ltl_to_nba(phi, ALPHA3),
    "synthesize_monitor": lambda phi: synthesize_monitor(phi, ALPHA3),
    "lasso_eval": lambda phi: lasso_eval(phi, LassoWord([], ["ev1"])),
}


@pytest.mark.parametrize(
    "build",
    [
        _Foreign,
        lambda: _ForeignAnd(_EV1, Atom("ev2")),
        lambda: And(Atom("ev2"), _Foreign()),
        lambda: Until(_EV1, Not(_ForeignAnd(_EV1, Atom("ev2")))),
        lambda: Always(Implies(_Foreign(), Next(_EV1))),
    ],
    ids=["Formula", "And", "Formula-below", "And-below", "Formula-in-implies"],
)
@pytest.mark.parametrize("run", list(_PASSES.values()), ids=list(_PASSES))
def test_every_pass_refuses_a_class_that_is_not_a_node_class(run, build):
    """At the root the pass refuses it.  Below the root, under a negation or
    inside an implication, the node that would hold it refuses it when built,
    so no pass ever sees it there."""
    with pytest.raises(TypeError, match=r"^not a formula: _Foreign"):
        run(build())


@pytest.mark.parametrize(
    "child",
    [_Foreign(), _ForeignAnd(_EV1, _EV2), Formula(), 3, "a"],
    ids=["Formula-subclass", "And-subclass", "Formula", "int", "str"],
)
def test_every_node_refuses_a_child_outside_the_node_classes(child):
    for op in (Not, Next, Eventually, Always):
        with pytest.raises(TypeError, match="^not a formula: "):
            op(child)
    for op in (And, Or, Implies, Until, Release):
        with pytest.raises(TypeError, match="^not a formula: "):
            op(child, _EV2)
        with pytest.raises(TypeError, match="^not a formula: "):
            op(_EV1, child)


# --- negation normal form ---------------------------------------------------

def test_negate_nnf_dualities():
    ev1, ev2, ev4 = Atom("ev1"), Atom("ev2"), Atom("ev4")
    assert negate_nnf(Eventually(ev1)) == Always(Not(ev1))
    assert negate_nnf(Always(ev4)) == Eventually(Not(ev4))
    assert negate_nnf(Until(ev1, ev2)) == Release(Not(ev1), Not(ev2))
    assert negate_nnf(Release(ev1, ev2)) == Until(Not(ev1), Not(ev2))
    assert negate_nnf(Next(ev1)) == Next(Not(ev1))
    assert negate_nnf(Implies(ev1, ev2)) == And(ev1, Not(ev2))
    assert nnf(Implies(ev1, ev2)) == Or(Not(ev1), ev2)


def test_equal_literals_in_one_normal_form_are_one_object():
    """Equal atoms and equal negated atoms, built apart or met under either
    polarity, come out of one normal form as one object each."""
    first, second, ev2 = Atom("ev1"), Atom("ev1"), Atom("ev2")
    got = nnf(Or(Not(first), Until(Not(second), Implies(second, And(first, ev2)))))
    assert got.left is got.right.left is got.right.right.left
    got = negate_nnf(And(first, Eventually(And(second, Not(Not(Next(second)))))))
    assert got.left is got.right.arg.left
    assert got.right.arg.right.arg is got.left
    got = nnf(And(Release(first, second), Not(Or(Not(second), ev2))))
    assert got.left.left is got.left.right is got.right.left


@settings(max_examples=200, deadline=None)
@given(_formulas)
def test_nnf_shape(phi):
    assert is_nnf(nnf(phi))
    assert is_nnf(negate_nnf(phi))


_SMALL_LASSOS = all_lassos(NAMES3, 2, 2)


@settings(max_examples=120, deadline=None)
@given(_formulas, st.sampled_from(_SMALL_LASSOS))
def test_nnf_preserves_semantics(phi, word):
    value = lasso_eval(phi, word)
    assert lasso_eval(nnf(phi), word) == value
    assert lasso_eval(negate_nnf(phi), word) == (not value)


# --- lasso evaluation -------------------------------------------------------

def test_lasso_eval_eventually():
    phi = Eventually(Atom("ev1"))
    assert lasso_eval(phi, LassoWord((), ("ev2",))) is False
    assert lasso_eval(phi, LassoWord(("ev2", "ev1"), ("ev3",))) is True


def test_lasso_eval_conjunction_with_recurrence():
    # ev3 now, and ev4 recurring forever: the loop supplies ev4 infinitely often.
    phi = And(Atom("ev3"), Always(Eventually(Atom("ev4"))))
    word = LassoWord(("ev3",), ("ev2", "ev4"))
    assert lasso_eval(phi, word) is True
    assert unfold_eval(phi, word) is True


def test_lasso_eval_finitely_often_fails_recurrence():
    phi = Always(Eventually(Atom("ev1")))
    assert lasso_eval(phi, LassoWord(("ev1",), ("ev2",))) is False


def test_lasso_eval_next_shifts_the_stem():
    rng = random.Random(7)
    for _ in range(200):
        phi = random_formula(rng, 3)
        stem = tuple(rng.choice(NAMES3) for _ in range(rng.randint(1, 3)))
        loop = tuple(rng.choice(NAMES3) for _ in range(rng.randint(1, 2)))
        assert lasso_eval(Next(phi), LassoWord(stem, loop)) == lasso_eval(
            phi, LassoWord(stem[1:], loop)
        )


def test_lasso_eval_derived_operator_identities():
    rng = random.Random(11)
    lassos = all_lassos(NAMES3, 1, 2)
    for _ in range(60):
        phi = random_formula(rng, 3)
        psi = random_formula(rng, 2)
        for word in lassos:
            assert lasso_eval(Eventually(phi), word) == lasso_eval(Until(TRUE, phi), word)
            assert lasso_eval(Always(phi), word) == lasso_eval(Release(FALSE, phi), word)
            assert lasso_eval(Implies(psi, phi), word) == lasso_eval(
                Or(Not(psi), phi), word
            )


def test_lasso_eval_agrees_with_unfolding():
    """Two independent evaluators must agree everywhere."""
    rng = random.Random(23)
    lassos = all_lassos(NAMES3, 2, 2)
    for _ in range(60):
        phi = random_formula(rng, 4)
        for word in lassos:
            assert lasso_eval(phi, word) == unfold_eval(phi, word), (phi, word)
