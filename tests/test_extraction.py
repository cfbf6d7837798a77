from dataclasses import FrozenInstanceError, replace
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mea.extraction
from conftest import detect_negation, reference_detect_perception, reference_parse_conllu, sentence
from mea import InputFileError
from mea.belief import BeliefLexicon, BeliefSource, BeliefTuple, PosClass
from mea.extraction import (
    ACTION_PATTERNS,
    Combo,
    Event,
    Token,
    Tense,
    classify_tense,
    detect_perception,
    extract_events,
    extract_state_event,
    match_action_patterns,
    parse_conllu,
)
from mea.nature import NatureNodeId, opposite_node

N = NatureNodeId


def small_lexicon():
    return BeliefLexicon(
        [
            BeliefTuple("meatball", N.FOOD, BeliefSource.WORDNET_HYPONYM, PosClass.NOUN),
            BeliefTuple("tea", N.FOOD, BeliefSource.WORDNET_HYPONYM, PosClass.NOUN),
            BeliefTuple("perfect", N.EXPERIENCE_FEELING_POS, BeliefSource.SENTIWORDNET, PosClass.ADJECTIVE),
            BeliefTuple("happy", N.EMO_POS, BeliefSource.EMOTION_BASE, PosClass.ADJECTIVE),
            BeliefTuple("love", N.EMO_POS, BeliefSource.EMOTION_BASE, PosClass.VERB),
        ]
    )


# --- parsing -----------------------------------------------------------------

def test_parse_minimal_sentence(tmp_path):
    path = tmp_path / "r1.conllu"
    path.write_text(
        "# review_id = r1\n"
        "1\tI\ti\tPRON\tPRP\t_\t2\tnsubj\t_\t_\n"
        "2\tfreeze\tfreeze\tVERB\tVBP\t_\t0\troot\t_\t_\n",
        encoding="utf-8",
    )
    sentences = parse_conllu(path)
    assert len(sentences) == 1
    assert len(sentences[0].tokens) == 2
    assert sentences[0].root.lemma == "freeze"


def test_parse_rejects_dangling_head(tmp_path):
    path = tmp_path / "r1.conllu"
    path.write_text(
        "# review_id = r1\n"
        "1\tI\ti\tPRON\tPRP\t_\t9\tnsubj\t_\t_\n"
        "2\tfreeze\tfreeze\tVERB\tVBP\t_\t0\troot\t_\t_\n",
        encoding="utf-8",
    )
    with pytest.raises(InputFileError) as exc:
        parse_conllu(path)
    assert "dangling head" in str(exc.value)


def test_parse_rejects_multiple_roots(tmp_path):
    path = tmp_path / "r1.conllu"
    path.write_text(
        "# review_id = r1\n"
        "1\tI\ti\tPRON\tPRP\t_\t0\troot\t_\t_\n"
        "2\tfreeze\tfreeze\tVERB\tVBP\t_\t0\troot\t_\t_\n",
        encoding="utf-8",
    )
    with pytest.raises(InputFileError) as exc:
        parse_conllu(path)
    assert "root" in str(exc.value)


def test_parse_rejects_malformed_row_with_line_number(tmp_path):
    path = tmp_path / "r1.conllu"
    path.write_text("# review_id = r1\n1\tI\ti\tPRP\n", encoding="utf-8")
    with pytest.raises(InputFileError) as exc:
        parse_conllu(path)
    assert exc.value.line_no == 2


def test_parse_requires_review_id(tmp_path):
    path = tmp_path / "r1.conllu"
    path.write_text("1\tX\tx\tNOUN\tNN\t_\t0\troot\t_\t_\n", encoding="utf-8")
    with pytest.raises(InputFileError) as exc:
        parse_conllu(path)
    assert "review_id" in str(exc.value)


def test_parse_requires_a_review_id_in_every_sentence(tmp_path):
    path = tmp_path / "r1.conllu"
    path.write_text(
        "# review_id = r1\n"
        "1\tI\ti\tPRON\tPRP\t_\t2\tnsubj\t_\t_\n"
        "2\tfreeze\tfreeze\tVERB\tVBP\t_\t0\troot\t_\t_\n"
        "\n"
        "1\tX\tx\tNOUN\tNN\t_\t0\troot\t_\t_\n",
        encoding="utf-8",
    )
    with pytest.raises(InputFileError) as exc:
        parse_conllu(path)
    assert str(exc.value) == f"{path}:5: sentence has no review_id comment"


def test_parse_counts_sentences_in_file_order(data_dir):
    sentences = parse_conllu(data_dir / "patterns.conllu")
    assert len(sentences) == 14


_CONLLU_PIECES = st.sampled_from(
    [
        b"# review_id = r\n",
        b"# review_id = q\n",
        b"1\tI\ti\tPRON\tPRP\t_\t2\tnsubj\t_\t_\n",
        b"2\tgo\tgo\tVERB\tVBP\t_\t0\troot\t_\t_\n",
        b"3\tit\tit\tPRON\tPRP\t_\t2\tdobj\t_\t_\n",
        b"2\tx\tx\tX\tNN\t_\t9\tdep\t_\t_\n",  # a dangling head
        b"1\tx\tx\tX\tNN\t_\t-1\tdep\t_\t_\n",  # a negative head
        b"2\tx\tx\tX\tNN\t_\t2\tdep\t_\t_\n",  # heads itself
        b"1\tx\tx\tX\t\t_\t0\troot\t_\t_\n",  # an empty POS tag
        b"0\tx\tx\tX\tNN\t_\t1\tdep\t_\t_\n",  # index 0
        b"a\tx\tx\tX\tNN\t_\t1\tdep\t_\t_\n",  # an ID that is no integer
        b"1\tx\tx\tX\tNN\n",  # too few fields
        b"\n", b"\r", b"\t", b"#", b"_", b"0", b"1", b"2", b"-1", b"\xff", b"\xc3", b"\xe2\x80\xa8",
    ]
)


@st.composite
def _conllu_sentences(draw):
    """One sentence whose indices, tags and heads each break a check now and then."""
    n = draw(st.integers(1, 5))
    rows = []
    for pos in range(1, n + 1):
        index = draw(st.sampled_from([pos, pos, pos, pos + 1, 0]))
        tag = draw(st.sampled_from(["NN", "NN", ""]))
        head = draw(st.integers(-1, n + 1))
        rows.append(f"{index}\tw\tw\tX\t{tag}\t_\t{head}\tdep\t_\t_\n")
    return ("# review_id = r\n" + "".join(rows) + "\n").encode()


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(st.one_of(_CONLLU_PIECES, st.binary(max_size=8)), max_size=40),
        st.lists(_conllu_sentences(), min_size=1, max_size=3),
    ).map(b"".join)
)
@example(  # a dangling head (line 2) comes before an index gap (line 3): the dangling head is reported
    b"# review_id = r\n1\tI\ti\tPRON\tPRP\t_\t9\tnsubj\t_\t_\n3\tgo\tgo\tVERB\tVBP\t_\t0\troot\t_\t_\n"
)
@example(  # a token's own fault (line 3) outranks an earlier sentence fault (line 2)
    b"# review_id = r\n1\tI\ti\tPRON\tPRP\t_\t9\tnsubj\t_\t_\n2\tx\tx\tX\t\t_\t0\troot\t_\t_\n"
)
@example(  # a short row later in the sentence (line 3) outranks a token's own fault (line 2)
    b"# review_id = r\n1\tI\ti\tPRON\t\t_\t0\troot\t_\t_\n2\tx\tx\n"
)
def test_parse_raises_only_conllu_error_on_arbitrary_bytes(tmp_path_factory, data):
    """Whatever the bytes, parse_conllu agrees with the reference reader: the same InputFileError text, or equal tokens."""
    path = tmp_path_factory.getbasetemp() / "r.conllu"
    path.write_bytes(data)
    try:
        expected = reference_parse_conllu(path)
    except InputFileError as exc:
        expected = exc
    try:
        actual = [[tuple(token) for token in s.tokens] for s in parse_conllu(path)]
    except InputFileError as exc:
        assert isinstance(expected, InputFileError), f"reference read {expected}, parse_conllu raised {exc}"
        assert (str(exc), exc.line_no) == (str(expected), expected.line_no)
    else:
        assert actual == expected


_I_FREEZE = "1\tI\ti\tPRON\tPRP\t_\t2\tnsubj\t_\t_\n"


@pytest.mark.parametrize(
    "token_row, message, line_no",
    [
        ("2\tfreeze\tfreeze\tVERB\tVBP\t_\t2\troot\t_\t_\n", "token 2 heads itself", 3),
        ("2\tfreeze\tfreeze\tVERB\t\t_\t0\troot\t_\t_\n", "token 2 has an empty POS tag", 3),
        ("3\tfreeze\tfreeze\tVERB\tVBP\t_\t0\troot\t_\t_\n", "token indices not contiguous at position 2", 2),
        ("0\tfreeze\tfreeze\tVERB\tVBP\t_\t0\troot\t_\t_\n", "token index must be >= 1, got 0", 3),
    ],
    ids=["self-head", "empty-xpos", "index-gap", "index-0"],
)
def test_parse_rejects_malformed_token_at_its_line(tmp_path, token_row, message, line_no):
    """Token checks name the token's line; sentence checks (contiguity) name the sentence's first line."""
    path = tmp_path / "r1.conllu"
    path.write_text("# review_id = r1\n" + _I_FREEZE + token_row, encoding="utf-8")
    with pytest.raises(InputFileError) as exc:
        parse_conllu(path)
    assert str(exc.value) == f"{path}:{line_no}: {message}"
    assert exc.value.line_no == line_no


def test_parse_rejects_a_review_id_other_than_the_file_name(tmp_path):
    path = tmp_path / "2.conllu"
    path.write_text(
        "# review_id = 2\n" + _I_FREEZE + "2\tfreeze\tfreeze\tVERB\tVBP\t_\t0\troot\t_\t_\n\n"
        "# review_id = 1\n" + _I_FREEZE + "2\tgo\tgo\tVERB\tVBP\t_\t0\troot\t_\t_\n",
        encoding="utf-8",
    )
    with pytest.raises(InputFileError) as exc:
        parse_conllu(path)
    assert str(exc.value) == f"{path}:5: review_id '1' does not match the file name"


# --- token, sentence and event types -------------------------------------------

_I_ATE_IT = [("I", "i", "PRP", 2, "nsubj"), ("ate", "eat", "VBD", 0, "root"), ("n't", "not", "RB", 2, "neg"), ("it", "it", "PRP", 2, "dobj")]


def test_a_token_is_an_immutable_hashable_value():
    fields = {"index": 1, "surface": "I", "lemma": "i", "pos_tag": "PRP", "head": 2, "deprel": "nsubj"}
    token = Token(**fields)
    assert token == Token(1, "I", "i", "PRP", 2, "nsubj")
    assert tuple(token) == tuple(fields.values())
    assert token != Token(**fields | {"head": 0})
    assert hash(token) == hash(Token(**fields))
    assert len({token, Token(**fields)}) == 1
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(token, name, 7)
        with pytest.raises(AttributeError):
            delattr(token, name)
    assert not hasattr(token, "__dict__")  # slotted: one object per token


def test_a_sentence_derives_its_root_dependents_and_negators_once():
    s = sentence(_I_ATE_IT)
    assert s == sentence(_I_ATE_IT) and hash(s) == hash(sentence(_I_ATE_IT))
    assert s.root is s.tokens[1]
    assert s.children == {2: [s.tokens[0], s.tokens[2], s.tokens[3]], 0: [s.tokens[1]]}
    assert s.negators == (3,)
    with pytest.raises(AttributeError):
        s.tokens = ()


def test_an_event_is_an_immutable_hashable_value_with_its_text_and_tense_built_once():
    s = sentence(_I_ATE_IT)
    fields = {"sentence": s, "token_indices": (1, 2, 4), "pattern_id": "P2", "verb_index": 2, "subject_lemma": "i", "negated": False}
    event = Event(**fields)
    assert event == Event(sentence(_I_ATE_IT), (1, 2, 4), "P2", 2, "i", False)
    assert event != Event(**fields | {"negated": True})
    assert hash(event) == hash(Event(**fields))
    assert event.text == "I ate it" and event.text is event.text
    assert event.tense is Tense.PAST
    assert Event(**fields | {"pattern_id": "STATE", "subject_lemma": None}).tense is None  # STATE has no tense
    for name in (*fields, "text", "tense"):
        with pytest.raises(AttributeError):
            setattr(event, name, None)
    with pytest.raises(ValueError, match="verb index not part of the event span"):
        Event(**fields | {"verb_index": 3})
    with pytest.raises(ValueError, match="action events require a first-person subject"):
        Event(**fields | {"subject_lemma": "she"})


def test_sentences_events_and_patterns_are_frozen_and_a_sentence_shows_only_its_tokens():
    s = sentence(_I_ATE_IT)
    event = Event(s, (1, 2, 4), "P2", 2, "i", False)
    pattern = ACTION_PATTERNS[1]  # P2: one arc
    for value, name in ((s, "tokens"), (event, "negated"), (pattern, "pattern_id"), (pattern.arcs[0], "deprel")):
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, None)
    assert repr(s) == f"ParsedSentence(tokens={s.tokens!r})"  # children and negators are derived from tokens


# --- action patterns ---------------------------------------------------------

def test_p1_simple_intransitive():
    s = sentence(
        [("I", "i", "PRP", 2, "nsubj"), ("freeze", "freeze", "VBP", 0, "root")]
    )
    events = match_action_patterns(s)
    assert len(events) == 1
    assert events[0].pattern_id == "P1"
    assert events[0].verb_index == 2
    assert events[0].text == "I freeze"


def test_longest_pattern_wins_over_p1():
    s = sentence(
        [
            ("I", "i", "PRP", 2, "nsubj"),
            ("slice", "slice", "VBP", 0, "root"),
            ("the", "the", "DT", 4, "det"),
            ("loaf", "loaf", "NN", 2, "dobj"),
        ]
    )
    events = match_action_patterns(s)
    assert [e.pattern_id for e in events] == ["P2"]
    assert events[0].token_indices == (1, 2, 4)


def test_a_plural_proper_noun_object_binds_p2():
    s = sentence([("I", "i", "PRP", 2, "nsubj"), ("bought", "buy", "VBD", 0, "root"), ("Oreos", "oreo", "NNPS", 2, "dobj")])
    assert [(e.pattern_id, e.token_indices) for e in match_action_patterns(s)] == [("P2", (1, 2, 3))]


def test_a_proper_noun_binds_the_p9_prepositional_object():
    s = sentence([("I", "i", "PRP", 2, "nsubj"), ("ate", "eat", "VBD", 0, "root"), ("at", "at", "IN", 4, "case"), ("Wendy", "wendy", "NNP", 2, "nmod")])
    assert [(e.pattern_id, e.token_indices) for e in match_action_patterns(s)] == [("P9", (1, 2, 3, 4))]


def test_non_first_person_subject_is_ignored():
    s = sentence(
        [
            ("She", "she", "PRP", 2, "nsubj"),
            ("eats", "eat", "VBZ", 0, "root"),
            ("the", "the", "DT", 4, "det"),
            ("bread", "bread", "NN", 2, "dobj"),
        ]
    )
    assert match_action_patterns(s) == []


def test_we_subject_matches():
    s = sentence(
        [("We", "we", "PRP", 2, "nsubj"), ("search", "search", "VBP", 0, "root")]
    )
    assert [e.pattern_id for e in match_action_patterns(s)] == ["P1"]


def test_p10_binds_all_five_slots():
    s = sentence(
        [
            ("I", "i", "PRP", 2, "nsubj"),
            ("push", "push", "VBP", 0, "root"),
            ("the", "the", "DT", 4, "det"),
            ("pizza", "pizza", "NN", 2, "dobj"),
            ("into", "into", "IN", 7, "case"),
            ("the", "the", "DT", 7, "det"),
            ("oven", "oven", "NN", 2, "nmod"),
        ]
    )
    events = match_action_patterns(s)
    assert [e.pattern_id for e in events] == ["P10"]
    assert events[0].token_indices == (1, 2, 4, 5, 7)


def test_two_anchors_give_two_events():
    s = sentence(
        [
            ("I", "i", "PRP", 2, "nsubj"),
            ("think", "think", "VBP", 0, "root"),
            ("I", "i", "PRP", 4, "nsubj"),
            ("want", "want", "VBP", 2, "ccomp"),
            ("to", "to", "TO", 6, "mark"),
            ("cook", "cook", "VB", 4, "xcomp"),
        ]
    )
    events = match_action_patterns(s)
    assert [(e.pattern_id, e.verb_index) for e in events] == [("P1", 2), ("P8", 4)]


# --- brute-force oracle ------------------------------------------------------

ORACLE_PATTERNS = [
    # (pattern number, slots as (name, kind), arcs as (head, dep, rel))
    (1, [("subj", "FP"), ("v1", "V")], [("v1", "subj", "nsubj")]),
    (2, [("subj", "FP"), ("v1", "V"), ("n2", "N")], [("v1", "subj", "nsubj"), ("v1", "n2", "dobj")]),
    (3, [("subj", "FP"), ("v1", "V"), ("a", "A")], [("v1", "subj", "nsubj"), ("v1", "a", "xcomp")]),
    (
        4,
        [("subj", "FP"), ("v1", "V"), ("n2", "N"), ("n3", "N")],
        [("v1", "subj", "nsubj"), ("v1", "n2", "iobj"), ("v1", "n3", "dobj")],
    ),
    (
        5,
        [("subj", "FP"), ("v1", "V"), ("a1", "A"), ("be", "BE")],
        [("v1", "subj", "nsubj"), ("v1", "a1", "xcomp"), ("a1", "be", "cop")],
    ),
    (
        6,
        [("subj", "FP"), ("v1", "V"), ("n2", "N"), ("be", "BE")],
        [("v1", "subj", "nsubj"), ("v1", "n2", "xcomp"), ("n2", "be", "cop")],
    ),
    (
        7,
        [("subj", "FP"), ("v1", "V"), ("v2", "V"), ("n2", "N")],
        [("v1", "subj", "nsubj"), ("v1", "v2", "xcomp"), ("v2", "n2", "dobj")],
    ),
    (8, [("subj", "FP"), ("v1", "V"), ("v2", "V")], [("v1", "subj", "nsubj"), ("v1", "v2", "xcomp")]),
    (
        9,
        [("subj", "FP"), ("v1", "V"), ("n2", "N"), ("p1", "P")],
        [("v1", "subj", "nsubj"), ("v1", "n2", "nmod"), ("n2", "p1", "case")],
    ),
    (
        10,
        [("subj", "FP"), ("v1", "V"), ("n2", "N"), ("n3", "N"), ("p1", "P")],
        [("v1", "subj", "nsubj"), ("v1", "n2", "dobj"), ("v1", "n3", "nmod"), ("n3", "p1", "case")],
    ),
]


def _oracle_kind_ok(kind, tok):
    if kind == "FP":
        return tok.lemma in ("i", "we")
    if kind == "V":
        return tok.pos_tag.startswith("VB")
    if kind == "N":
        return tok.pos_tag in ("NN", "NNS", "NNP", "NNPS", "PRP")
    if kind == "A":
        return tok.pos_tag.startswith("JJ") or tok.pos_tag == "VBN"
    if kind == "P":
        return tok.pos_tag in ("IN", "TO")
    if kind == "BE":
        return tok.lemma == "be"
    raise AssertionError(kind)


def brute_force_matches(s):
    """Enumerate every injective slot assignment; keep one best match per anchor."""
    per_anchor = {}
    for number, slots, arcs in ORACLE_PATTERNS:
        names = [name for name, _ in slots]
        kinds = dict(slots)
        for combo in permutations(s.tokens, len(slots)):
            binding = dict(zip(names, combo))
            if not all(_oracle_kind_ok(kinds[name], binding[name]) for name in names):
                continue
            ok = all(
                binding[dep].head == binding[head].index and binding[dep].deprel == rel
                for head, dep, rel in arcs
            )
            if not ok:
                continue
            indices = tuple(sorted(t.index for t in binding.values()))
            anchor = binding["v1"].index
            rank = (-len(indices), number, indices)
            if anchor not in per_anchor or rank < per_anchor[anchor][0]:
                per_anchor[anchor] = (rank, number, indices)
    return sorted(
        ((f"P{number}", indices, anchor) for anchor, (_, number, indices) in per_anchor.items()),
        key=lambda m: m[2],
    )


def all_fixture_sentences(data_dir):
    sentences = list(parse_conllu(data_dir / "patterns.conllu"))
    for path in sorted((data_dir / "corpus" / "parses").glob("*.conllu")):
        sentences.extend(parse_conllu(path))
    return sentences


def test_matcher_agrees_with_brute_force_on_all_fixtures(data_dir):
    checked = 0
    for s in all_fixture_sentences(data_dir):
        if len(s.tokens) > 12:
            continue
        expected = brute_force_matches(s)
        actual = [(e.pattern_id, e.token_indices, e.verb_index) for e in match_action_patterns(s)]
        assert actual == expected, f"disagreement on {' '.join(t.surface for t in s.tokens)}"
        checked += 1
    assert checked >= 30


_TREE_LEMMAS = ["i", "we", "be", "they", "x"]
_TREE_TAGS = ["VB", "VBD", "VBN", "NN", "PRP", "JJ", "IN", "TO", "DT"]
_TREE_DEPRELS = ["nsubj", "dobj", "iobj", "xcomp", "cop", "nmod", "case", "det"]
_KIND_ROWS = {  # kind -> (lemmas, tags) a token of that kind may have; "X" is any token
    "FP": (["i", "we"], _TREE_TAGS),
    "V": (_TREE_LEMMAS, ["VB", "VBD", "VBN"]),
    "N": (_TREE_LEMMAS, ["NN", "PRP"]),
    "A": (_TREE_LEMMAS, ["JJ", "VBN"]),
    "P": (_TREE_LEMMAS, ["IN", "TO"]),
    "BE": (["be"], _TREE_TAGS),
    "X": (_TREE_LEMMAS, _TREE_TAGS),
}


@st.composite
def dependency_trees(draw):
    """A single-root tree of at most 7 tokens: a perturbed pattern skeleton plus random tokens."""

    def planted(values, pool):  # one time in eight, any value from the pool
        return draw(st.sampled_from(pool if draw(st.integers(0, 7)) == 0 else values))

    def slot(kind, head, rel):  # (lemma, tag, head slot, deprel)
        lemmas, tags = _KIND_ROWS[kind]
        return planted(lemmas, _TREE_LEMMAS), planted(tags, _TREE_TAGS), head, planted([rel], _TREE_DEPRELS)

    _, slots, arcs = draw(st.sampled_from(ORACLE_PATTERNS))
    kinds = dict(slots)
    nodes = {"v1": slot(kinds["v1"], None, "root")}
    for head, dep, rel in arcs:
        nodes[dep] = slot(kinds[dep], head, rel)
    for extra in range(draw(st.integers(0, 7 - len(nodes)))):
        nodes[f"x{extra}"] = slot("X", draw(st.sampled_from(sorted(nodes))), draw(st.sampled_from(_TREE_DEPRELS)))
    position = dict(zip(nodes, draw(st.permutations(range(1, len(nodes) + 1)))))
    rows = sorted(
        (position[name], lemma, tag, position[head] if head else 0, rel)
        for name, (lemma, tag, head, rel) in nodes.items()
    )
    return sentence([(f"w{index}", lemma, tag, head, rel) for index, lemma, tag, head, rel in rows])


@settings(max_examples=120, deadline=None)
@given(dependency_trees())
def test_matcher_agrees_with_brute_force_on_random_trees(s):
    actual = [(e.pattern_id, e.token_indices, e.verb_index) for e in match_action_patterns(s)]
    assert actual == brute_force_matches(s)


def test_a_pattern_is_tried_only_on_verbs_with_every_deprel_its_v1_arcs_need(monkeypatch):
    tried = []
    bindings = mea.extraction._bindings

    def record(children, pattern, v1, subj):
        tried.append(pattern.pattern_id)
        return bindings(children, pattern, v1, subj)

    monkeypatch.setattr(mea.extraction, "_bindings", record)
    for number, _, arcs in ORACLE_PATTERNS:
        needed = [rel for head, _, rel in arcs if head == "v1" and rel != "nsubj"]
        for missing in [None] + needed:
            rows = [("I", "i", "PRP", 2, "nsubj"), ("eat", "eat", "VB", 0, "root")]
            rows += [("x", "x", "NN", 2, rel) for rel in needed if rel != missing]
            tried.clear()
            match_action_patterns(sentence(rows))
            assert (f"P{number}" in tried) == (missing is None), (number, missing)


def test_pattern_fixture_expectations(data_dir):
    sentences = parse_conllu(data_dir / "patterns.conllu")
    expected = [
        [("P1", (1, 2))],
        [("P2", (1, 2, 4))],
        [("P3", (1, 2, 3))],
        [("P4", (1, 2, 4, 6))],
        [("P5", (1, 2, 4, 5))],
        [("P6", (1, 2, 4, 6))],
        [("P7", (1, 2, 4, 6))],
        [("P8", (1, 2, 4))],
        [("P9", (1, 2, 3, 5))],
        [("P10", (1, 2, 4, 5, 7))],
        [],
        [("P2", (1, 2, 4))],
        [("P1", (1, 2)), ("P8", (3, 4, 6))],
        [],
    ]
    actual = [[(e.pattern_id, e.token_indices) for e in match_action_patterns(s)] for s in sentences]
    assert actual == expected


# --- STATE events ------------------------------------------------------------

def test_state_event_spans_root_subtree_without_punct():
    s = sentence(
        [
            ("It", "it", "PRP", 3, "nsubj"),
            ("seriously", "seriously", "RB", 3, "advmod"),
            ("makes", "make", "VBZ", 0, "root"),
            ("perfect", "perfect", "JJ", 5, "amod"),
            ("meatballs", "meatball", "NNS", 3, "dobj"),
            (".", ".", ".", 3, "punct"),
        ]
    )
    event = extract_state_event(s)
    assert event.pattern_id == "STATE"
    assert event.token_indices == (1, 2, 3, 4, 5)
    assert event.verb_index == 3
    assert event.subject_lemma == "it"


def test_state_event_keeps_a_punct_labelled_verbal_root():
    s = sentence([("Wow", "wow", "VB", 0, "punct"), ("!", "!", ".", 1, "punct")])
    event = extract_state_event(s)
    assert event.token_indices == (1,)
    assert event.verb_index == 1


def test_state_event_for_copular_predicate():
    s = sentence(
        [
            ("I", "i", "PRP", 4, "nsubj"),
            ("am", "be", "VBP", 4, "cop"),
            ("not", "not", "RB", 4, "neg"),
            ("happy", "happy", "JJ", 0, "root"),
        ]
    )
    event = extract_state_event(s)
    assert event is not None
    assert event.verb_index == 2
    assert event.subject_lemma == "i"
    assert event.negated


def test_no_state_event_for_bare_noun_root():
    s = sentence([("Great", "great", "JJ", 2, "amod"), ("taffy", "taffy", "NN", 0, "root")])
    assert extract_state_event(s) is None


def test_extract_events_orders_state_first():
    s = sentence(
        [("I", "i", "PRP", 2, "nsubj"), ("freeze", "freeze", "VBP", 0, "root")]
    )
    assert [e.pattern_id for e in extract_events(s)] == ["STATE", "P1"]


# --- negation and tense ------------------------------------------------------

def test_negation_detects_not_lemma():
    s = sentence(
        [
            ("I", "i", "PRP", 4, "nsubj"),
            ("am", "be", "VBP", 4, "cop"),
            ("not", "not", "RB", 4, "neg"),
            ("happy", "happy", "JJ", 0, "root"),
        ]
    )
    assert detect_negation(extract_state_event(s))


def test_negation_detects_nt_clitic():
    s = sentence(
        [
            ("I", "i", "PRP", 4, "nsubj"),
            ("do", "do", "VBP", 4, "aux"),
            ("n't", "not", "RB", 4, "neg"),
            ("like", "like", "VB", 0, "root"),
            ("it", "it", "PRP", 4, "dobj"),
        ]
    )
    assert detect_negation(extract_state_event(s))


def test_an_upper_case_nt_clitic_negates_by_its_surface():
    # Its lemma is not "not", so only the case-insensitive surface rule can find it.
    s = sentence(
        [
            ("I", "i", "PRP", 4, "nsubj"),
            ("DO", "do", "VBP", 4, "aux"),
            ("N'T", "n't", "RB", 4, "neg"),
            ("LIKE", "like", "VB", 0, "root"),
            ("IT", "it", "PRP", 4, "dobj"),
        ]
    )
    assert s.negators == (3,)
    assert extract_state_event(s).negated


def test_negation_absent():
    s = sentence(
        [
            ("I", "i", "PRP", 3, "nsubj"),
            ("am", "be", "VBP", 3, "cop"),
            ("happy", "happy", "JJ", 0, "root"),
        ]
    )
    assert not detect_negation(extract_state_event(s))


def test_negated_agrees_with_the_negation_oracle_on_every_fixture_event(data_dir):
    events = [event for s in all_fixture_sentences(data_dir) for event in extract_events(s)]
    assert [event.negated for event in events] == [detect_negation(event) for event in events]
    assert sum(event.negated for event in events) >= 3  # the fixtures hold negated events


def test_tense_classification():
    past = sentence([("I", "i", "PRP", 2, "nsubj"), ("bought", "buy", "VBD", 0, "root")])
    assert classify_tense(match_action_patterns(past)[0]) is Tense.PAST

    perfect = sentence([("I", "i", "PRP", 2, "nsubj"), ("tried", "try", "VBN", 0, "root")])
    assert classify_tense(match_action_patterns(perfect)[0]) is Tense.PAST

    future = sentence(
        [
            ("I", "i", "PRP", 3, "nsubj"),
            ("will", "will", "MD", 3, "aux"),
            ("buy", "buy", "VB", 0, "root"),
        ]
    )
    assert classify_tense(match_action_patterns(future)[0]) is Tense.OTHER


# --- perception --------------------------------------------------------------

def test_food_plus_feeling_combination():
    s = sentence(
        [
            ("It", "it", "PRP", 3, "nsubj"),
            ("seriously", "seriously", "RB", 3, "advmod"),
            ("makes", "make", "VBZ", 0, "root"),
            ("perfect", "perfect", "JJ", 5, "amod"),
            ("meatballs", "meatball", "NNS", 3, "dobj"),
        ]
    )
    links = detect_perception(extract_state_event(s), small_lexicon())
    assert [(l.word, l.node, l.combo) for l in links] == [
        ("meatball", N.FOOD, Combo.FOOD_FEELING),
        ("perfect", N.EXPERIENCE_FEELING_POS, Combo.FOOD_FEELING),
    ]
    assert not any(l.flipped for l in links)


def test_negated_emotion_links_opposite_node():
    s = sentence(
        [
            ("I", "i", "PRP", 4, "nsubj"),
            ("am", "be", "VBP", 4, "cop"),
            ("not", "not", "RB", 4, "neg"),
            ("happy", "happy", "JJ", 0, "root"),
        ]
    )
    links = detect_perception(extract_state_event(s), small_lexicon())
    assert [(l.word, l.node, l.flipped) for l in links] == [("happy", N.EMO_NEG, True)]
    assert links[0].combo is Combo.FIRSTPERSON_EMOTION


@pytest.mark.parametrize("tag, surface", [("JJR", "happier"), ("JJS", "happiest")])
def test_a_comparative_or_superlative_emotion_adjective_links_its_node(tag, surface):
    s = sentence([("I", "i", "PRP", 3, "nsubj"), ("am", "be", "VBP", 3, "cop"), (surface, "happy", tag, 0, "root")])
    links = detect_perception(extract_state_event(s), small_lexicon())
    assert [(l.word, l.node, l.combo) for l in links] == [("happy", N.EMO_POS, Combo.FIRSTPERSON_EMOTION)]


def test_feeling_without_food_yields_nothing():
    s = sentence(
        [
            ("the", "the", "DT", 2, "det"),
            ("box", "box", "NN", 4, "nsubj"),
            ("is", "be", "VBZ", 4, "cop"),
            ("perfect", "perfect", "JJ", 0, "root"),
        ]
    )
    assert detect_perception(extract_state_event(s), small_lexicon()) == []


def test_food_without_partner_yields_nothing():
    s = sentence(
        [
            ("I", "i", "PRP", 2, "nsubj"),
            ("tried", "try", "VBD", 0, "root"),
            ("tea", "tea", "NN", 2, "dobj"),
        ]
    )
    assert detect_perception(extract_state_event(s), small_lexicon()) == []


def test_emotional_action_verb_combination():
    s = sentence(
        [
            ("I", "i", "PRP", 2, "nsubj"),
            ("love", "love", "VBP", 0, "root"),
            ("it", "it", "PRP", 2, "dobj"),
        ]
    )
    links = detect_perception(extract_state_event(s), small_lexicon())
    assert [(l.word, l.node, l.combo) for l in links] == [
        ("love", N.EMO_POS, Combo.EMOTIONAL_ACTION)
    ]


def test_emotion_words_must_be_adjectives_for_state_combos():
    # "love" as a noun token is in the lexicon only as a verb: no combo fires
    s = sentence(
        [
            ("the", "the", "DT", 2, "det"),
            ("love", "love", "NN", 4, "nsubj"),
            ("is", "be", "VBZ", 4, "cop"),
            ("real", "real", "JJ", 0, "root"),
        ]
    )
    assert detect_perception(extract_state_event(s), small_lexicon()) == []


def test_perception_words_always_come_from_the_lexicon(data_dir, lexicon):
    flip = {
        N.EXPERIENCE_FEELING_POS: N.EXPERIENCE_FEELING_NEG,
        N.EXPERIENCE_FEELING_NEG: N.EXPERIENCE_FEELING_POS,
        N.EMO_POS: N.EMO_NEG,
        N.EMO_NEG: N.EMO_POS,
    }
    for s in all_fixture_sentences(data_dir):
        for event in extract_events(s):
            for link in detect_perception(event, lexicon):
                lexicon_node = flip[link.node] if link.flipped else link.node
                assert lexicon_node in lexicon.lookup(link.word)
                if link.flipped:
                    assert opposite_node(link.node) == lexicon_node


def test_perception_agrees_with_the_lookup_reference_on_every_fixture_event(data_dir, lexicon):
    linked = 0
    for s in all_fixture_sentences(data_dir):
        for event in extract_events(s):
            for variant in (event, replace(event, negated=not event.negated)):
                links = detect_perception(variant, lexicon)
                assert links == reference_detect_perception(variant, lexicon)
                linked += bool(links)
    assert linked >= 10


_FEELINGS = (None, N.EXPERIENCE_FEELING_POS, N.EXPERIENCE_FEELING_NEG)
_EMOTIONS = (None, N.EMO_POS, N.EMO_NEG)


@st.composite
def word_entries(draw, word, everything=False):
    """A word's lexicon entries: food, a feeling node and an emotion node, each present or not."""
    food = everything or draw(st.booleans())
    feeling = draw(st.sampled_from(_FEELINGS[1:] if everything else _FEELINGS))
    emotion = draw(st.sampled_from(_EMOTIONS[1:] if everything else _EMOTIONS))
    entries = []
    if food:
        entries.append(BeliefTuple(word, N.FOOD, BeliefSource.WORDNET_HYPONYM, PosClass.NOUN))
    if feeling is not None:
        entries.append(BeliefTuple(word, feeling, BeliefSource.SENTIWORDNET, PosClass.ADJECTIVE))
    if emotion is not None:
        pos_class = draw(st.sampled_from([PosClass.ADJECTIVE, PosClass.VERB]))
        entries.append(BeliefTuple(word, emotion, BeliefSource.EMOTION_BASE, pos_class))
    return entries


@st.composite
def perception_cases(draw):
    """A lexicon where "all" is food, feeling and emotion at once, and a clause whose verb is "all" or the emotion verb "adore"."""
    entries = draw(word_entries("all", everything=True))
    entries.append(BeliefTuple("adore", draw(st.sampled_from(_EMOTIONS[1:])), BeliefSource.EMOTION_BASE, PosClass.VERB))
    for word in ("dish", "warm", "glad"):
        entries += draw(word_entries(word))
    subject, verb = draw(st.sampled_from(["i", "we", "it"])), draw(st.sampled_from(["adore", "all"]))
    rows = [(subject.upper(), subject, "PRP", 2, "nsubj"), (verb, verb, "VBP", 0, "root")]
    words = draw(st.lists(st.sampled_from(["all", "All", "dish", "warm", "glad", "not", "plain"]), max_size=6))
    for word in words:
        tag = draw(st.sampled_from(["JJ", "JJR", "NN", "NNS", "RB"]))
        rows.append((word, word, tag, 2, draw(st.sampled_from(["dobj", "amod", "advmod", "neg"]))))
    return BeliefLexicon(entries), sentence(rows)


@settings(max_examples=200, deadline=None)
@given(perception_cases())
def test_perception_agrees_with_the_lookup_reference_on_random_lexicons(case):
    lexicon, s = case
    for event in extract_events(s):
        for variant in (event, replace(event, negated=not event.negated)):
            assert detect_perception(variant, lexicon) == reference_detect_perception(variant, lexicon)
