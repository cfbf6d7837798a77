from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mea.extraction
from conftest import sentence
from mea.belief import BeliefLexicon, BeliefSource, BeliefTuple, PosClass
from mea.extraction import (
    Combo,
    ConlluError,
    Event,
    Tense,
    classify_tense,
    detect_negation,
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
    with pytest.raises(ConlluError) as exc:
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
    with pytest.raises(ConlluError) as exc:
        parse_conllu(path)
    assert "root" in str(exc.value)


def test_parse_rejects_malformed_row_with_line_number(tmp_path):
    path = tmp_path / "r1.conllu"
    path.write_text("# review_id = r1\n1\tI\ti\tPRP\n", encoding="utf-8")
    with pytest.raises(ConlluError) as exc:
        parse_conllu(path)
    assert exc.value.line_no == 2


def test_parse_requires_review_id(tmp_path):
    path = tmp_path / "r1.conllu"
    path.write_text("1\tX\tx\tNOUN\tNN\t_\t0\troot\t_\t_\n", encoding="utf-8")
    with pytest.raises(ConlluError) as exc:
        parse_conllu(path)
    assert "review_id" in str(exc.value)


def test_parse_counts_sentences_in_file_order(data_dir):
    sentences = parse_conllu(data_dir / "patterns.conllu")
    assert len(sentences) == 14


_CONLLU_PIECES = st.sampled_from(
    [
        b"# review_id = r\n",
        b"1\tI\ti\tPRON\tPRP\t_\t2\tnsubj\t_\t_\n",
        b"2\tgo\tgo\tVERB\tVBP\t_\t0\troot\t_\t_\n",
        b"\n", b"\r", b"\t", b"#", b"_", b"0", b"1", b"2", b"-1", b"\xff", b"\xc3", b"\xe2\x80\xa8",
    ]
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_CONLLU_PIECES, st.binary(max_size=8)), max_size=40).map(b"".join))
def test_parse_raises_only_conllu_error_on_arbitrary_bytes(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "arbitrary.conllu"
    path.write_bytes(data)
    try:
        parse_conllu(path)
    except ConlluError:
        pass


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
    with pytest.raises(ConlluError) as exc:
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
    with pytest.raises(ConlluError) as exc:
        parse_conllu(path)
    assert str(exc.value) == f"{path}:5: review_id '1' does not match the file name"


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


def test_negation_absent():
    s = sentence(
        [
            ("I", "i", "PRP", 3, "nsubj"),
            ("am", "be", "VBP", 3, "cop"),
            ("happy", "happy", "JJ", 0, "root"),
        ]
    )
    assert not detect_negation(extract_state_event(s))


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
