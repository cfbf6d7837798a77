from dataclasses import astuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_compile_food_lexicon, reference_parse_sense_file
from mea import InputFileError
from mea.belief import (
    BeliefLexicon,
    BeliefSource,
    BeliefTuple,
    EmotionBaseWord,
    EmotionClass,
    PosClass,
    SenseRecord,
    TaxonomyCycleError,
    compile_emotion_lexicon,
    compile_feeling_lexicon,
    compile_food_lexicon,
    dumps_lexicon,
    load_lexicon,
    load_word_list,
    loads_lexicon,
    parse_emotion_file,
    parse_sense_file,
)
from mea.nature import NatureNodeId

N = NatureNodeId
PERCEPTION = {N.FOOD, N.EXPERIENCE_FEELING_POS, N.EXPERIENCE_FEELING_NEG, N.EMO_POS, N.EMO_NEG}


def food(word):
    return BeliefTuple(word, N.FOOD, BeliefSource.WORDNET_HYPONYM, PosClass.NOUN)


# --- tuple and lexicon invariants -------------------------------------------

def test_tuple_rejects_non_perception_node():
    with pytest.raises(ValueError):
        BeliefTuple("x", N.ACTION_POS, BeliefSource.SENTIWORDNET, PosClass.ADJECTIVE)


def test_tuple_rejects_uppercase_and_empty_words():
    with pytest.raises(ValueError):
        BeliefTuple("Meatball", N.FOOD, BeliefSource.WORDNET_HYPONYM, PosClass.NOUN)
    with pytest.raises(ValueError):
        BeliefTuple("", N.FOOD, BeliefSource.WORDNET_HYPONYM, PosClass.NOUN)


def test_hyponym_source_must_be_food_noun():
    with pytest.raises(ValueError):
        BeliefTuple("happy", N.EMO_POS, BeliefSource.WORDNET_HYPONYM, PosClass.ADJECTIVE)


def test_lexicon_rejects_duplicate_word_node_pairs():
    a = BeliefTuple("love", N.EMO_POS, BeliefSource.EMOTION_BASE, PosClass.VERB)
    b = BeliefTuple("love", N.EMO_POS, BeliefSource.EMOTION_EXTENSION, PosClass.ADJECTIVE)
    with pytest.raises(ValueError):
        BeliefLexicon([a, b])


def test_lexicon_rejects_polarity_conflicts():
    a = BeliefTuple("odd", N.EMO_POS, BeliefSource.EMOTION_BASE, PosClass.ADJECTIVE)
    b = BeliefTuple("odd", N.EMO_NEG, BeliefSource.EMOTION_EXTENSION, PosClass.ADJECTIVE)
    with pytest.raises(ValueError):
        BeliefLexicon([a, b])


def test_tuple_is_immutable_and_hashable():
    t = food("meatball")
    with pytest.raises(AttributeError):
        t.word = "pizza"
    assert hash(t) == hash(food("meatball"))
    assert len({t, food("meatball"), food("pizza")}) == 2
    with pytest.raises(ValueError, match="hyponym-sourced tuples must be food nouns"):
        t._replace(node=N.EMO_POS)
    with pytest.raises(ValueError, match="word must be non-empty"):
        BeliefTuple._make(("Pizza", N.FOOD, BeliefSource.WORDNET_HYPONYM, PosClass.NOUN))


def test_lookup_is_case_insensitive(lexicon):
    assert lexicon.lookup("meatball") == {N.FOOD}
    assert lexicon.lookup("Meatball") == {N.FOOD}
    assert lexicon.lookup("happy") == {N.EMO_POS}
    assert lexicon.lookup("qwxz") == set()


def test_a_word_is_looked_up_in_its_str_lower_form():
    """str.lower, the form a BeliefTuple holds: casefold would ask for "strasse" and miss."""
    lex = BeliefLexicon([BeliefTuple("straße", N.FOOD, BeliefSource.WORDNET_HYPONYM, PosClass.NOUN)])
    assert lex.tuples_for("Straße") == lex.tuples_for("STRAẞE") == tuple(lex.tuples)
    assert lex.lookup("Straße") == {N.FOOD}
    assert lex.tuples_for("STRASSE") == ()


# --- food compilation --------------------------------------------------------

def test_food_compile_reaches_meatball(data_dir):
    tuples = compile_food_lexicon(data_dir / "wordnet_dump.tsv")
    words = {t.word for t in tuples}
    assert "meatball" in words
    assert food("meatball") in tuples


def test_food_compile_exact_fixture_set(data_dir):
    exclusions = ["mess", "intellectual nourishment"]
    tuples = compile_food_lexicon(data_dir / "wordnet_dump.tsv", exclusions)
    expected = {"food", "solid food", "dish", "meatball", "pizza", "baked goods", "bread", "pabulum"}
    assert {t.word for t in tuples} == expected
    assert all(t.node is N.FOOD and t.pos_class is PosClass.NOUN for t in tuples)


def test_food_compile_exclusions_remove_tuples(data_dir):
    with_mess = compile_food_lexicon(data_dir / "wordnet_dump.tsv")
    without = compile_food_lexicon(data_dir / "wordnet_dump.tsv", ["mess"])
    assert food("mess") in with_mess
    assert food("mess") not in without


def test_food_compile_detects_cycles(tmp_path):
    dump = tmp_path / "dump.tsv"
    dump.write_text(
        "food.n.01\tfood\nfood.n.01\tdish.n.01\ndish.n.01\tfood.n.01\n", encoding="utf-8"
    )
    with pytest.raises(TaxonomyCycleError):
        compile_food_lexicon(dump)


def write_deep_chain(path, depth, closed):
    """A hyponym chain link00000 -> ... under "food", far deeper than the recursion limit."""
    links = [f"link{i:05}.n.01" for i in range(depth)]
    lines = [f"{links[0]}\tfood", "stone.n.01\tstone"]
    lines += [f"{link}\tw{i}" for i, link in enumerate(links)]
    lines += [f"{parent}\t{child}" for parent, child in zip(links, links[1:])]
    if closed:
        lines.append(f"{links[-1]}\t{links[0]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_food_compile_walks_a_5000_deep_chain(tmp_path):
    dump = tmp_path / "dump.tsv"
    write_deep_chain(dump, 5000, closed=False)
    assert {t.word for t in compile_food_lexicon(dump)} == {"food"} | {f"w{i}" for i in range(5000)}


def test_food_compile_reports_a_5000_long_cycle(tmp_path):
    dump = tmp_path / "dump.tsv"
    write_deep_chain(dump, 5000, closed=True)
    with pytest.raises(TaxonomyCycleError) as exc:
        compile_food_lexicon(dump)
    cycle = exc.value.cycle
    assert len(cycle) == 5001
    assert cycle[0] == cycle[-1] == "link00000.n.01"


def test_food_compile_reports_malformed_line(tmp_path):
    dump = tmp_path / "dump.tsv"
    dump.write_text("food.n.01\tfood\nbroken line without tab\n", encoding="utf-8")
    with pytest.raises(InputFileError) as exc:
        compile_food_lexicon(dump)
    assert exc.value.line_no == 2


def outcome(read, *args):
    """What a reader returns, or the type, text, line and cycle of what it raises."""
    try:
        return read(*args)
    except (InputFileError, TaxonomyCycleError) as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None), getattr(exc, "cycle", None)


_SYNSETS = ["food.n.01", "food.n.02", "dish.n.01", "bread.n.03", "x.n.01", "stone.n.01"]
_LEMMAS = ["food", "Food", " FOOD_", "food_stuff", "solid_food", "bread", "Bread_Roll", "a.n.b", "tea.n.", "v.n.01 ", "new.n.07", "", " "]
_valid_hyponym_lines = st.one_of(
    st.tuples(st.integers(0, len(_SYNSETS) - 2), st.integers(1, len(_SYNSETS) - 1))  # parent before child: acyclic
    .filter(lambda ij: ij[0] < ij[1])
    .map(lambda ij: f"{_SYNSETS[ij[0]]}\t{_SYNSETS[ij[1]]}"),
    st.builds("{}\t{}".format, st.sampled_from(_SYNSETS), st.sampled_from(_LEMMAS)),
    st.sampled_from(["food.n.01\tfood", "food.n.02\tFood"]),
    st.sampled_from(["", " ", "\t", " \t ", "\t\t"]),  # blank lines, however many fields
)
_hostile_hyponym_lines = st.one_of(
    st.builds("{}\t{}".format, st.sampled_from(_SYNSETS), st.sampled_from(_SYNSETS)),  # any edge: cycles
    st.sampled_from(
        [
            "x.n.01\tx.n.01",  # a self-loop
            "food.n.01", "a\tb\tc", "food.n.01\tfood\tx",  # 1 or 3 fields
            "food\tfood.n.01", "Food.v.01\tfood", " food.n.01\tfood", "food.n.1x\tfood",  # not a synset id
        ]
    ),
    st.text(alphabet="fod.n01\t _FX", max_size=12),
)


@st.composite
def dump_lines(draw, valid, hostile, max_size):
    """Well-formed rows with at most two hostile lines put among them, so that many dumps compile."""
    lines = draw(st.lists(valid, max_size=max_size))
    for line in draw(st.lists(hostile, max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), line)
    return lines


@settings(max_examples=250, deadline=None)
@given(dump_lines(_valid_hyponym_lines, _hostile_hyponym_lines, 14), st.lists(st.sampled_from(["bread", "food", "Solid_Food", "tea.n."]), max_size=2))
@example(["food.n.01\tfood", "x.n.01\tx.n.01", "food.n.01\tdish.n.01", "dish.n.01\tfood.n.01"], [])
@example(["food.n.01\tFOOD_", "food.n.01\tdish.n.01", "dish.n.01\ta.n.b", " \t ", "dish.n.01\tdish"], ["dish"])
@example(["food.n.01\tfood", "food.n.01\tfood\tx"], [])  # 3 fields after a known synset
@example(["food.n.01\tfood", "food\tfood.n.01"], [])  # a bad first field before a known synset
def test_food_compile_agrees_with_the_reference_reader(tmp_path_factory, lines, exclusions):
    """The same tuples, or the same error type, text, line and cycle, as the reader before tuning."""
    dump = tmp_path_factory.getbasetemp() / "hyponyms.tsv"
    dump.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert outcome(compile_food_lexicon, dump, exclusions) == outcome(reference_compile_food_lexicon, dump, exclusions)


_SCORES = ["0", "0.25", " 0.5", "0.625", "1.0"]
_BAD_SCORES = ["1.5", "-0.1", "nan", "NaN", "inf", "x", ""]
_sense_rows = st.tuples(
    st.sampled_from(["good", "Bad_Taste", "x.n.01", ""]),
    st.sampled_from(["adjective", "noun", "verb"]),
    st.integers(0, 8).flatmap(lambda p: st.tuples(st.just(p), st.integers(0, 8 - p))),  # eighths, pos + neg <= 1
    st.sampled_from(["good.a.01", ""]),
).map(lambda r: f"{r[0]}\t{r[1]}\t{r[2][0] / 8}\t {r[2][1] / 8:g}\t{r[3]}")
_hostile_sense_lines = st.one_of(
    st.builds(
        "good\t{}\t{}\t{}\tg".format,
        st.sampled_from(["adjective", "adjective", "adjective", "adj"]),
        st.sampled_from(_SCORES + _BAD_SCORES),
        st.sampled_from(_SCORES + _BAD_SCORES),
    ),
    st.sampled_from(["good\tadjective\t0.5\t0.5", "a\tb\tc\td\te\tf"]),  # 4 or 6 fields
)
_valid_sense_lines = st.one_of(
    _sense_rows, st.sampled_from(["", " ", " \t ", "\t\t\t\t", "# lemma\tpos", "#\ta\tb\tc\td"])
)


@settings(max_examples=150, deadline=None)
@given(dump_lines(_valid_sense_lines, _hostile_sense_lines, 10))
@example(["good\tadjective\t0.75\t0.25\tg1", "bad\tadjective\tnan\t0\tb1"])
@example(["good\tadjective\t0.75\t0.5\tg1"])
def test_sense_file_agrees_with_the_reference_reader(tmp_path_factory, lines):
    """The same records, field for field, or the same error text and line, as the reader before tuning."""
    dump = tmp_path_factory.getbasetemp() / "senses.tsv"
    dump.write_text("\n".join(lines) + "\n", encoding="utf-8")
    actual = outcome(parse_sense_file, dump)
    expected = outcome(reference_parse_sense_file, dump)
    if isinstance(expected, list):
        assert all(type(r) is SenseRecord for r in actual)
        actual = [(r.lemma, r.pos_class, r.pos_score, r.neg_score, r.sense_id) for r in actual]
        expected = [astuple(r) for r in expected]
    assert actual == expected


# --- feeling compilation -----------------------------------------------------

def adj_sense(lemma, pos=0.0, neg=0.0, sid="s"):
    return SenseRecord(lemma, PosClass.ADJECTIVE, pos, neg, sid)


def test_feeling_compile_basic_positive():
    pos, neg = compile_feeling_lexicon([adj_sense("delicious", pos=0.75)])
    assert {t.word for t in pos} == {"delicious"}
    assert next(iter(pos)).node is N.EXPERIENCE_FEELING_POS
    assert neg == set()


def test_feeling_threshold_is_strict():
    pos, neg = compile_feeling_lexicon([adj_sense("plain", pos=0.6)])
    assert pos == set() and neg == set()


def test_feeling_mixed_polarity_lemma_enters_neither():
    senses = [adj_sense("odd", pos=0.7, sid="1"), adj_sense("odd", neg=0.7, sid="2")]
    pos, neg = compile_feeling_lexicon(senses)
    assert pos == set() and neg == set()


def test_feeling_ignores_non_adjectives():
    pos, neg = compile_feeling_lexicon([SenseRecord("fast", PosClass.NOUN, 0.8, 0.0, "s")])
    assert pos == set() and neg == set()


def test_feeling_fixture_file(data_dir):
    pos, neg = compile_feeling_lexicon(parse_sense_file(data_dir / "senti_dump.tsv"))
    assert {t.word for t in pos} == {"delicious", "great", "tasty"}
    assert {t.word for t in neg} == {"bitter", "hard"}


def test_sense_record_rejects_score_overflow():
    with pytest.raises(ValueError):
        SenseRecord("x", PosClass.ADJECTIVE, 0.7, 0.7, "s")


def test_sense_record_is_an_immutable_tuple_validated_however_it_is_built():
    r = SenseRecord(lemma="tasty", pos_class=PosClass.ADJECTIVE, pos_score=0.75, neg_score=0.0, sense_id="t1")
    assert r == ("tasty", PosClass.ADJECTIVE, 0.75, 0.0, "t1") and r.pos_score == 0.75
    assert hash(r) == hash(SenseRecord("tasty", PosClass.ADJECTIVE, 0.75, 0.0, "t1"))
    with pytest.raises(AttributeError):
        r.lemma = "bland"
    with pytest.raises(ValueError, match="scores out of range for 'x'"):
        SenseRecord("x", PosClass.ADJECTIVE, float("nan"), 0.0, "s")
    with pytest.raises(ValueError, match="pos\\+neg exceeds 1.0 for 'tasty'"):
        r._replace(neg_score=0.5)
    with pytest.raises(ValueError, match="scores out of range for 'x'"):
        SenseRecord._make(("x", PosClass.ADJECTIVE, 1.5, 0.0, "s"))


# --- emotion compilation -----------------------------------------------------

def test_emotion_compile_classes_and_pos_filter():
    bases = [
        EmotionBaseWord("cheerful", EmotionClass.JOY, PosClass.ADJECTIVE),
        EmotionBaseWord("fury", EmotionClass.ANGER, PosClass.NOUN),
        EmotionBaseWord("amazed", EmotionClass.SURPRISE, PosClass.ADJECTIVE),
        EmotionBaseWord("sad", EmotionClass.SADNESS, PosClass.ADJECTIVE),
    ]
    pos, neg = compile_emotion_lexicon(bases)
    assert {t.word for t in pos} == {"cheerful"}
    assert {t.word for t in neg} == {"sad"}


def test_emotion_extensions_inherit_class_and_source():
    base = EmotionBaseWord(
        "love", EmotionClass.LOVE, PosClass.VERB, (("adore", PosClass.VERB), ("fond", PosClass.ADJECTIVE))
    )
    pos, _ = compile_emotion_lexicon([base])
    by_word = {t.word: t for t in pos}
    assert by_word["love"].source is BeliefSource.EMOTION_BASE
    assert by_word["adore"].source is BeliefSource.EMOTION_EXTENSION
    assert by_word["fond"].node is N.EMO_POS


def test_emotion_keeps_a_words_first_entry_and_skips_blank_words():
    bases = [
        EmotionBaseWord("glad", EmotionClass.JOY, PosClass.ADJECTIVE),
        EmotionBaseWord("Glad_", EmotionClass.LOVE, PosClass.VERB, (("glad", PosClass.VERB), ("_", PosClass.ADJECTIVE))),
        EmotionBaseWord(" ", EmotionClass.ANGER, PosClass.ADJECTIVE),
    ]
    pos, neg = compile_emotion_lexicon(bases)
    assert pos == {BeliefTuple("glad", N.EMO_POS, BeliefSource.EMOTION_BASE, PosClass.ADJECTIVE)}
    assert neg == set()


def test_emotion_conflicting_word_dropped_from_both():
    bases = [
        EmotionBaseWord("torn", EmotionClass.JOY, PosClass.ADJECTIVE),
        EmotionBaseWord("torn", EmotionClass.SADNESS, PosClass.ADJECTIVE),
    ]
    pos, neg = compile_emotion_lexicon(bases)
    assert pos == set() and neg == set()


def test_emotion_fixture_file(data_dir):
    bases = parse_emotion_file(data_dir / "emotions.tsv")
    pos, neg = compile_emotion_lexicon(bases)
    assert {t.word for t in pos} == {"cheerful", "gleeful", "love", "adore"}
    assert {t.word for t in neg} == {"angry", "fearful", "sad"}


def test_emotion_file_rejects_unknown_class(tmp_path):
    path = tmp_path / "emotions.tsv"
    path.write_text("blissful\tEcstasy\tadjective\tbase\n", encoding="utf-8")
    with pytest.raises(InputFileError) as exc:
        parse_emotion_file(path)
    assert str(exc.value) == f"{path}:1: 'Ecstasy' is not a valid EmotionClass"


def test_emotion_file_extension_needs_matching_base(tmp_path):
    path = tmp_path / "emotions.tsv"
    path.write_text("cheerful\tJoy\tadjective\tbase\nscared\tFear\tadjective\textension\n", encoding="utf-8")
    with pytest.raises(InputFileError):
        parse_emotion_file(path)
    # The nearest base row decides, and there must be one.
    for rows, message in [
        ("cheerful\tJoy\tadjective\tbase\nangry\tAnger\tadjective\tbase\nglad\tJoy\tadjective\textension\n", "3: extension class Joy does not match base Anger"),
        ("glad\tJoy\tadjective\textension\n", "1: extension row before any base row"),
    ]:
        path.write_text(rows, encoding="utf-8")
        with pytest.raises(InputFileError) as exc:
            parse_emotion_file(path)
        assert str(exc.value) == f"{path}:{message}"


def test_emotion_file_rejects_an_unknown_kind_at_its_line(tmp_path):
    path = tmp_path / "emotions.tsv"
    path.write_text("cheerful\tJoy\tadjective\tbase\nglad\tJoy\tadjective\tbasis\n", encoding="utf-8")
    with pytest.raises(InputFileError) as exc:
        parse_emotion_file(path)
    assert str(exc.value) == f"{path}:2: kind must be base or extension, got 'basis'"


def test_word_list_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "exclusions.txt"
    path.write_text("# excluded\n\n  bread \n \t\n#x\nSolid_Food\n", encoding="utf-8")
    assert load_word_list(path) == ["bread", "Solid_Food"]


def test_emotion_file_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "emotions.tsv"
    path.write_text("# word\tclass\tpos\tkind\n\ncheerful\tJoy\tadjective\tbase\n \t \n#x\nglad\tJoy\tadjective\textension\n", encoding="utf-8")
    assert parse_emotion_file(path) == [EmotionBaseWord("cheerful", EmotionClass.JOY, PosClass.ADJECTIVE, (("glad", PosClass.ADJECTIVE),))]


# --- serialization -----------------------------------------------------------

def test_serialize_single_tuple():
    lex = BeliefLexicon([food("meatball")])
    assert dumps_lexicon(lex) == "#mea-lexicon v1\nmeatball\tfood\twordnet_hyponym\tnoun\n"


def test_serialize_empty_lexicon_is_header_only():
    assert dumps_lexicon(BeliefLexicon([])) == "#mea-lexicon v1\n"


def test_deserialize_reports_bad_lines():
    with pytest.raises(InputFileError) as exc:
        loads_lexicon("#mea-lexicon v1\nmeatball\tfood\n")
    assert exc.value.line_no == 2
    for text in ("no header\n", ""):
        with pytest.raises(InputFileError) as exc:
            loads_lexicon(text)
        assert (str(exc.value), exc.value.line_no) == ("<string>:1: missing header '#mea-lexicon v1'", 1)


@pytest.mark.parametrize(
    "row, message",
    [
        ("pie\tpastry\twordnet_hyponym\tnoun", "'pastry' is not a valid NatureNodeId"),
        ("pie\tfood\twordnet\tnoun", "'wordnet' is not a valid BeliefSource"),
        ("pie\tfood\twordnet_hyponym\tNoun", "'Noun' is not a valid PosClass"),
    ],
)
def test_lexicon_rejects_an_unknown_value_at_its_line(row, message):
    with pytest.raises(InputFileError) as exc:
        loads_lexicon(f"#mea-lexicon v1\nmeatball\tfood\twordnet_hyponym\tnoun\n{row}\n", origin="lex.tsv")
    assert str(exc.value) == f"lex.tsv:3: {message}"


def test_sense_file_rejects_an_unknown_pos_class_at_its_line(tmp_path):
    path = tmp_path / "senses.tsv"
    path.write_text("# lemma\tpos\ntasty\tadjective\t0.8\t0.0\ts1\nfast\tadverb\t0.8\t0.0\ts2\n", encoding="utf-8")
    with pytest.raises(InputFileError) as exc:
        parse_sense_file(path)
    assert str(exc.value) == f"{path}:3: 'adverb' is not a valid PosClass"


def test_emotion_file_rejects_an_unknown_pos_class_at_its_line(tmp_path):
    path = tmp_path / "emotions.tsv"
    path.write_text("cheerful\tJoy\tadjective\tbase\nblissful\tJoy\tadverb\tbase\n", encoding="utf-8")
    with pytest.raises(InputFileError) as exc:
        parse_emotion_file(path)
    assert str(exc.value) == f"{path}:2: 'adverb' is not a valid PosClass"


@pytest.mark.parametrize(
    "rows, message",
    [
        (  # two duplicated words: the first in word order is reported, not the first in the file
            ["zest\temo_pos\temotion_base\tverb", "zest\temo_pos\temotion_extension\tadjective",
             "apple\tfood\twordnet_hyponym\tnoun", "apple\tfood\tsentiwordnet\tnoun"],
            "duplicate lexicon entry for ('apple', food)",
        ),
        (  # two conflicting words
            ["zest\temo_pos\temotion_base\tverb", "zest\temo_neg\temotion_base\tverb",
             "odd\texperience_feeling_pos\tsentiwordnet\tadjective", "odd\texperience_feeling_neg\tsentiwordnet\tadjective"],
            "'odd' maps to both experience_feeling_pos and experience_feeling_neg",
        ),
        (  # any duplicate is reported before any conflict
            ["apple\temo_pos\temotion_base\tverb", "apple\temo_neg\temotion_base\tverb",
             "zest\tfood\twordnet_hyponym\tnoun", "zest\tfood\tsentiwordnet\tnoun"],
            "duplicate lexicon entry for ('zest', food)",
        ),
        (  # within a word, the first duplicated node by value
            ["pie\tfood\twordnet_hyponym\tnoun", "pie\tfood\tsentiwordnet\tnoun",
             "pie\temo_pos\temotion_base\tverb", "pie\temo_pos\temotion_extension\tverb"],
            "duplicate lexicon entry for ('pie', emo_pos)",
        ),
        (  # within a word, the emotion family before the feeling family
            ["odd\texperience_feeling_pos\tsentiwordnet\tadjective", "odd\texperience_feeling_neg\tsentiwordnet\tadjective",
             "odd\temo_pos\temotion_base\tverb", "odd\temo_neg\temotion_base\tverb"],
            "'odd' maps to both emo_pos and emo_neg",
        ),
    ],
)
def test_lexicon_reports_the_first_duplicate_or_conflict_at_line_0(rows, message):
    with pytest.raises(InputFileError) as exc:
        loads_lexicon("#mea-lexicon v1\n" + "\n".join(rows) + "\n", origin="lex.tsv")
    assert str(exc.value) == f"lex.tsv:0: {message}"


def test_bundled_lexicon_loads(data_dir, lexicon):
    assert len(lexicon) == 21
    round_tripped = loads_lexicon(dumps_lexicon(lexicon))
    assert round_tripped == lexicon


@st.composite
def lexicons(draw):
    words = draw(st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=6), min_size=0, max_size=12, unique=True))
    tuples = []
    for word in words:
        node = draw(st.sampled_from(sorted(PERCEPTION, key=lambda n: n.value)))
        if node is N.FOOD:
            tuples.append(food(word))
        else:
            pos_class = draw(st.sampled_from([PosClass.ADJECTIVE, PosClass.VERB]))
            source = draw(st.sampled_from([BeliefSource.SENTIWORDNET, BeliefSource.EMOTION_BASE]))
            tuples.append(BeliefTuple(word, node, source, pos_class))
    return BeliefLexicon(tuples)


@given(lexicons())
@settings(max_examples=60)
def test_round_trip_is_identity(lex):
    assert loads_lexicon(dumps_lexicon(lex)) == lex


@given(lexicons())
@settings(max_examples=30)
def test_serialization_is_deterministic(lex):
    assert dumps_lexicon(lex) == dumps_lexicon(lex)


# Every (source, pos_class) a tuple of each perception node may carry.
ENTRY_KINDS = {
    node: [(s, p) for s in BeliefSource for p in PosClass
           if s is not BeliefSource.WORDNET_HYPONYM or (node is N.FOOD and p is PosClass.NOUN)]
    for node in PERCEPTION
}


@st.composite
def valid_tuple_lists(draw):
    """The tuples of a valid lexicon in a drawn order, some repeated: per word, food
    or not, and at most one node of each polarity family."""
    words = draw(st.lists(st.text(alphabet="abcdefgß", min_size=1, max_size=4), max_size=12, unique=True))
    families = ((N.FOOD, None), (N.EMO_POS, N.EMO_NEG), (N.EXPERIENCE_FEELING_POS, N.EXPERIENCE_FEELING_NEG))
    tuples = []
    for word in words:
        for node in [draw(st.sampled_from((None, *family))) for family in families]:
            if node is not None:
                tuples.append(BeliefTuple(word, node, *draw(st.sampled_from(ENTRY_KINDS[node]))))
    repeats = draw(st.lists(st.sampled_from(tuples), max_size=3)) if tuples else []
    return draw(st.permutations(tuples + repeats))


@given(valid_tuple_lists(), st.text(alphabet="abcdefgAẞ", min_size=1, max_size=4))
@settings(max_examples=150)
def test_lexicon_index_matches_a_scan_of_its_tuples(tuples, probe):
    lex = BeliefLexicon(tuples)
    unique = set(tuples)
    assert len(lex) == len(unique)
    for word in {t.word for t in unique} | {probe}:
        for asked in (word, word.upper()):
            entries = [t for t in unique if t.word == asked.lower()]
            found = lex.lookup(asked)
            assert type(found) is set and found == {t.node for t in entries}
            found.add(N.ACTION_POS)  # a new set each call: changing it changes no later answer
            assert lex.lookup(asked) == {t.node for t in entries}
            assert lex.tuples_for(asked) == tuple(sorted(entries, key=lambda t: (t.node.value, t.source.value)))
    ordered = sorted(unique, key=lambda t: (t.word, t.node.value))
    assert list(lex) == ordered
    rows = [f"{t.word}\t{t.node.value}\t{t.source.value}\t{t.pos_class.value}\n" for t in ordered]
    assert dumps_lexicon(lex) == "#mea-lexicon v1\n" + "".join(rows)
    assert loads_lexicon(dumps_lexicon(lex)) == lex


@st.composite
def sense_records(draw):
    lemma = draw(st.sampled_from(["able", "brave", "cold", "dull", "eager"]))
    pos_eighths = draw(st.integers(min_value=0, max_value=8))
    neg_eighths = draw(st.integers(min_value=0, max_value=8 - pos_eighths))
    return adj_sense(lemma, pos=pos_eighths / 8, neg=neg_eighths / 8, sid="s")


@given(st.lists(sense_records(), max_size=20))
@settings(max_examples=60)
def test_feeling_outputs_are_disjoint_and_typed(senses):
    pos, neg = compile_feeling_lexicon(senses)
    assert {t.word for t in pos}.isdisjoint({t.word for t in neg})
    assert all(t.node in PERCEPTION for t in pos | neg)


def test_round_trip_from_disk(tmp_path, lexicon):
    path = tmp_path / "lexicon.tsv"
    path.write_text(dumps_lexicon(lexicon), encoding="utf-8")
    assert load_lexicon(path) == lexicon
