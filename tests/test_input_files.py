"""Every input file reader either returns or raises `InputFileError`, whatever the bytes."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mea import InputFileError
from mea.belief import (
    TaxonomyCycleError,
    compile_food_lexicon,
    load_lexicon,
    load_word_list,
    parse_emotion_file,
    parse_sense_file,
)
from mea.extraction import parse_conllu
from mea.llm import ClientConfig, ClientMode, LlmClient
from mea.nature import load_graph_file
from mea.runner import ingest_reviews

# reader name -> (read the file at a path, the errors besides InputFileError it may raise)
READERS = {
    "parse_conllu": (parse_conllu, ()),
    "load_graph_file": (load_graph_file, ()),
    # a well-formed dump whose hyponym taxonomy is cyclic
    "compile_food_lexicon": (compile_food_lexicon, (TaxonomyCycleError,)),
    "load_lexicon": (load_lexicon, ()),
    "parse_sense_file": (parse_sense_file, ()),
    "parse_emotion_file": (parse_emotion_file, ()),
    "load_word_list": (load_word_list, ()),
    "cache_or_fixture": (lambda path: LlmClient(ClientConfig(mode=ClientMode.REPLAY, fixture_path=path)), ()),
    "reviews_snap": (lambda path: ingest_reviews(path, "snap", []), ()),
    "reviews_csv": (lambda path: ingest_reviews(path, "csv", []), ()),
}

# Pieces of every format, so that examples reach past the first line.
_PIECES = st.sampled_from(
    [
        b"\n", b"\r", b"\t", b"#", b"_", b" ", b",", b'"', b"0", b"1", b"0.7", b"-1",
        b"\xff", b"\xc3", b"\xe2\x80\xa8",
        b"#mea-lexicon v1\n", b"food", b"food.n.01", b"meal.n.01", b"noun", b"adjective", b"verb",
        b"food\tfood\twordnet_hyponym\tnoun\n", b"emo_pos", b"need_food_pos", b"action_pos",
        b"Joy", b"Anger", b"base", b"extension",
        b"1\tI\ti\tPRON\tPRP\t_\t2\tnsubj\t_\t_\n", b"# review_id = r\n",
        b"Id,Text\n", b"review/text: ", b"[", b"]", b"{", b"}", b":",
        b'{"key": "k", "template": "classify_action", "input": "I eat", "model": "m", '
        b'"raw_response": "mental", "parsed_label": "mental", "timestamp": 0}',
    ]
)


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=100, deadline=None)
# Each reaches a reader's own raise, past read_text and split_fields: a parse, a graph and a cache line.
@example(data=b"1\tI\ti\tPRON\tPRP\t_\t0\troot\t_\t_\n")
@example(data=b"food\tfood\t1\n")
@example(data=b"[]\n")
@given(data=st.lists(st.one_of(_PIECES, st.binary(max_size=8)), max_size=30).map(b"".join))
def test_reader_raises_only_its_own_error_on_arbitrary_bytes(tmp_path_factory, name, data):
    read, others = READERS[name]
    path = tmp_path_factory.getbasetemp() / f"arbitrary-{name}"
    path.write_bytes(data)
    try:
        read(path)
    except InputFileError as exc:
        assert type(exc) is InputFileError  # every file-format fault is this one type, never a subclass
    except others as exc:
        assert type(exc) in others  # e.g. a ValueError, but never a UnicodeError
