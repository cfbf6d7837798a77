"""Seeded input generators and the outputs each input must produce.

Every input is derived from the fixtures under ``tests/data``; the same seed
always gives byte-identical files. Each generator returns the expected
outputs it planted, so that the run can check every output it gets back.
"""

from __future__ import annotations

import csv
import json
import random
import string
from dataclasses import dataclass
from pathlib import Path

from mea.llm import cache_key, heuristic_classifier

MODEL = "glm-4"  # the default model name; replay keys and live cache keys use it

# Surface forms that a pipeline rule reads, or that must keep their meaning:
# negation, first-person pronouns and everything the heuristic classifier keys on.
_FIRST_PERSON = frozenset({"i", "we", "me", "my", "us", "our", "ours", "mine", "myself", "ourselves"})
_NEGATION = frozenset({"not", "n't"})
# Parse tags whose surface form no rule reads (rules read lemmas and tags).
_RENAMABLE_TAGS = frozenset({"NN", "NNS", "NNP", "NNPS", "JJ", "JJR", "JJS", "DT", "CD", "PRP"})
_SUFFIX_LETTERS = 5


def _suffix(serial: int) -> str:
    """A fixed-length lowercase suffix, distinct for each serial below 26**5."""
    letters = []
    for _ in range(_SUFFIX_LETTERS):
        serial, digit = divmod(serial, 26)
        letters.append(string.ascii_lowercase[digit])
    return "".join(letters)


# --- review corpus (graphs, classify) ---------------------------------------


@dataclass
class SourceReview:
    """One gold review: its parse rows, its gold graph and the texts it classifies."""

    review_id: str
    sentences: list[list[list[str]]]  # sentence -> token rows -> 10 CoNLL-U fields
    gold: dict
    classified: list[str]  # event texts the classifier is asked about, in order
    renamable: frozenset[str]  # surface forms safe to rename

    def renamed(self, suffix: str) -> dict[str, str]:
        return {s: s + suffix for s in self.renamable}


def _read_conllu_rows(path: Path) -> list[list[list[str]]]:
    sentences: list[list[list[str]]] = []
    rows: list[list[str]] = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        if not raw.strip():
            if rows:
                sentences.append(rows)
                rows = []
        elif not raw.startswith("#"):
            rows.append(raw.split("\t"))
    if rows:
        sentences.append(rows)
    return sentences


def _renamable_surfaces(sentences: list[list[list[str]]]) -> frozenset[str]:
    eligible: dict[str, bool] = {}
    for rows in sentences:
        for fields in rows:
            surface, lemma, tag, deprel = fields[1], fields[2].lower(), fields[4], fields[7]
            ok = (
                tag in _RENAMABLE_TAGS
                and deprel != "punct"
                and lemma not in _FIRST_PERSON | _NEGATION
                and surface.lower() not in _FIRST_PERSON | _NEGATION
            )
            # A surface is renamed only when every occurrence in the review may be.
            eligible[surface] = eligible.get(surface, True) and ok
    return frozenset(s for s, ok in eligible.items() if ok)


def load_sources(data: Path) -> list[SourceReview]:
    """The 20 gold reviews with their parses and classified event texts."""
    with open(data / "corpus" / "reviews.csv", newline="", encoding="utf-8") as fh:
        ids = [row["Id"] for row in csv.DictReader(fh)]
    sources = []
    for review_id in ids:
        sentences = _read_conllu_rows(data / "corpus" / "parses" / f"{review_id}.conllu")
        gold = json.loads((data / "corpus" / "gold" / f"{review_id}.json").read_text(encoding="utf-8"))
        texts = {e["id"]: e["text"] for e in gold["events"]}
        classified_ids = {l["event_id"] for l in gold["links"] if l["justification"]["type"] == "action_class"}
        classified_ids |= set(gold["unlinked_events"])
        classified = [texts[e["id"]] for e in gold["events"] if e["id"] in classified_ids]
        sources.append(SourceReview(review_id, sentences, gold, classified, _renamable_surfaces(sentences)))
    return sources


def load_source_labels(data: Path) -> dict[str, str]:
    """Classifier labels recorded for the gold texts, keyed by input text."""
    labels = {}
    for raw in (data / "replay_classifier.jsonl").read_text(encoding="utf-8").splitlines():
        if raw.strip():
            doc = json.loads(raw)
            if doc["template"] == "classify_action":
                labels[doc["input"]] = doc["parsed_label"]
    return labels


def _rename_text(text: str, mapping: dict[str, str]) -> str:
    # Event text is the surfaces of its tokens joined by single spaces.
    return " ".join(mapping.get(word, word) for word in text.split(" "))


def _expected_stats(graphs: list[dict]) -> dict:
    patterns = ("P1", "P2", "P3", "P4", "P5", "P6", "P7", "P8", "P9", "P10", "STATE")
    stats = {
        "total_reviews": len(graphs),
        "reviews_with_events": 0,
        "valid_dags": 0,
        "invalid_both_needs": 0,
        "invalid_no_need": 0,
        "failed_reviews": 0,
        "pattern_counts": {p: 0 for p in patterns},
        "classifier_calls": 0,
    }
    for g in graphs:
        if not g["events"]:
            continue
        stats["reviews_with_events"] += 1
        for e in g["events"]:
            stats["pattern_counts"][e["pattern_id"]] += 1
        both = "need_food_pos" in g["activated"] and "need_food_neg" in g["activated"]
        if g["valid"]:
            stats["valid_dags"] += 1
        elif both:
            stats["invalid_both_needs"] += 1
        else:
            stats["invalid_no_need"] += 1
        stats["classifier_calls"] += sum(
            1 for l in g["links"] if l["justification"]["type"] == "action_class"
        ) + len(g["unlinked_events"])
    return stats


@dataclass
class Corpus:
    """Expected outputs of one generated review corpus."""

    graphs: dict[str, dict]  # review id -> expected graph JSON
    index: list[dict]  # expected index.json
    stats: dict  # expected stats.json, without classifier_cache_hits
    labels: dict[str, str]  # classified text -> label
    classified_texts: int  # classifier calls the corpus makes
    unique_texts: int  # distinct texts among them


def _fixture_line(template: str, text: str, label: str) -> str:
    entry = {
        "key": cache_key(template, text, MODEL),
        "template": template,
        "input": text,
        "model": MODEL,
        "raw_response": label,
        "parsed_label": label,
        "timestamp": 0.0,
    }
    return json.dumps(entry)


def write_corpus(
    data: Path, out: Path, seed: int, copies: int, renamed_share: float, filler_words: int
) -> Corpus:
    """Write reviews.csv, parses/, lexicon.tsv, replay.jsonl and labels.json under ``out``.

    Each of the 20 gold reviews is copied ``copies`` times. A fixed share of
    the copies of every source has its renamable surface forms suffixed, which
    makes those copies' texts unique; the rest repeat their source's texts.
    Review ids are assigned in a seeded order.
    """
    rng = random.Random(seed)
    sources = load_sources(data)
    source_labels = load_source_labels(data)
    total = copies * len(sources)
    ids = [str(i) for i in range(1, total + 1)]
    rng.shuffle(ids)
    suffix_base = rng.randrange(26**_SUFFIX_LETTERS)
    renamed_per_source = round(copies * renamed_share)

    parses = out / "parses"
    parses.mkdir(parents=True)
    graphs: dict[str, dict] = {}
    sentence_counts: dict[str, int] = {}
    labels: dict[str, str] = {}
    classified_texts = 0
    csv_rows = []
    serial = 0
    for source in sources:
        flags = [True] * renamed_per_source + [False] * (copies - renamed_per_source)
        rng.shuffle(flags)
        for renamed in flags:
            review_id = ids[serial]
            mapping = source.renamed(_suffix((suffix_base + serial) % 26**_SUFFIX_LETTERS)) if renamed else {}
            serial += 1
            lines = []
            words = []
            for rows in source.sentences:
                lines.append(f"# review_id = {review_id}")
                for fields in rows:
                    surface = mapping.get(fields[1], fields[1])
                    words.append(surface)
                    lines.append("\t".join([fields[0], surface, *fields[2:]]))
                lines.append("")
            (parses / f"{review_id}.conllu").write_text("\n".join(lines), encoding="utf-8")
            csv_rows.append((review_id, " ".join(words)))

            graph = json.loads(json.dumps(source.gold))
            graph["review_id"] = review_id
            for event in graph["events"]:
                event["text"] = _rename_text(event["text"], mapping)
            graphs[review_id] = graph
            sentence_counts[review_id] = len(source.sentences)
            for text in source.classified:
                new_text = _rename_text(text, mapping)
                if heuristic_classifier(new_text) != heuristic_classifier(text):
                    raise AssertionError(f"renaming changed what the heuristic reads: {text!r}")
                labels[new_text] = source_labels[text]
                classified_texts += 1

    csv_rows.sort(key=lambda r: int(r[0]))
    with open(out / "reviews.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Id", "Text"])
        writer.writerows(csv_rows)
    (out / "replay.jsonl").write_text(
        "".join(_fixture_line("classify_action", t, labels[t]) + "\n" for t in sorted(labels)), encoding="utf-8"
    )
    (out / "labels.json").write_text(json.dumps(labels, sort_keys=True), encoding="utf-8")
    _write_filler_lexicon(data, out / "lexicon.tsv", rng, filler_words, sources)

    ordered = [graphs[i] for i in sorted(graphs)]
    index = [
        {"review_id": g["review_id"], "sentence_count": sentence_counts[g["review_id"]], "valid": g["valid"]}
        for g in ordered
        if g["events"]
    ]
    return Corpus(graphs, index, _expected_stats(ordered), labels, classified_texts, len(labels))


_FILLER_NODES = (
    ("food", "wordnet_hyponym", "noun"),
    ("experience_feeling_pos", "sentiwordnet", "adjective"),
    ("experience_feeling_neg", "sentiwordnet", "adjective"),
    ("emo_pos", "emotion_base", "adjective"),
    ("emo_neg", "emotion_extension", "verb"),
)


def _write_filler_lexicon(
    data: Path, path: Path, rng: random.Random, count: int, sources: list[SourceReview]
) -> None:
    """The test lexicon plus ``count`` seeded entries that no corpus lemma matches."""
    lines = (data / "lexicon.tsv").read_text(encoding="utf-8").splitlines()
    header, entries = lines[0], [l for l in lines[1:] if l.strip()]
    taken = {l.split("\t")[0] for l in entries}
    taken |= {fields[2].lower() for s in sources for rows in s.sentences for fields in rows}
    added = 0
    while added < count:
        word = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(6, 11)))
        if word in taken:
            continue
        taken.add(word)
        entries.append("\t".join((word, *rng.choice(_FILLER_NODES))))
        added += 1
    entries.sort()
    path.write_text("\n".join([header, *entries]) + "\n", encoding="utf-8")


# --- lexicon dumps (lexicon) ------------------------------------------------

_SYLLABLES = tuple(c + v for c in "bcdfghjklmnprstvwz" for v in "aeiou") + ("ar", "el", "in", "on", "us")
_MAX_DEPTH = 18  # longest hypernym path in WordNet's noun taxonomy is under 20


def _word_pool(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    """``count`` distinct lowercase lemmas, some multiword (underscore-joined)."""
    words: list[str] = []
    while len(words) < count:
        parts = ["".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4))) for _ in range(1 + (rng.random() < 0.05))]
        word = "_".join(parts)
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _norm(lemma: str) -> str:
    return lemma.replace("_", " ")


@dataclass
class LexiconInputs:
    """Expected output of one generated set of lexicon dumps."""

    expected_tsv: str  # the exact lexicon.tsv that compilation must write
    items: int  # data rows across the three dumps


def _write_wordnet(out: Path, rng: random.Random, taken: set[str]) -> tuple[set[str], int]:
    """A noun taxonomy of WordNet's size; returns the planted food words and the row count.

    Synsets are created in order and only ever get parents created before
    them, so the taxonomy is acyclic and every longest path is known at
    creation. Food synsets hang below ``food.n.01`` (and a small
    ``food.n.02``); no edge leads from a food synset to a non-food one.
    """
    general = _word_pool(rng, 70_000, taken)
    food_pool = _word_pool(rng, 4_000, taken)
    names: list[str] = []
    depth: list[int] = []
    sense_count: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    members: list[tuple[int, str]] = []

    def add(lemmas: list[str], parents: list[int]) -> int:
        first = lemmas[0]
        sense_count[first] = sense_count.get(first, 0) + 1
        names.append(f"{first}.n.{sense_count[first]:02d}")
        depth.append(max((depth[p] + 1 for p in parents), default=0))
        node = len(names) - 1
        edges.extend((p, node) for p in parents)
        members.extend((node, l) for l in lemmas)
        return node

    def lemmas_from(pool: list[str]) -> list[str]:
        return rng.sample(pool, rng.choices((1, 2, 3), weights=(60, 30, 10))[0])

    def pick_parents(candidates: range | list[int]) -> list[int]:
        while True:
            first = candidates[rng.randrange(len(candidates))]
            if depth[first] < _MAX_DEPTH:
                break
        parents = [first]
        if rng.random() < 0.02:  # multiple inheritance, as for about 2% of WordNet noun synsets
            second = candidates[rng.randrange(len(candidates))]
            if second != first and depth[second] < _MAX_DEPTH:
                parents.append(second)
        return parents

    add(["entity"], [])
    for _ in range(76_000):
        add(lemmas_from(general), pick_parents(range(len(names))))
    shallow = [n for n in range(len(names)) if depth[n] <= 4]
    food_nodes = [add(["food", "nutrient"], [rng.choice(shallow)])]
    for _ in range(3_000):
        food_nodes.append(add(lemmas_from(food_pool), pick_parents(food_nodes)))
    food_nodes.append(add(["food", "intellectual_nourishment"], [rng.choice(shallow)]))
    for _ in range(5):
        food_nodes.append(add(lemmas_from(food_pool), [food_nodes[-1]]))

    lines = [f"{names[p]}\t{names[c]}" for p, c in edges] + [f"{names[n]}\t{l}" for n, l in members]
    rng.shuffle(lines)
    (out / "wordnet.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    food_set = set(food_nodes)
    food_words = {_norm(l) for n, l in members if n in food_set}
    return food_words, len(lines)


def _scores(rng: random.Random, kind: str) -> tuple[float, float]:
    """SentiWordNet-style scores (multiples of 1/8, or the 0.6 threshold itself)."""
    if kind == "pos":
        pos = rng.choice((0.625, 0.75, 0.875, 1.0))
        return pos, rng.choice([x / 8 for x in range(9) if x / 8 <= 1 - pos])
    if kind == "neg":
        neg, pos = _scores(rng, "pos")
        return pos, neg
    pos = rng.choice((0.0, 0.0, 0.125, 0.25, 0.375, 0.5, 0.6))
    return pos, rng.choice([x for x in (0.0, 0.125, 0.25, 0.375, 0.5, 0.6) if pos + x <= 1.0])


def _write_senti(out: Path, rng: random.Random, taken: set[str]) -> tuple[set[str], set[str], int]:
    """120k scored senses; returns the planted positive and negative feeling words."""
    adjectives = _word_pool(rng, 20_000, taken)
    others = _word_pool(rng, 40_000, taken)
    rows: list[tuple[str, str, float, float]] = []
    pos_words: set[str] = set()
    neg_words: set[str] = set()
    for lemma in adjectives:
        planted = rng.choices(("pos", "neg", "both", "none"), weights=(15, 15, 3, 67))[0]
        kinds = {"pos": ["pos"], "neg": ["neg"], "both": ["pos", "neg"], "none": []}[planted]
        kinds += ["other"] * rng.choices((0, 1, 2), weights=(45, 35, 20))[0]
        if not kinds:
            kinds = ["other"]
        for kind in kinds:
            rows.append((lemma, "adjective", *_scores(rng, kind)))
        if planted == "pos":
            pos_words.add(_norm(lemma))
        elif planted == "neg":
            neg_words.add(_norm(lemma))
    while len(rows) < 120_000:  # nouns and verbs: parsed, never compiled, whatever their scores
        pos = rng.choice((0.0, 0.25, 0.5, 0.75))
        rows.append((rng.choice(others), rng.choice(("noun", "verb")), pos, rng.choice((0.0, 1 - pos))))
    rng.shuffle(rows)
    sense_ids: dict[str, int] = {}
    lines = ["# lemma\tpos_class\tpos_score\tneg_score\tsense_id"]
    for lemma, pos_class, p, n in rows:
        key = f"{lemma}.{pos_class[0]}"
        sense_ids[key] = sense_ids.get(key, 0) + 1
        lines.append(f"{lemma}\t{pos_class}\t{p}\t{n}\t{key}.{sense_ids[key]:02d}")
    (out / "senti.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return pos_words, neg_words, len(rows)


_POSITIVE = ("Joy", "Love")
_NEGATIVE = ("Anger", "Fear", "Sadness")


def _write_emotions(out: Path, rng: random.Random, taken: set[str]) -> tuple[dict[str, tuple[str, str, str]], int]:
    """7.5k emotion rows; returns word -> (node, source, pos_class) as planted.

    Most words occur once. Planted conflicts occur in a positive and a negative
    class and must be dropped; planted repeats occur twice as positive
    adjective extensions and must appear once.
    """
    words = _word_pool(rng, 7_500, taken)
    conflicts, repeats, singles = words[:60], words[60:120], words[120:]
    blocks: list[list[tuple[str, str, str, str]]] = []
    planted: dict[str, tuple[str, str, str]] = {}
    rows = 0
    it = iter(singles)
    for word in it:
        emotion = rng.choice(_POSITIVE + _NEGATIVE + ("Surprise",))
        block = []
        for kind in ["base"] + ["extension"] * rng.choices((0, 1, 2, 3), weights=(40, 30, 20, 10))[0]:
            if kind == "extension":
                word = next(it, None)
                if word is None:
                    break
            pos_class = rng.choices(("adjective", "verb", "noun"), weights=(50, 35, 15))[0]
            block.append((word, emotion, pos_class, kind))
            if pos_class != "noun" and emotion != "Surprise":
                node = "emo_pos" if emotion in _POSITIVE else "emo_neg"
                planted[_norm(word)] = (node, "emotion_base" if kind == "base" else "emotion_extension", pos_class)
        blocks.append(block)
        rows += len(block)
    positive = [b for b in blocks if b[0][1] in _POSITIVE]
    negative = [b for b in blocks if b[0][1] in _NEGATIVE]
    for word in conflicts:
        for block in (rng.choice(positive), rng.choice(negative)):
            block.append((word, block[0][1], rng.choice(("adjective", "verb")), "extension"))
            rows += 1
    for word in repeats:
        for block in rng.sample(positive, 2):
            block.append((word, block[0][1], "adjective", "extension"))
            rows += 1
        planted[_norm(word)] = ("emo_pos", "emotion_extension", "adjective")
    lines = ["# word\temotion_class\tpos_class\tkind"]
    lines += ["\t".join(row) for block in blocks for row in block]
    (out / "emotions.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return planted, rows


def write_lexicon_inputs(out: Path, seed: int) -> LexiconInputs:
    """Write wordnet.tsv, senti.tsv, emotions.tsv, exclusions.txt and filters.jsonl under ``out``."""
    rng = random.Random(seed)
    out.mkdir(parents=True)
    taken = {"food", "nutrient", "entity", "intellectual_nourishment"}
    food, wordnet_rows = _write_wordnet(out, rng, taken)
    feeling_pos, feeling_neg, senti_rows = _write_senti(out, rng, taken)
    emotions, emotion_rows = _write_emotions(out, rng, taken)

    excluded = {"mess", "intellectual nourishment"} | set(rng.sample(sorted(food), 25))
    (out / "exclusions.txt").write_text("# food words to drop\n" + "\n".join(sorted(excluded)) + "\n", encoding="utf-8")
    food -= excluded

    # Replay verdicts for every candidate the filters see; about one in ten is rejected.
    fixture: list[str] = []
    kept_neg, kept_emotion = set(), set()
    for template, candidates, kept in (
        ("filter_feeling_neg", feeling_neg, kept_neg),
        ("filter_emotion", emotions, kept_emotion),
    ):
        for word in sorted(candidates):
            label = "no" if rng.random() < 0.1 else "yes"
            if label == "yes":
                kept.add(word)
            fixture.append(_fixture_line(template, word, label))
    rng.shuffle(fixture)
    (out / "filters.jsonl").write_text("\n".join(fixture) + "\n", encoding="utf-8")

    entries = [(w, "food", "wordnet_hyponym", "noun") for w in food]
    entries += [(w, "experience_feeling_pos", "sentiwordnet", "adjective") for w in feeling_pos]
    entries += [(w, "experience_feeling_neg", "sentiwordnet", "adjective") for w in kept_neg]
    entries += [(w, *emotions[w]) for w in kept_emotion]
    entries.sort(key=lambda e: (e[0], e[1]))
    text = "#mea-lexicon v1\n" + "".join("\t".join(e) + "\n" for e in entries)
    return LexiconInputs(text, wordnet_rows + senti_rows + emotion_rows)
