import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genki.corpus import (
    _TOKEN_RE,
    INTEGER,
    NUMBER,
    STRING,
    STRING_OR_NULL,
    STRINGS,
    AnswerKind,
    CorpusError,
    Passage,
    QaPair,
    TokenSeq,
    Vocabulary,
    build_stats,
    check,
    ingest_passages,
    ingest_qa_pairs,
    parse_json_object,
    split_sentences,
    tokenize,
)


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


class TestTokenize:
    def test_lowercases_and_drops_punctuation(self):
        assert tokenize("The CAT, sat!") == ["the", "cat", "sat"]

    def test_cjk_characters_become_single_tokens(self):
        assert tokenize("我爱NLP") == ["我", "爱", "nlp"]

    def test_empty_and_punctuation_only(self):
        assert tokenize("") == []
        assert tokenize("... !?") == []

    def test_roundtrip_on_ascii_fixture(self):
        # normalized text re-tokenizes to the same stream
        text = "a quick Brown fox: jumps, twice."
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens

    def test_text_that_lowercases_to_ascii_takes_the_ascii_path(self):
        # U+212A KELVIN SIGN lowercases to ASCII k; U+0130 to i and a
        # combining dot, which is no word character
        assert tokenize("\u212aelvin 2.5") == ["kelvin", "2", "5"]
        assert tokenize("\u0130stanbul") == ["i", "stanbul"]

    # Texts ASCII and not: the KELVIN SIGN, dotted capital I, sigma beside
    # letters, punctuation and spaces, both ends of the CJK range, combining
    # marks, NBSP and other Unicode spaces.
    SPECIAL = ["\u212a", "\u0130", "\u03a3", "\u0391\u03a3", "\u03a3.", "a\u03a3b",
               "\u03a3 ", "'\u03a3", "\u3400", "\u9fff", "\u33ff", "\ua000", "\u0301",
               "e\u0301", "\u00a0", "\u2009", "\u00df", "\u01c5", "_", "3.14", " ", ".", "!?"]

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(SPECIAL), st.text(max_size=6),
                              st.text("abcXYZ019_ .,:'-\t\n", max_size=8)),
                    max_size=10).map("".join))
    def test_equals_the_unicode_pattern(self, text):
        # the reference: the one pattern over every lowercased text
        assert tokenize(text) == _TOKEN_RE.findall(text.lower())


class TestSplitSentences:
    def test_two_terminal_periods(self):
        assert split_sentences("A b. C d.") == ["A b.", "C d."]

    def test_no_terminal_punctuation(self):
        assert split_sentences("no terminal punctuation") == ["no terminal punctuation"]

    def test_mixed_terminators(self):
        assert len(split_sentences("Q? Yes! Ok.")) == 3

    def test_cjk_terminators(self):
        assert split_sentences("你好。再见。") == ["你好。", "再见。"]

    def test_no_empty_sentences(self):
        for text in ["", "   ", "a. b? c!", "!!", "x"]:
            assert all(s.strip() for s in split_sentences(text))

    def test_coverage_of_input_words(self):
        text = "First one. Second one! Third?"
        joined = " ".join(split_sentences(text))
        assert tokenize(joined) == tokenize(text)


class TestParseJsonObject:
    def test_object(self):
        assert parse_json_object('{"a": ["\\ud83d\\ude00", 1]}'.encode(), "f.json") == {"a": ["😀", 1]}

    @pytest.mark.parametrize("data, problem", [
        (b'{"a": "\xff"}', "invalid UTF-8"),
        (b'{"a": }', "invalid JSON (Expecting value)"),
        (b"[" * 100_000, "JSON nested too deeply"),
        (b'{"a": "x\\ud800"}', "a \\u escape names a lone surrogate"),
        (b'{"\\udc00": 1}', "a \\u escape names a lone surrogate"),
        (b"[1, 2]", "expected a JSON object"),
        (b'{"n": 1' + b"0" * 5000 + b"}", "invalid JSON (Exceeds the limit (4300 digits)"),
    ])
    def test_rejected_naming_file_and_line(self, data, problem):
        with pytest.raises(CorpusError) as info:
            parse_json_object(data, "f.jsonl", 7)
        assert str(info.value).startswith(f"f.jsonl: line 7: {problem}")
        with pytest.raises(CorpusError, match=r"^f\.json: "):
            parse_json_object(data, "f.json")


class TestCheck:
    @pytest.mark.parametrize("kind, accepted, rejected", [
        (STRING, ["", "x"], [None, 1, True, ["x"]]),
        (STRING_OR_NULL, [None, "x"], [1, False, ["x"]]),
        (INTEGER, [0, -3, 10**400], [True, 1.0, "1", None]),
        (NUMBER, [0, -2.5, 1e308, 2**1023],
         [True, float("nan"), float("inf"), float("-inf"), 10**400, "1", None]),
        (STRINGS, [[], ["a", "b"]], [["a", 1], "ab", None, ("a",)]),
    ])
    def test_kinds(self, kind, accepted, rejected):
        for value in accepted:
            assert check(value, kind, "f", "x.json") == value
        for value in rejected:
            with pytest.raises(CorpusError) as info:
                check(value, kind, "f", "x.jsonl", 3)
            assert str(info.value) == f"x.jsonl: line 3: field 'f' must be {kind}"

    def test_number_comes_back_as_a_float(self):
        value = check(2, NUMBER, "lambda1", "x.json")
        assert value == 2.0 and isinstance(value, float)


class TestIngestPassages:
    def test_two_valid_rows(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "p1", "text": "a."}, {"id": "p2", "text": "b."}])
        passages = ingest_passages(path)
        assert [p.id for p in passages] == ["p1", "p2"]
        assert passages[0].source is None

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "p1", "text": "a."}, {"id": "p1", "text": "b."}])
        with pytest.raises(CorpusError, match="p1"):
            ingest_passages(path)

    def test_empty_file_is_empty_list(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        assert ingest_passages(path) == []

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "p1", "text": "a."}\nnot json\n')
        with pytest.raises(CorpusError, match="line 2"):
            ingest_passages(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "p1"}])
        with pytest.raises(CorpusError, match="text"):
            ingest_passages(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "p1", "text": "a."}\n\n{"id": "p2", "text": "b."}\n')
        assert len(ingest_passages(path)) == 2

    def test_source_field_kept(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "p1", "text": "a.", "source": "wiki"}])
        assert ingest_passages(path)[0].source == "wiki"


class TestIngestQaPairs:
    def test_valid_row(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        write_jsonl(path, [{"id": "q1", "question": "who?", "answers": ["x"], "format": "entity"}])
        (qa,) = ingest_qa_pairs(path)
        assert qa.answers == ("x",)
        assert qa.format is AnswerKind.ENTITY

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        write_jsonl(path, [{"id": "q1", "question": "who?", "answers": ["x"], "format": "poem"}])
        with pytest.raises(CorpusError, match="poem"):
            ingest_qa_pairs(path)

    def test_empty_answer_list_rejected(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        write_jsonl(path, [{"id": "q1", "question": "who?", "answers": [], "format": "span"}])
        with pytest.raises(CorpusError):
            ingest_qa_pairs(path)

    def test_duplicate_qa_id_rejected(self, tmp_path):
        path = tmp_path / "qa.jsonl"
        row = {"id": "q1", "question": "who?", "answers": ["x"], "format": "span"}
        write_jsonl(path, [row, row])
        with pytest.raises(CorpusError, match="q1"):
            ingest_qa_pairs(path)


class TestBuildStats:
    def test_hand_counts(self):
        stats = build_stats([Passage("p1", "a a b.")])
        assert stats.sentence_count == 1
        assert stats.word_freq["a"] == 2
        assert stats.word_freq["b"] == 1

    def test_ten_sentence_fixture(self):
        # ten one-sentence passages, the word "w" in two of them
        passages = [Passage(f"p{i}", "w filler." if i < 2 else "other filler.") for i in range(10)]
        stats = build_stats(passages)
        assert stats.sentence_count == 10
        assert stats.word_freq["w"] == 2

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorpusError):
            build_stats([])

    def test_no_tokens_rejected(self):
        with pytest.raises(CorpusError):
            build_stats([Passage("p1", "... !!")])

    def test_order_invariance(self):
        passages = [Passage(f"p{i}", f"word{i} shared. tail{i}!") for i in range(6)]
        base = build_stats(passages)
        rng = random.Random(7)
        for _ in range(10):
            shuffled = passages[:]
            rng.shuffle(shuffled)
            stats = build_stats(shuffled)
            assert stats.sentence_count == base.sentence_count
            assert dict(stats.word_freq) == dict(base.word_freq)

    def test_additive_under_concatenation(self):
        left = [Passage("p1", "a b. c."), Passage("p2", "a!")]
        right = [Passage("p3", "b b?")]
        whole = build_stats(left + right)
        part_l, part_r = build_stats(left), build_stats(right)
        assert whole.sentence_count == part_l.sentence_count + part_r.sentence_count
        for word in whole.word_freq:
            assert whole.word_freq[word] == part_l.word_freq.get(word, 0) + part_r.word_freq.get(word, 0)


class TestVocabulary:
    def test_reserved_ids(self):
        vocab = Vocabulary.from_texts(["b a"])
        assert vocab.unk_id == 0
        assert vocab.eos_id == 1
        assert vocab.size >= 4

    def test_from_texts_deterministic(self):
        a = Vocabulary.from_texts(["z y", "x y"])
        b = Vocabulary.from_texts(["x y", "z y"])
        assert a.words() == b.words()

    def test_encode_decode(self):
        vocab = Vocabulary.from_texts(["the cat sat"])
        seq = vocab.encode("the cat")
        assert isinstance(seq, TokenSeq)
        assert vocab.decode(seq.tokens) == "the cat"

    def test_oov_maps_to_unk(self):
        vocab = Vocabulary.from_texts(["known words"])
        seq = vocab.encode("unknown known")
        assert seq.tokens[0] == vocab.unk_id

    def test_rejects_missing_reserved_words(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "b"])


class TestDataclassValidation:
    def test_passage_requires_nonblank(self):
        with pytest.raises(ValueError):
            Passage("", "text")
        with pytest.raises(ValueError):
            Passage("p1", "   ")

    def test_qa_pair_requires_answers(self):
        with pytest.raises(ValueError):
            QaPair("q1", "who?", (), AnswerKind.ENTITY)

    @pytest.mark.parametrize("answer", ["", "   ", "!!!", "?!. ,"])
    def test_qa_pair_gold_answer_needs_a_word_token(self, answer):
        with pytest.raises(ValueError, match="has no word token"):
            QaPair("q1", "who?", ("paris", answer), AnswerKind.ENTITY)
