"""Corpus handling: passages, QA pairs, tokenization, sentences, word statistics."""

from __future__ import annotations

import json
import os
import re
import sys
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from enum import Enum
from itertools import islice, repeat, takewhile
from pathlib import Path
from types import MappingProxyType
from typing import IO, Any, Iterable, Iterator, Mapping, Sequence

UNK = "<unk>"
EOS = "</s>"


class CorpusError(ValueError):
    """Raised for malformed corpus files or degenerate corpus content."""


class AnswerKind(Enum):
    """Expected shape of a gold answer."""

    ENTITY = "entity"
    SENTENCE = "sentence"
    SPAN = "span"


# One token per CJK character, otherwise runs of word characters; punctuation
# is dropped.  On ASCII text no CJK character can occur and the word
# characters are [a-zA-Z0-9_] under either flag, so _ASCII_TOKEN_RE finds
# the same runs with a simpler pattern.
_CJK = "㐀-鿿"
_TOKEN_RE = re.compile(rf"[{_CJK}]|[^\W{_CJK}]+")
_ASCII_TOKEN_RE = re.compile(r"\w+", re.ASCII)

# ASCII terminators end a sentence only before whitespace or end of text, so
# decimals like 3.14 stay intact.  Fullwidth terminators always end one.
_SENT_BOUNDARY = re.compile(r"[.!?]+(?=\s|$)|[。！？]+")


def tokenize(text: str) -> list[str]:
    """Lowercase *text* and split it into word tokens.

    Letter and digit runs become single tokens, every CJK character is its
    own token, and punctuation is dropped.  Text that is ASCII once
    lowercased (str.isascii is a flag check) takes the ASCII pattern.
    """
    lowered = text.lower()
    return (_ASCII_TOKEN_RE if lowered.isascii() else _TOKEN_RE).findall(lowered)


def split_sentences(text: str) -> list[str]:
    """Split *text* into sentences, keeping terminators attached.

    Text without any terminator is a single sentence.  Whitespace-only
    pieces are dropped, so blank input yields an empty list.
    """
    out: list[str] = []
    start = 0
    for match in _SENT_BOUNDARY.finditer(text):
        piece = text[start : match.end()].strip()
        if piece:
            out.append(piece)
        start = match.end()
    tail = text[start:].strip()
    if tail:
        out.append(tail)
    return out


@dataclass(frozen=True)
class Passage:
    """A retrievable unit of text."""

    id: str
    text: str
    source: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise CorpusError("passage id must be non-empty")
        if not self.text.strip():
            raise CorpusError(f"passage {self.id!r}: text must be non-empty")


@dataclass(frozen=True)
class QaPair:
    """A question with one or more acceptable gold answers, each with a word token."""

    id: str
    question: str
    answers: tuple[str, ...]
    format: AnswerKind

    def __post_init__(self) -> None:
        object.__setattr__(self, "answers", tuple(self.answers))
        if not self.id:
            raise CorpusError("qa pair id must be non-empty")
        if not self.question.strip():
            raise CorpusError(f"qa pair {self.id!r}: question must be non-empty")
        if not self.answers:
            raise CorpusError(f"qa pair {self.id!r}: needs at least one gold answer")
        for answer in self.answers:  # every metric compares word tokens
            if not tokenize(answer):
                raise CorpusError(f"qa pair {self.id!r}: gold answer {answer!r} has no word token")


@dataclass(frozen=True)
class TokenSeq:
    """Token ids paired with the text they were encoded from."""

    tokens: tuple[int, ...]
    text: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class CorpusStats:
    """Word-frequency statistics over an ingested corpus.

    Immutable once built, so instances are safe to share across threads.
    """

    sentence_count: int
    word_freq: Mapping[str, int]
    vocab_size: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "word_freq", MappingProxyType(dict(self.word_freq)))


class Vocabulary:
    """Word-to-id mapping with ``<unk>`` fixed at index 0 and ``</s>`` at 1."""

    def __init__(self, words: Sequence[str]):
        # The word list must already lead with the reserved tokens; use
        # from_words() or from_texts() to build one from raw material.
        if len(words) < 2 or words[0] != UNK or words[1] != EOS:
            raise ValueError(f"vocabulary must start with {UNK!r}, {EOS!r}")
        if len(set(words)) != len(words):
            raise ValueError("vocabulary words must be unique")
        self._words = list(words)
        self._ids = {w: i for i, w in enumerate(self._words)}

    @classmethod
    def from_words(cls, words: Iterable[str]) -> "Vocabulary":
        """Build a vocabulary from raw words; sorted so builds are deterministic."""
        return cls([UNK, EOS] + sorted(set(words) - {UNK, EOS}))

    @classmethod
    def from_texts(cls, texts: Iterable[str]) -> "Vocabulary":
        collected: set[str] = set()
        for text in texts:
            collected.update(tokenize(text))
        return cls.from_words(collected)

    @property
    def size(self) -> int:
        return len(self._words)

    @property
    def unk_id(self) -> int:
        return 0

    @property
    def eos_id(self) -> int:
        return 1

    def id(self, word: str) -> int:
        return self._ids.get(word, 0)

    def word(self, token_id: int) -> str:
        return self._words[token_id]

    def words(self) -> list[str]:
        """The full word list; list position equals token id."""
        return list(self._words)

    def ids(self, words: Iterable[str]) -> tuple[int, ...]:
        """Each word's id, 0 for out-of-vocabulary words."""
        return tuple(map(self._ids.get, words, repeat(0)))

    def encode(self, text: str) -> TokenSeq:
        """Tokenize *text* and map each word to its id (0 for out-of-vocabulary)."""
        return TokenSeq(self.ids(tokenize(text)), text)

    def decode(self, token_ids: Iterable[int]) -> str:
        """Inverse of encode() for known ids; words joined by single spaces."""
        return " ".join(self._words[i] for i in token_ids)


def _source(path: str | Path, line: int | None) -> str:
    """How messages name a file, or one line of it."""
    return f"{path}: line {line}" if line else str(path)


def parse_json_object(data: bytes, path: str | Path, line: int | None = None) -> dict:
    """The JSON object *data* holds, read from *path* (at *line* of a JSONL file).

    The one JSON reader of every input file, JSONL line and remote reply.
    Invalid UTF-8, invalid JSON, nesting too deep to parse, a \\u escape
    naming a lone surrogate (no output could encode it) and a value that is
    not an object raise CorpusError naming the file and the line.
    """
    try:
        text = data.decode("utf-8")
        value = json.loads(text)
        # Only a \u escape can put a lone surrogate in a string; a search for
        # one character is the fast way to rule it out.
        if "\\" in text and "\\u" in text:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeDecodeError:
        problem = "invalid UTF-8"
    except UnicodeEncodeError:
        problem = "a \\u escape names a lone surrogate"
    except RecursionError:
        problem = "JSON nested too deeply"
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        problem = f"invalid JSON ({getattr(exc, 'msg', exc)})"
    else:
        if isinstance(value, dict):
            return value
        problem = "expected a JSON object"
    raise CorpusError(f"{_source(path, line)}: {problem}")


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSONL file.

    Each line goes through parse_json_object, so a bad one raises
    CorpusError naming the file and the line.
    """
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isspace():
                yield lineno, parse_json_object(line, path, lineno)


# Field kinds, named as messages name them, and the values each accepts.  A
# bool is never an integer or a number, and a number must be finite.
STRING = "a string"
STRING_OR_NULL = "a string or null"
INTEGER = "an integer"
NUMBER = "a finite number"
STRINGS = "a list of strings"
_ACCEPTS = {
    STRING: lambda v: isinstance(v, str),
    STRING_OR_NULL: lambda v: v is None or isinstance(v, str),
    INTEGER: lambda v: isinstance(v, int) and not isinstance(v, bool),
    NUMBER: lambda v: (isinstance(v, (int, float)) and not isinstance(v, bool)
                       and abs(v) <= sys.float_info.max),  # not NaN, nor an int beyond a float
    STRINGS: lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
}


def check(value: Any, kind: str, key: str, path: str | Path, line: int | None = None) -> Any:
    """*value*, field *key* of the object read from *path* (at *line*), if it is of *kind*.

    A value of another kind raises CorpusError naming the file, the line
    and the field; callers pass obj.get(key), so a missing field reads as
    null.  A number comes back as a float.
    """
    if isinstance(value, str) and (kind is STRING or kind is STRING_OR_NULL):  # the usual case
        return value
    if not _ACCEPTS[kind](value):
        raise CorpusError(f"{_source(path, line)}: field {key!r} must be {kind}")
    return float(value) if kind is NUMBER else value


@contextmanager
def atomic_write(path: str | Path, mode: str = "w", **kwargs) -> Iterator[IO]:
    """Open a temporary file next to *path*; on success it replaces *path*.

    The temporary file lives in the same directory, so os.replace() is
    atomic: a failed or interrupted write leaves the previous file as it
    was and removes the temporary file.  Missing parent directories are
    created first, and a failed write removes those it created once they
    are empty again.
    """
    path = Path(path)
    created = list(takewhile(lambda folder: not folder.exists(), path.parents))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        for folder in created:  # innermost first
            with suppress(OSError):  # not empty: another writer still uses it
                folder.rmdir()
        raise


# json.dumps(record, sort_keys=True), without making an encoder per row.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True)


def write_rows(fh: IO[str], records: Iterable[dict]) -> None:
    """Write one sorted-key JSON object per line to *fh*: the one JSONL row format."""
    encode = _ROW_ENCODER.encode
    for record in records:
        fh.write(encode(record) + "\n")


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """write_rows to *path*, atomically (see atomic_write)."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        write_rows(fh, records)


def write_checkpoint_json(path: str | Path, payload: dict) -> None:
    """Write *payload* as compact sorted JSON, atomically (see atomic_write)."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def ingest_passages(path: str | Path) -> list[Passage]:
    """Load passages from a JSONL file of ``{"id", "text", "source"?}`` records.

    An empty file yields an empty list.  Malformed lines and duplicate ids
    raise CorpusError naming the offending line.
    """
    passages: list[Passage] = []
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path):
        pid = check(obj.get("id"), STRING, "id", path, lineno)
        text = check(obj.get("text"), STRING, "text", path, lineno)
        source = check(obj.get("source"), STRING_OR_NULL, "source", path, lineno)
        if pid in seen:
            raise CorpusError(f"{path}: line {lineno}: duplicate passage id {pid!r}")
        seen.add(pid)
        try:
            passages.append(Passage(pid, text, source))
        except CorpusError as exc:
            raise CorpusError(f"{path}: line {lineno}: {exc}") from exc
    return passages


def iter_qa_pairs(path: str | Path) -> Iterator[QaPair]:
    """Each QA pair of a JSONL file, read and checked one line at a time.

    Each record is ``{"id", "question", "answers": [...], "format"}`` where
    format is one of "entity", "sentence", "span".  A malformed line, a
    repeated id or a question with no word token raises CorpusError naming
    the line when the reader reaches it; only the ids read so far are kept,
    so a caller that takes the pairs a block at a time holds one block of
    them.
    """
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path):
        qid = check(obj.get("id"), STRING, "id", path, lineno)
        question = check(obj.get("question"), STRING, "question", path, lineno)
        answers = check(obj.get("answers"), STRINGS, "answers", path, lineno)
        fmt_raw = check(obj.get("format"), STRING, "format", path, lineno)
        try:
            fmt = AnswerKind(fmt_raw.lower())
        except ValueError:
            allowed = ", ".join(k.value for k in AnswerKind)
            raise CorpusError(
                f"{path}: line {lineno}: format {fmt_raw!r} not one of: {allowed}"
            ) from None
        if qid in seen:
            raise CorpusError(f"{path}: line {lineno}: duplicate qa pair id {qid!r}")
        seen.add(qid)
        try:
            pair = QaPair(qid, question, tuple(answers), fmt)
        except CorpusError as exc:
            raise CorpusError(f"{path}: line {lineno}: {exc}") from exc
        if not _TOKEN_RE.search(question.lower()):  # tokenize(question) is empty
            raise CorpusError(
                f"{path}: line {lineno}: qa pair {qid!r}: question {question!r} has no word token"
            )
        yield pair


def ingest_qa_pairs(path: str | Path) -> list[QaPair]:
    """Every QA pair of a JSONL file (see iter_qa_pairs)."""
    return list(iter_qa_pairs(path))


# Questions per block of genki answer and genki retrieve, and per
# generation.run_pipeline block: each distinct prompt, draft and scored
# text is encoded and decoded once per block, and genki answer holds one
# block's runs at a time.  On the answer benchmark world (2,000 questions,
# 2-core x86-64 VM) blocks of 128/256/512/1024 peaked at 36.2/36.4/36.9/37.6
# MB, and at 45.7/44.9/45.7/45.8 MB on a 20,000-question stream; times were
# within noise of each other.
ANSWER_BLOCK = 256


def answer_blocks(questions: Iterable[QaPair]) -> Iterator[list[QaPair]]:
    """*questions* in consecutive lists of ANSWER_BLOCK.

    An iterator is read one block at a time, as each block is asked for.
    """
    questions = iter(questions)
    while block := list(islice(questions, ANSWER_BLOCK)):
        yield block


def build_stats(passages: Sequence[Passage]) -> CorpusStats:
    """Segment every passage into sentences and count word frequencies.

    Raises CorpusError for an empty passage list or a corpus yielding no word
    tokens at all; both are degenerate for downstream frequency statistics.
    """
    if not passages:
        raise CorpusError("cannot build statistics over zero passages")
    freq: Counter[str] = Counter()
    sentence_count = 0
    for passage in passages:
        for sentence in split_sentences(passage.text):
            sentence_count += 1
            freq.update(tokenize(sentence))
    if not freq:
        raise CorpusError("corpus has no word tokens")
    return CorpusStats(sentence_count=sentence_count, word_freq=freq, vocab_size=len(freq))
