"""Corpus handling: passages, QA pairs, tokenization, sentences, word statistics."""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import IO, Iterable, Iterator, Mapping, Sequence

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
# is dropped.  normalize_text() must stay consistent with this.
_CJK = "㐀-鿿"
_TOKEN_RE = re.compile(rf"[{_CJK}]|[^\W{_CJK}]+")

# ASCII terminators end a sentence only before whitespace or end of text, so
# decimals like 3.14 stay intact.  Fullwidth terminators always end one.
_SENT_BOUNDARY = re.compile(r"[.!?]+(?=\s|$)|[。！？]+")


def tokenize(text: str) -> list[str]:
    """Lowercase *text* and split it into word tokens.

    Letter and digit runs become single tokens, every CJK character is its
    own token, and punctuation is dropped.
    """
    return _TOKEN_RE.findall(text.lower())


def normalize_text(text: str) -> str:
    """Canonical form of *text*: lowercased word tokens joined by single spaces.

    Idempotent; normalize_text(normalize_text(x)) == normalize_text(x).
    """
    return " ".join(tokenize(text))


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

    def encode(self, text: str) -> TokenSeq:
        """Tokenize *text* and map each word to its id (0 for out-of-vocabulary)."""
        return TokenSeq(tuple(self._ids.get(w, 0) for w in tokenize(text)), text)

    def decode(self, token_ids: Iterable[int]) -> str:
        """Inverse of encode() for known ids; words joined by single spaces."""
        return " ".join(self._words[i] for i in token_ids)


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line of a JSONL file.

    A line that is not valid UTF-8, not valid JSON, or not a JSON object,
    raises CorpusError naming the file and the line.
    """
    # surrogateescape turns each undecodable byte into a lone surrogate,
    # which valid UTF-8 never decodes to, so it marks the bad line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise CorpusError(f"{path}: line {lineno}: invalid UTF-8") from None
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise CorpusError(f"{path}: line {lineno}: expected a JSON object")
            yield lineno, obj


def read_checkpoint_json(path: str | Path) -> dict:
    """Parse a checkpoint file that must hold one JSON object; ValueError otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid checkpoint JSON ({exc.msg})") from exc
    except (UnicodeDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: not valid checkpoint JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: checkpoint must be a JSON object")
    return payload


def checkpoint_int(payload: dict, key: str, path: str | Path) -> int:
    """The integer field *key* of a checkpoint payload; ValueError otherwise."""
    value = payload[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{path}: checkpoint field {key!r} must be an integer, got {value!r}")
    return value


@contextmanager
def atomic_write(path: str | Path, mode: str = "w", **kwargs) -> Iterator[IO]:
    """Open a temporary file next to *path*; on success it replaces *path*.

    The temporary file lives in the same directory, so os.replace() is
    atomic: a failed or interrupted write leaves the previous file as it
    was and removes the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_checkpoint_json(path: str | Path, payload: dict) -> None:
    """Write *payload* as compact sorted JSON, atomically (see atomic_write)."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _require_str(obj: dict, key: str, path: str | Path, lineno: int) -> str:
    value = obj.get(key)
    if not isinstance(value, str):
        raise CorpusError(f"{path}: line {lineno}: field {key!r} must be a string")
    return value


def ingest_passages(path: str | Path) -> list[Passage]:
    """Load passages from a JSONL file of ``{"id", "text", "source"?}`` records.

    An empty file yields an empty list.  Malformed lines and duplicate ids
    raise CorpusError naming the offending line.
    """
    passages: list[Passage] = []
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path):
        pid = _require_str(obj, "id", path, lineno)
        text = _require_str(obj, "text", path, lineno)
        source = obj.get("source")
        if source is not None and not isinstance(source, str):
            raise CorpusError(f"{path}: line {lineno}: field 'source' must be a string")
        if pid in seen:
            raise CorpusError(f"{path}: line {lineno}: duplicate passage id {pid!r}")
        seen.add(pid)
        try:
            passages.append(Passage(pid, text, source))
        except CorpusError as exc:
            raise CorpusError(f"{path}: line {lineno}: {exc}") from exc
    return passages


def ingest_qa_pairs(path: str | Path) -> list[QaPair]:
    """Load QA pairs from a JSONL file.

    Each record is ``{"id", "question", "answers": [...], "format"}`` where
    format is one of "entity", "sentence", "span".
    """
    pairs: list[QaPair] = []
    seen: set[str] = set()
    for lineno, obj in read_jsonl(path):
        qid = _require_str(obj, "id", path, lineno)
        question = _require_str(obj, "question", path, lineno)
        raw_answers = obj.get("answers")
        if not isinstance(raw_answers, list) or not all(isinstance(a, str) for a in raw_answers):
            raise CorpusError(f"{path}: line {lineno}: field 'answers' must be a list of strings")
        fmt_raw = _require_str(obj, "format", path, lineno)
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
            pairs.append(QaPair(qid, question, tuple(raw_answers), fmt))
        except CorpusError as exc:
            raise CorpusError(f"{path}: line {lineno}: {exc}") from exc
    return pairs


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
