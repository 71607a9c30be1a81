"""Answer metrics (EM, Recall, F1, BLEU, ROUGE-L), retrieval quality, trend fits.

Text metrics work on the word tokens of corpus.tokenize (lowercased,
punctuation dropped) and take the best value over the gold answers.  Exact
match uses the usual QA normalization instead: lowercase, collapsed
whitespace, English articles and terminal punctuation dropped.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import _CJK, QaPair, tokenize

_ARTICLES = {"a", "an", "the"}
_TERMINAL_PUNCT = re.compile(r"[.!?。！？\s]+$")
# The space between two CJK characters: Vocabulary.decode and the format
# step put one between every pair of tokens, and CJK text has none.
_CJK_GAP = re.compile(rf"(?<=[{_CJK}]) (?=[{_CJK}])")


def normalize_answer(text: str) -> str:
    """QA exact-match normalization.

    Lowercase, strip outer whitespace, drop terminal punctuation, drop the
    articles a/an/the, collapse inner whitespace, and drop the whitespace
    between two CJK characters (it stays between CJK and other words), so
    a decoded CJK answer such as "東 京" matches its gold "東京".
    """
    lowered = _TERMINAL_PUNCT.sub("", text.lower().strip())
    return _CJK_GAP.sub("", " ".join(w for w in lowered.split() if w not in _ARTICLES))


def exact_match(gold: Sequence[str], hyp: str) -> float:
    """1.0 when the normalized hypothesis equals any normalized gold answer."""
    if not gold:
        raise ValueError("gold answers must be non-empty")
    normalized = normalize_answer(hyp)
    return 1.0 if any(normalize_answer(g) == normalized for g in gold) else 0.0


def _best(gold: Sequence[str], hyp: str, score: Callable[[list[str], list[str]], float]) -> float:
    """The largest score(gold tokens, hypothesis tokens) over the gold answers.

    Golds with no word token are skipped; 0.0 when none is left.
    """
    if not gold:
        raise ValueError("gold answers must be non-empty")
    hyp_tokens = tokenize(hyp)
    return max((score(ref, hyp_tokens) for ref in map(tokenize, gold) if ref), default=0.0)


def _overlap(ref_tokens: list[str], hyp_tokens: list[str]) -> int:
    return sum((Counter(ref_tokens) & Counter(hyp_tokens)).values())


def _f_measure(match: int, ref_tokens: list[str], hyp_tokens: list[str]) -> float:
    """Harmonic mean of match/len(hyp) and match/len(ref); 0.0 without a match."""
    if match == 0:
        return 0.0
    precision = match / len(hyp_tokens)
    recall = match / len(ref_tokens)
    return 2 * precision * recall / (precision + recall)


def text_recall(gold: Sequence[str], hyp: str) -> float:
    """Largest fraction of any gold answer's tokens found in the hypothesis.

    Token counts intersect as multisets, so a hypothesis token only covers
    as many gold occurrences as it has itself.  Empty hypothesis scores 0.
    """
    return _best(gold, hyp, lambda r, h: _overlap(r, h) / len(r))


def text_f1(gold: Sequence[str], hyp: str) -> float:
    """Best token-level F1 (harmonic mean of precision and recall) over golds."""
    return _best(gold, hyp, lambda r, h: _f_measure(_overlap(r, h), r, h))


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _bleu_single(ref_tokens: list[str], hyp_tokens: list[str], n: int) -> float:
    c = len(hyp_tokens)
    r = len(ref_tokens)
    if c == 0:
        return 0.0
    log_precision_sum = 0.0
    for order in range(1, n + 1):
        hyp_ngrams = _ngram_counts(hyp_tokens, order)
        total = sum(hyp_ngrams.values())
        if total == 0:
            return 0.0  # hypothesis shorter than the order; no smoothing
        clipped = sum((hyp_ngrams & _ngram_counts(ref_tokens, order)).values())
        if clipped == 0:
            return 0.0
        log_precision_sum += math.log(clipped / total)
    brevity = 1.0 if c > r else math.exp(1.0 - r / c)
    return brevity * math.exp(log_precision_sum / n)


def bleu(refs: Sequence[str], hyp: str, n: int) -> float:
    """BLEU-n with brevity penalty and uniform 1..n weights, max over references.

    No smoothing: any zero n-gram precision zeroes the score.
    """
    if not 1 <= n <= 4:
        raise ValueError("n must be in 1..4")
    return _best(refs, hyp, partial(_bleu_single, n=n))


def _lcs_length(a: list[str], b: list[str]) -> int:
    # One-row DP; O(len(a) * len(b)) time, O(len(b)) space.
    row = [0] * (len(b) + 1)
    for x in a:
        prev_diag = 0
        for j, y in enumerate(b, start=1):
            prev_row = row[j]
            row[j] = prev_diag + 1 if x == y else max(row[j], row[j - 1])
            prev_diag = prev_row
    return row[len(b)]


def rouge_l(refs: Sequence[str], hyp: str) -> float:
    """ROUGE-L F-measure (beta=1) via longest common subsequence, max over refs."""
    return _best(refs, hyp, lambda r, h: _f_measure(_lcs_length(r, h), r, h))


# The answer metrics of genki eval, in report column order.
METRICS: dict[str, Callable[[Sequence[str], str], float]] = {
    "em": exact_match,
    "recall": text_recall,
    "f1": text_f1,
    **{f"bleu{n}": partial(bleu, n=n) for n in range(1, 5)},
    "rouge_l": rouge_l,
}


def _fold_plural(word: str) -> str:
    # "models" matches "model"; too-short words are left alone so "gas" or
    # "is" do not fold.
    if len(word) >= 4 and word.endswith("s") and not word.endswith("ss"):
        return word[:-1]
    return word


def retrieval_quality(gold: str, retrieved: Sequence[str]) -> float:
    """Fraction of the first gold-bearing passage's tokens that match the gold.

    Both sides compare case-insensitively with simple plural folding.  Each
    gold token earns credit at most once per occurrence (a repeated passage
    token cannot double-count), and the denominator is the full token count
    of that passage.  No passage containing any gold token scores 0.
    """
    gold_tokens = tokenize(gold)
    if not gold_tokens:
        raise ValueError("gold answer must contain at least one word token")
    gold_counts = Counter(_fold_plural(w) for w in gold_tokens)
    for passage in retrieved:
        passage_tokens = tokenize(passage)
        passage_counts = Counter(_fold_plural(w) for w in passage_tokens)
        matched = sum((gold_counts & passage_counts).values())
        if matched > 0:
            return matched / len(passage_tokens)
    return 0.0


@dataclass(frozen=True)
class LineFit:
    """One least-squares line with its coefficient of determination."""

    slope: float
    intercept: float
    r2: float


@dataclass(frozen=True)
class FitResult:
    """Two-regime linear fit plus the single-line fit for comparison."""

    segment1: LineFit
    segment2: LineFit
    breakpoint: float
    single: LineFit


def _ols(xs: np.ndarray, ys: np.ndarray) -> LineFit:
    if float(np.ptp(xs)) == 0.0:
        # Vertical stack of points: no slope information.
        intercept = float(ys.mean())
        residual = float(((ys - intercept) ** 2).sum())
        return LineFit(0.0, intercept, 1.0 if residual == 0.0 else 0.0)
    slope, intercept = np.polyfit(xs, ys, 1)
    predicted = slope * xs + intercept
    ss_res = float(((ys - predicted) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    # Constant y fits exactly; define R^2 = 1 rather than 0/0.
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LineFit(float(slope), float(intercept), r2)


def two_segment_fit(points: Sequence[tuple[float, float]]) -> FitResult:
    """Fit two least-squares lines split at the breakpoint maximizing R^2 sum.

    Points are sorted by x; every split leaving at least 3 points per side
    is tried, and the breakpoint is placed midway between the neighboring x
    values.  Needs at least 6 points.
    """
    if len(points) < 6:
        raise ValueError(f"need at least 6 points, got {len(points)}")
    ordered = sorted(points, key=lambda p: p[0])
    xs = np.array([p[0] for p in ordered], dtype=np.float64)
    ys = np.array([p[1] for p in ordered], dtype=np.float64)
    best: tuple[float, LineFit, LineFit, float] | None = None
    for split in range(3, len(ordered) - 2):
        if xs[split - 1] == xs[split]:
            continue  # no x value separates the two sides here
        left = _ols(xs[:split], ys[:split])
        right = _ols(xs[split:], ys[split:])
        score = left.r2 + right.r2
        if best is None or score > best[0]:
            best = (score, left, right, float((xs[split - 1] + xs[split]) / 2.0))
    if best is None:
        raise ValueError("all x values coincide; no interior breakpoint exists")
    _, segment1, segment2, breakpoint = best
    return FitResult(segment1=segment1, segment2=segment2, breakpoint=breakpoint,
                     single=_ols(xs, ys))


def evaluate_answers(
    items: Sequence[tuple[QaPair, str]],
) -> tuple[list[tuple[str, dict[str, float]]], dict[str, float]]:
    """(qid, {metric: score}) for every (question, hypothesis) pair, and each metric's mean."""
    if not items:
        raise ValueError("nothing to evaluate")
    rows = [(qa.id, {name: score(qa.answers, hyp) for name, score in METRICS.items()})
            for qa, hyp in items]
    means = {name: sum(scores[name] for _, scores in rows) / len(rows) for name in METRICS}
    return rows, means


def report_tsv(rows: Sequence[tuple[str, Mapping[str, float]]], means: Mapping[str, float]) -> str:
    """Render scores as TSV: a header, one row per question, then a mean row."""
    lines = ["\t".join(["qid", *METRICS])]
    for qid, scores in [*rows, ("mean", means)]:
        lines.append("\t".join([qid, *(f"{scores[name]:.6f}" for name in METRICS)]))
    return "\n".join(lines) + "\n"


_BUCKETS = 10


def quality_recall_points(pairs: Sequence[tuple[float, float]]) -> list[tuple[float, float, int]]:
    """Bucket (quality, recall) pairs for plotting: (bucket midpoint, mean, n).

    Quality is clipped into [0, 1] and falls in one of ten equal buckets;
    empty buckets are skipped.
    """
    sums = [0.0] * _BUCKETS
    counts = [0] * _BUCKETS
    for quality, recall in pairs:
        clipped = min(max(quality, 0.0), 1.0)
        idx = min(int(clipped * _BUCKETS), _BUCKETS - 1)
        sums[idx] += recall
        counts[idx] += 1
    width = 1.0 / _BUCKETS
    return [
        ((i + 0.5) * width, sums[i] / counts[i], counts[i])
        for i in range(_BUCKETS)
        if counts[i] > 0
    ]
