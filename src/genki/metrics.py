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
from typing import Mapping, Sequence

import numpy as np

from .corpus import QaPair, tokenize

_ARTICLES = {"a", "an", "the"}
_TERMINAL_PUNCT = re.compile(r"[.!?。！？\s]+$")


def normalize_answer(text: str) -> str:
    """QA exact-match normalization.

    Lowercase, strip outer whitespace, drop terminal punctuation, drop the
    articles a/an/the, collapse inner whitespace.
    """
    lowered = _TERMINAL_PUNCT.sub("", text.lower().strip())
    return " ".join(w for w in lowered.split() if w not in _ARTICLES)


def exact_match(gold: Sequence[str], hyp: str) -> float:
    """1.0 when the normalized hypothesis equals any normalized gold answer."""
    if not gold:
        raise ValueError("gold answers must be non-empty")
    normalized = normalize_answer(hyp)
    return 1.0 if any(normalize_answer(g) == normalized for g in gold) else 0.0


def _overlap(gold_tokens: list[str], hyp_counts: Counter) -> int:
    return sum((Counter(gold_tokens) & hyp_counts).values())


def text_recall(gold: Sequence[str], hyp: str) -> float:
    """Largest fraction of any gold answer's tokens found in the hypothesis.

    Token counts intersect as multisets, so a hypothesis token only covers
    as many gold occurrences as it has itself.  Empty hypothesis scores 0.
    """
    if not gold:
        raise ValueError("gold answers must be non-empty")
    hyp_counts = Counter(tokenize(hyp))
    best = 0.0
    for answer in gold:
        gold_tokens = tokenize(answer)
        if not gold_tokens:
            continue
        best = max(best, _overlap(gold_tokens, hyp_counts) / len(gold_tokens))
    return best


def text_f1(gold: Sequence[str], hyp: str) -> float:
    """Best token-level F1 (harmonic mean of precision and recall) over golds."""
    if not gold:
        raise ValueError("gold answers must be non-empty")
    hyp_tokens = tokenize(hyp)
    hyp_counts = Counter(hyp_tokens)
    best = 0.0
    for answer in gold:
        gold_tokens = tokenize(answer)
        if not gold_tokens or not hyp_tokens:
            continue
        overlap = _overlap(gold_tokens, hyp_counts)
        if overlap == 0:
            continue
        precision = overlap / len(hyp_tokens)
        recall = overlap / len(gold_tokens)
        best = max(best, 2 * precision * recall / (precision + recall))
    return best


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
    if not refs:
        raise ValueError("references must be non-empty")
    hyp_tokens = tokenize(hyp)
    return max(_bleu_single(tokenize(ref), hyp_tokens, n) for ref in refs)


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
    if not refs:
        raise ValueError("references must be non-empty")
    hyp_tokens = tokenize(hyp)
    if not hyp_tokens:
        return 0.0
    best = 0.0
    for ref in refs:
        ref_tokens = tokenize(ref)
        if not ref_tokens:
            continue
        lcs = _lcs_length(ref_tokens, hyp_tokens)
        if lcs == 0:
            continue
        recall = lcs / len(ref_tokens)
        precision = lcs / len(hyp_tokens)
        best = max(best, 2 * precision * recall / (precision + recall))
    return best


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


@dataclass(frozen=True)
class QuestionScore:
    """Per-question metric row."""

    qid: str
    em: float
    recall: float
    f1: float
    bleu: Mapping[int, float]
    rouge_l: float


@dataclass(frozen=True)
class MetricReport:
    """Aggregate metrics (arithmetic means) plus the per-question rows."""

    em: float
    recall: float
    f1: float
    bleu: Mapping[int, float]
    rouge_l: float
    rows: tuple[QuestionScore, ...]


def evaluate_answers(items: Sequence[tuple[QaPair, str]]) -> MetricReport:
    """Score every (question, hypothesis) pair and average the columns."""
    if not items:
        raise ValueError("nothing to evaluate")

    def score(item: tuple[QaPair, str]) -> QuestionScore:
        qa, hyp = item
        gold = list(qa.answers)
        return QuestionScore(
            qid=qa.id,
            em=exact_match(gold, hyp),
            recall=text_recall(gold, hyp),
            f1=text_f1(gold, hyp),
            bleu={n: bleu(gold, hyp, n) for n in range(1, 5)},
            rouge_l=rouge_l(gold, hyp),
        )

    rows = [score(item) for item in items]
    count = len(rows)
    return MetricReport(
        em=sum(r.em for r in rows) / count,
        recall=sum(r.recall for r in rows) / count,
        f1=sum(r.f1 for r in rows) / count,
        bleu={n: sum(r.bleu[n] for r in rows) / count for n in range(1, 5)},
        rouge_l=sum(r.rouge_l for r in rows) / count,
        rows=tuple(rows),
    )


def report_tsv(report: MetricReport) -> str:
    """Render a report as TSV: per-question rows then a mean footer row."""
    header = ["qid", "em", "recall", "f1", "bleu1", "bleu2", "bleu3", "bleu4", "rouge_l"]
    lines = ["\t".join(header)]

    def fmt(value: float) -> str:
        return f"{value:.6f}"

    for row in report.rows:
        cells = [row.qid, fmt(row.em), fmt(row.recall), fmt(row.f1)]
        cells += [fmt(row.bleu[n]) for n in range(1, 5)]
        cells.append(fmt(row.rouge_l))
        lines.append("\t".join(cells))
    footer = ["mean", fmt(report.em), fmt(report.recall), fmt(report.f1)]
    footer += [fmt(report.bleu[n]) for n in range(1, 5)]
    footer.append(fmt(report.rouge_l))
    lines.append("\t".join(footer))
    return "\n".join(lines) + "\n"


def quality_recall_points(
    pairs: Sequence[tuple[float, float]], buckets: int = 10
) -> list[tuple[float, float, int]]:
    """Bucket (quality, recall) pairs for plotting: (bucket midpoint, mean, n).

    Quality is clipped into [0, 1] and empty buckets are skipped.
    """
    if buckets < 1:
        raise ValueError("buckets must be >= 1")
    sums = [0.0] * buckets
    counts = [0] * buckets
    for quality, recall in pairs:
        clipped = min(max(quality, 0.0), 1.0)
        idx = min(int(clipped * buckets), buckets - 1)
        sums[idx] += recall
        counts[idx] += 1
    width = 1.0 / buckets
    return [
        ((i + 0.5) * width, sums[i] / counts[i], counts[i])
        for i in range(buckets)
        if counts[i] > 0
    ]
