"""Per-layer metrics computed from the spans of traced genki commands.

Each metric sums over every traced command of a run (set-up and measured),
so setup-only layers such as training still report on the answer
workloads.  A layer's self time is its spans' time minus the part of each
span that its child spans cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# name -> (unit, better)
PER_LAYER = {
    "corpus.ingest_s": ("s", "lower"),
    "corpus.build_stats_s": ("s", "lower"),
    "corpus.encode_calls": ("count", "lower"),
    "corpus.encode_s": ("s", "lower"),
    "textstats.nisf_calls": ("count", "lower"),
    "textstats.nisf_s": ("s", "lower"),
    "textstats.oov_fallbacks": ("count", "lower"),
    "retriever.embed_calls": ("count", "lower"),
    "retriever.embed_s": ("s", "lower"),
    "retriever.zero_vectors": ("count", "lower"),
    "retriever.build_s": ("s", "lower"),
    "retriever.save_index_s": ("s", "lower"),
    "retriever.load_index_s": ("s", "lower"),
    "retriever.top_k_calls": ("count", "lower"),
    "retriever.top_k_s": ("s", "lower"),
    "retriever.top_k_ms_p50": ("ms", "lower"),
    "retriever.top_k_ms_p99": ("ms", "lower"),
    "retriever.top_k_repeat_share": ("share", "lower"),
    "lm_core.train_calls": ("count", "lower"),
    "lm_core.train_s": ("s", "lower"),
    "lm_core.save_checkpoint_s": ("s", "lower"),
    "lm_core.checkpoint_mb": ("MB", "lower"),
    "lm_core.load_checkpoint_s": ("s", "lower"),
    "lm_core.generate_calls": ("count", "lower"),
    "lm_core.generate_tokens": ("count", "lower"),
    "lm_core.generate_s": ("s", "lower"),
    "lm_core.logprob_cond_calls": ("count", "lower"),
    "lm_core.logprob_cond_s": ("s", "lower"),
    "reward.pairs": ("count", "higher"),
    "reward.train_reward_s": ("s", "lower"),
    "reward.score_calls": ("count", "lower"),
    "reward.score_s": ("s", "lower"),
    "consistency.calls": ("count", "lower"),
    "consistency.self_s": ("s", "lower"),
    "ensemble.select_calls": ("count", "lower"),
    "ensemble.select_self_s": ("s", "lower"),
    "ensemble.judge_calls": ("count", "lower"),
    "ensemble.judge_s": ("s", "lower"),
    "ensemble.reward_pick_share": ("share", "higher"),
    "ensemble.reward_guards": ("count", "lower"),
    "generation.question_ms_p50": ("ms", "lower"),
    "generation.question_ms_p99": ("ms", "lower"),
    "generation.answer_paths_self_s": ("s", "lower"),
    "generation.postprocess_calls": ("count", "lower"),
    "generation.postprocess_s": ("s", "lower"),
    "generation.empty_rewrites": ("count", "lower"),
    "generation.train_pipeline_models_self_s": ("s", "lower"),
    "generation.drafts_s": ("s", "lower"),
    "clients.requests": ("count", "lower"),
    "clients.retries": ("count", "lower"),
    "clients.failures": ("count", "lower"),
    "clients.score_ms_p50": ("ms", "lower"),
    "clients.score_ms_p99": ("ms", "lower"),
    "clients.judge_ms_p50": ("ms", "lower"),
    "clients.judge_ms_p99": ("ms", "lower"),
    "clients.server_busy_s": ("s", "lower"),
    "clients.overhead_ms_p50": ("ms", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_share": ("share", "lower"),
}


@dataclass
class Span:
    name: str
    t0: int
    t1: int
    trace: tuple | None
    info: dict
    self_ns: int = 0
    children: list = field(default_factory=list)

    @property
    def ns(self) -> int:
        return self.t1 - self.t0


def _covered_ns(span: Span) -> int:
    """Length of the union of the children's intervals, clipped to *span*."""
    total, end = 0, span.t0
    for c in sorted(span.children, key=lambda c: c.t0):
        lo, hi = max(c.t0, end), min(c.t1, span.t1)
        if hi > lo:
            total += hi - lo
            end = hi
    return total


def load_spans(paths: list[str]) -> tuple[list[Span], int]:
    """Spans of every command in *paths*, with self times, plus OOV fallbacks."""
    spans: list[Span] = []
    oov = 0
    for command, path in enumerate(paths):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        oov += payload["oov_fallbacks"]
        by_id: dict[int, Span] = {}
        parents: dict[int, int | None] = {}
        for sid, parent, trace, name, t0, t1, info in payload["spans"]:
            key = None if trace is None else (command, trace)
            by_id[sid] = Span(name, t0, t1, key, info or {})
            parents[sid] = parent
        for sid, parent in parents.items():
            if parent is not None and parent in by_id:
                by_id[parent].children.append(by_id[sid])
        for span in by_id.values():
            span.self_ns = span.ns - _covered_ns(span)
        spans.extend(by_id.values())
    return spans, oov


def _ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) / 1e6 if values else 0.0


def per_layer(spans: list[Span], oov_fallbacks: int, server_busy_s: float,
              overhead_share: float) -> dict[str, float]:
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def calls(*names: str) -> int:
        return sum(len(by_name[n]) for n in names)

    def secs(*names: str) -> float:
        return sum(s.ns for n in names for s in by_name[n]) / 1e9

    def self_secs(name: str) -> float:
        return sum(s.self_ns for s in by_name[name]) / 1e9

    def total(name: str, key: str) -> int:
        return sum(s.info.get(key, 0) for s in by_name[name])

    def durations(name: str) -> list[int]:
        return [s.ns for s in by_name[name]]

    starts = {s.trace: s.t0 for s in by_name["generation.answer_paths"]}
    question_ns = [s.t1 - starts[s.trace] for s in by_name["ensemble.select"] if s.trace in starts]
    selects = calls("ensemble.select")
    top_k_calls = calls("retriever.top_k")
    remote_calls = by_name["clients.RemoteJudge.choose"] + by_name["clients.RemoteScorer.logprob_cond"]
    overhead_ns = [s.ns - s.info["service_ns"] for s in by_name["clients.urlopen"]
                   if "service_ns" in s.info]
    values = {
        "corpus.ingest_s": secs("corpus.ingest_passages", "corpus.ingest_qa_pairs"),
        "corpus.build_stats_s": secs("corpus.build_stats"),
        "corpus.encode_calls": calls("corpus.Vocabulary.encode"),
        "corpus.encode_s": secs("corpus.Vocabulary.encode"),
        "textstats.nisf_calls": calls("textstats.nisf"),
        "textstats.nisf_s": secs("textstats.nisf"),
        "textstats.oov_fallbacks": oov_fallbacks,
        "retriever.embed_calls": calls("retriever.HashEmbedder.embed"),
        "retriever.embed_s": secs("retriever.HashEmbedder.embed"),
        "retriever.zero_vectors": total("retriever.HashEmbedder.embed", "zero"),
        "retriever.build_s": secs("retriever.DenseIndex.build"),
        "retriever.save_index_s": secs("retriever.save_index"),
        "retriever.load_index_s": secs("retriever.load_index"),
        "retriever.top_k_calls": top_k_calls,
        "retriever.top_k_s": secs("retriever.top_k"),
        "retriever.top_k_ms_p50": _ms(durations("retriever.top_k"), 50),
        "retriever.top_k_ms_p99": _ms(durations("retriever.top_k"), 99),
        "retriever.top_k_repeat_share":
            total("retriever.top_k", "repeat") / top_k_calls if top_k_calls else 0.0,
        "lm_core.train_calls": calls("lm_core.train"),
        "lm_core.train_s": secs("lm_core.train"),
        "lm_core.save_checkpoint_s": secs("lm_core.save_checkpoint"),
        "lm_core.checkpoint_mb": total("lm_core.save_checkpoint", "bytes") / 1e6,
        "lm_core.load_checkpoint_s": secs("lm_core.load_checkpoint"),
        "lm_core.generate_calls": calls("lm_core.ToyLm.generate"),
        "lm_core.generate_tokens": total("lm_core.ToyLm.generate", "tokens"),
        "lm_core.generate_s": secs("lm_core.ToyLm.generate"),
        "lm_core.logprob_cond_calls": calls("lm_core.ToyLm.logprob_cond"),
        "lm_core.logprob_cond_s": secs("lm_core.ToyLm.logprob_cond"),
        "reward.pairs": total("reward.train_reward", "pairs"),
        "reward.train_reward_s": secs("reward.train_reward"),
        "reward.score_calls": calls("reward.ToyRewardModel.score"),
        "reward.score_s": secs("reward.ToyRewardModel.score"),
        "consistency.calls": calls("consistency.consistency"),
        "consistency.self_s": self_secs("consistency.consistency"),
        "ensemble.select_calls": selects,
        "ensemble.select_self_s": self_secs("ensemble.select"),
        "ensemble.judge_calls": calls("ensemble.StubJudge.choose", "clients.RemoteJudge.choose"),
        "ensemble.judge_s": secs("ensemble.StubJudge.choose", "clients.RemoteJudge.choose"),
        "ensemble.reward_pick_share": sum(
            1 for s in by_name["ensemble.select"] if s.info.get("route") == "RewardPick"
        ) / selects if selects else 0.0,
        "ensemble.reward_guards": sum(1 for s in by_name["ensemble.select"] if "guard" in s.info),
        "generation.question_ms_p50": _ms(question_ns, 50),
        "generation.question_ms_p99": _ms(question_ns, 99),
        "generation.answer_paths_self_s": self_secs("generation.answer_paths"),
        "generation.postprocess_calls": calls("generation.postprocess"),
        "generation.postprocess_s": secs("generation.postprocess"),
        "generation.empty_rewrites": total("generation.postprocess", "empty"),
        "generation.train_pipeline_models_self_s": self_secs("generation.train_pipeline_models"),
        "generation.drafts_s": secs("generation.drafts_for_questions"),
        "clients.requests": calls("clients.urlopen"),
        "clients.retries": calls("clients.urlopen") - len(remote_calls),
        "clients.failures": sum(1 for s in remote_calls if "error" in s.info),
        "clients.score_ms_p50": _ms(durations("clients.RemoteScorer.logprob_cond"), 50),
        "clients.score_ms_p99": _ms(durations("clients.RemoteScorer.logprob_cond"), 99),
        "clients.judge_ms_p50": _ms(durations("clients.RemoteJudge.choose"), 50),
        "clients.judge_ms_p99": _ms(durations("clients.RemoteJudge.choose"), 99),
        "clients.server_busy_s": server_busy_s,
        "clients.overhead_ms_p50": _ms(overhead_ns, 50),
        "cli.self_s": self_secs("cli.main"),
        "trace.overhead_share": overhead_share,
    }
    assert values.keys() == PER_LAYER.keys()
    return values
