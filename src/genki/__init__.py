"""Retrieval-augmented QA: retrieve passages, train knowledge-integrated
generators, format drafts, and pick the better of two answer paths.

The public surface re-exported here is everything a pipeline caller needs;
the command line in genki.cli wires the same pieces together from files.
"""

from .clients import (
    AUTH_ENV_VAR,
    ClientError,
    EndpointConfig,
    HttpStatusError,
    ProtocolError,
    RemoteJudge,
    RemoteScorer,
    TransportError,
)
from .consistency import ConsistencyScore, consistency
from .corpus import (
    EOS,
    UNK,
    AnswerKind,
    CorpusError,
    CorpusStats,
    Passage,
    QaPair,
    TokenSeq,
    Vocabulary,
    build_stats,
    ingest_passages,
    ingest_qa_pairs,
    normalize_text,
    read_jsonl,
    split_sentences,
    tokenize,
)
from .ensemble import (
    AnswerCandidate,
    Choice,
    ExternalJudge,
    JudgeError,
    Provenance,
    Route,
    ScoreBundle,
    StubJudge,
    bundle_record,
    judgment_score,
    resolve_winner,
    select,
)
from .generation import (
    DEFAULT_MAX_OUTPUT_TOKENS,
    DEFAULT_TEMPLATES,
    PipelineConfig,
    PipelineError,
    PipelineModels,
    PipelineRun,
    TrainedModels,
    answer_paths,
    build_vocabulary,
    drafts_for_questions,
    postprocess,
    preference_pairs_from_drafts,
    run_pipeline,
    run_record,
    train_pipeline_models,
)
from .lm_core import (
    LmScorer,
    LossWeights,
    ToyLm,
    TrainExample,
    load_checkpoint,
    loss_combined,
    loss_combined_grad,
    loss_f,
    loss_r,
    save_checkpoint,
    train,
)
from .metrics import (
    FitResult,
    LineFit,
    MetricReport,
    QuestionScore,
    bleu,
    evaluate_answers,
    exact_match,
    normalize_answer,
    quality_recall_points,
    report_tsv,
    retrieval_quality,
    rouge_l,
    text_f1,
    text_recall,
    two_segment_fit,
)
from .retriever import (
    DenseIndex,
    Embedder,
    HashEmbedder,
    IndexFormatError,
    RetrievalResult,
    load_index,
    save_index,
    similarity,
    top_k,
    top_k_batch,
)
from .reward import (
    FEATURE_NAMES,
    FormatSpec,
    PreferencePair,
    RewardModel,
    ToyRewardModel,
    extract_features,
    load_reward_checkpoint,
    pairwise_loss,
    pairwise_loss_grad,
    save_reward_checkpoint,
    train_reward,
)
from .textstats import OOV_WORDS, SentenceWeight, TextStatsError, isf, iwf, nisf

__version__ = "0.1.0"
