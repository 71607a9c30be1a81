"""Command-line surface: synth, ingest, index, retrieve, train, answer, eval, analyze.

Stages communicate through files (index binary, model checkpoints, JSONL
runs), so each command can be rerun or audited on its own.  Every command
is deterministic given identical inputs: reruns produce byte-identical
outputs.

Exit codes: 0 success, 2 configuration errors, 3 data errors (missing,
malformed or unwritable files), 4 model errors (training failures).  A remote
backend failure fails only its own question, recorded in runs.jsonl.

Each command compiles and executes only the modules it uses.  genki.corpus
and genki.retriever, which read every command's inputs, are imported here;
the other modules are registered through importlib's LazyLoader (_lazy)
and execute on first use, so index, retrieve and ingest run no other
genki module.  An import inside each command would do the same, but
perfbench's tracer looks each traced module up in sys.modules right after
importing this one; a lazy module is there from the start.  Once the
benchmark reads what a run records instead of wrapping functions (ROADMAP
item 1), plain imports inside the commands will do.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from types import ModuleType
from typing import IO, Iterator, Sequence

from . import corpus, retriever
from .corpus import (
    INTEGER,
    NUMBER,
    STRING,
    STRING_OR_NULL,
    STRINGS,
    AnswerKind,
    CorpusError,
    answer_blocks,
    atomic_write,
    build_stats,
    check,
    iter_qa_pairs,
    parse_json_object,
    read_jsonl,
    write_checkpoint_json,
    write_rows,
)
from .retriever import (
    DenseIndex,
    HashEmbedder,
    retrieve_texts,
    save_index,
    top_k,  # noqa: F401  (perfbench/selftest.py checks the tracer wraps it here)
)


def _lazy(name: str) -> ModuleType:
    """genki.<name>, in sys.modules now but compiled and executed on first use.

    An attribute access executes the module.  Before Python 3.12 that load
    takes no lock, so no two threads may race to it: a module that worker
    threads use must be executed in the main thread before they start.
    genki answer keeps this rule: it builds its remote clients in the main
    thread, and executing generation executes every other module selection
    uses (ensemble, consistency, reward, textstats and lm_core).
    """
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


# The modules the commands call, and consistency and textstats, which they
# reach only through generation: the tracer looks each one up.  Only
# cmd_synth registers genki.synth, since no other command uses it.
clients, consistency, ensemble, generation, lm_core, metrics, reward, textstats = map(
    _lazy, ("clients", "consistency", "ensemble", "generation", "lm_core", "metrics", "reward",
            "textstats"),
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_MODEL = 4


class ConfigError(Exception):
    """Bad configuration: file contents, flag values, or missing settings."""


class DataError(Exception):
    """Missing or malformed input data or stage artifacts."""


class ModelError(Exception):
    """Training failure."""


@dataclass
class CliConfig:
    """Settings from the config file; command-line flags override them."""

    k: int = 2
    lambda1: float = 1.0
    lambda2: float = 0.5
    jobs: int = 1
    backend: str = "toy"
    max_output_tokens: int = 50
    corpus: str = ""
    qa: str = ""
    index: str = ""
    models: str = ""
    out: str = ""
    format_kind: str = "entity"
    format_max_tokens: int = 8
    format_description: str = ""
    embedder_dim: int = 256
    embedder_seed: int = 0
    train_steps: int = 50
    train_learning_rate: float = 0.5
    train_reward_steps: int = 100
    train_reward_learning_rate: float = 0.05
    remote_scorer_url: str = ""
    remote_judge_url: str = ""
    remote_timeout_ms: int = 10_000
    remote_retries: int = 0
    remote_max_in_flight: int = 4


# Command-line flags, as add_argument keywords.  A flag overrides the
# CliConfig field of its own name, where there is one.
_FLAGS = {
    "config": dict(help="config file (JSON or TOML)"),
    "corpus": dict(help="passage JSONL file"),
    "qa": dict(help="QA JSONL file"),
    "index": dict(help="index file path"),
    "models": dict(help="trained model directory"),
    "out": dict(help="output file or directory"),
    "k": dict(type=int, help="retrieval depth"),
    "lambda1": dict(type=float, help="domain loss weight"),
    "lambda2": dict(type=float, help="instruction loss weight"),
    "jobs": dict(type=int, help="threads for answer selection with a remote backend"),
    "max-output-tokens": dict(type=int, help="generation length cap"),
    "backend": dict(choices=["toy", "remote"], help="judge/scorer backend"),
    "answers": dict(help="runs.jsonl or a JSONL of {id, answer}"),
    "runs": dict(help="runs.jsonl from genki answer"),
    "passages": dict(type=int, default=200, help="passages to write, at least --questions"),
    "questions": dict(type=int, default=100, help="questions to write, one passage each"),
}

# Config-file tables: the key <section>.<key> sets the CliConfig field
# <section>_<key>; every other field is a top-level key of the same name.
_SECTIONS = ("format", "embedder", "train", "remote")


def _load_config_file(path: str) -> dict:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if path.endswith(".toml"):
        try:
            import tomllib  # Python 3.11+
        except ImportError:
            try:
                import tomli as tomllib  # type: ignore[no-redef]
            except ImportError:
                raise ConfigError(f"{path}: TOML support needs Python 3.11+ or the tomli package") from None
        try:
            return tomllib.loads(raw.decode("utf-8"))
        except Exception as exc:
            raise ConfigError(f"{path}: invalid TOML: {exc}") from exc
    return parse_json_object(raw, path)


def _config_items(data: dict) -> Iterator[tuple[str, str, object]]:
    """(key as the file spells it, CliConfig field, value) for each config-file setting."""
    for key, value in data.items():
        if key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be a table")
            for sub_key, sub_value in value.items():
                yield f"{key}.{sub_key}", f"{key}_{sub_key}", sub_value
        elif key.partition("_")[0] in _SECTIONS:  # a flat spelling such as format_kind
            raise ConfigError(f"unknown config field {key!r}")
        else:
            yield key, key, value


def load_cli_config(args: argparse.Namespace) -> CliConfig:
    """Defaults, then the config file, then command-line flags; later wins."""
    cfg = CliConfig()
    # The field kind of each CliConfig field, from its annotation.
    kinds = {f.name: {"int": INTEGER, "float": NUMBER, "str": STRING}[f.type]
             for f in fields(CliConfig)}
    if getattr(args, "config", None):
        try:
            for key, name, value in _config_items(_load_config_file(args.config)):
                if name not in kinds:
                    raise ConfigError(f"unknown config field {key!r}")
                value = check(value, kinds[name], key, args.config)
                setattr(cfg, name, value)
        except CorpusError as exc:  # the file's JSON, or a value of the wrong kind
            raise ConfigError(str(exc)) from None
    for name, value in vars(args).items():
        if value is not None and name in kinds:
            flag = "--" + name.replace("_", "-")
            try:
                setattr(cfg, name, check(value, kinds[name], flag, "command line"))
            except CorpusError as exc:  # a non-finite --lambda1, say
                raise ConfigError(str(exc)) from None
    if cfg.backend not in ("toy", "remote"):
        raise ConfigError(f"backend must be 'toy' or 'remote', got {cfg.backend!r}")
    for name, low in (("k", 1), ("jobs", 1), ("embedder_dim", 1), ("train_steps", 1),
                      ("train_reward_steps", 0)):
        if getattr(cfg, name) < low:
            raise ConfigError(f"{name} must be >= {low}")
    for name in ("train_learning_rate", "train_reward_learning_rate"):
        if getattr(cfg, name) <= 0:
            raise ConfigError(f"{name} must be > 0")
    return cfg


def _pipeline_config(cfg: CliConfig) -> generation.PipelineConfig:
    try:
        weights = lm_core.LossWeights(cfg.lambda1, cfg.lambda2)
        fmt = reward.FormatSpec(
            AnswerKind(cfg.format_kind), cfg.format_max_tokens, cfg.format_description
        )
        return generation.PipelineConfig(
            k=cfg.k,
            weights=weights,
            format=fmt,
            max_output_tokens=cfg.max_output_tokens,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


_MODEL_FILES = ("l1.json", "l2.json", "span.json", "reward.json")


def _load_models(path: str) -> tuple:
    """The two language-model roles, the answer span and the reward model under *path*.

    span.json holds {"length", "start"}: integers, length at least 1 and start at least 0.
    """
    l1, l2, span_file, reward_file = (Path(path) / name for name in _MODEL_FILES)
    span = parse_json_object(span_file.read_bytes(), span_file)
    start, length = (check(span.get(key), INTEGER, key, span_file) for key in ("start", "length"))
    if start < 0 or length < 1:
        raise CorpusError(f"{span_file}: an answer span needs start >= 0 and length >= 1")
    return (lm_core.load_checkpoint(l1), lm_core.load_checkpoint(l2),
            generation.AnswerSpan(start, length), reward.load_reward_checkpoint(reward_file))


def _load_answers(path: str) -> dict[str, str]:
    """Read runs.jsonl (rows with a qid) or a simple {'id', 'answer'} JSONL."""
    answers: dict[str, str] = {}
    for lineno, record in read_jsonl(path):
        key, value = ("qid", "final_answer") if "qid" in record else ("id", "answer")
        qid = check(record.get(key), STRING, key, path, lineno)
        if qid in answers:
            raise CorpusError(f"{path}: line {lineno}: duplicate answer id {qid!r}")
        answers[qid] = check(record.get(value), STRING, value, path, lineno)
    return answers


_ANSWER = "genki answer --corpus <corpus> --qa <qa> --index <index> --models <dir> --out <dir>"

# Input flags: what each one names, the command that produces it ({} is the
# path), and how to read it.  A reader is looked up on its module when it
# runs, so a wrapper put there later (a tracer, a test) sees the call.
_INPUTS = {
    "corpus": ("a passage file", "your corpus exporter (JSONL of id/text)",
               lambda path: corpus.ingest_passages(path)),
    "qa": ("a QA file", "your QA exporter (JSONL of id/question/answers/format)",
           lambda path: corpus.ingest_qa_pairs(path)),
    "index": ("an index file", "genki index --corpus <corpus.jsonl> --out {}",
              lambda path: retriever.load_index(path)),
    "models": ("a trained model directory",
               "genki train --corpus <corpus> --qa <qa> --index <index> --out {}", _load_models),
    "answers": ("an answers file", _ANSWER, _load_answers),
    "runs": ("a runs file", _ANSWER, str),
}


def _need(cfg: CliConfig, args: argparse.Namespace, flag: str, what: str = "") -> str:
    """The path *flag* names; ConfigError if it is unset."""
    path = getattr(cfg, flag, None) or getattr(args, flag)
    if not path:
        where = " or set it in the config file" if hasattr(cfg, flag) else ""
        raise ConfigError(f"{what or _INPUTS[flag][0]} required: pass --{flag}{where}")
    return path


def _load(cfg: CliConfig, args: argparse.Namespace, flag: str, read=None):
    """The contents of input *flag*, read by *read* or else its _INPUTS reader.

    A missing file is a DataError that names the command producing it, and
    so is a file the reader rejects as malformed.  A lazy reader such as
    iter_qa_pairs rejects a malformed line only when it reaches it, with a
    CorpusError that main reports as the same data error.
    """
    _, producer, default = _INPUTS[flag]
    read = read or default
    path = _need(cfg, args, flag)
    producer = producer.format(path)
    files = [str(Path(path) / name) for name in _MODEL_FILES] if flag == "models" else [path]
    for file in files:
        if not Path(file).is_file():
            raise DataError(f"missing {file}; produce it with: {producer}")
    try:
        return read(path)
    except lm_core.CheckpointSchemaError as exc:
        raise DataError(f"{exc}; retrain with: {producer}") from exc
    except ValueError as exc:  # CorpusError, IndexFormatError, a malformed checkpoint
        raise DataError(str(exc)) from exc


def _index_mismatch(cfg: CliConfig, exc: Exception) -> DataError:
    """The error for an index whose retrieved ids are missing from the corpus."""
    return DataError(
        f"{cfg.index} does not match {cfg.corpus}: {exc}; rebuild it with: "
        f"genki index --corpus {cfg.corpus} --out {cfg.index}"
    )


def _embedder(cfg: CliConfig, dim: int) -> HashEmbedder:
    """The configured embedder at *dim*; a value HashEmbedder rejects is a ConfigError."""
    try:
        return HashEmbedder(dim, cfg.embedder_seed)
    except ValueError as exc:  # "seed must be ...": the message names the setting
        raise ConfigError(f"embedder.{exc}") from exc


def _write_json(path: Path, payload: object) -> None:
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_synth(cfg: CliConfig, args: argparse.Namespace) -> int:
    out = _need(cfg, args, "out", "an output directory")
    try:
        _lazy("synth").write_world(out, args.passages, args.questions)
    except ValueError as exc:  # sizes synthetic_world rejects, checked before any write
        raise ConfigError(f"--passages {args.passages} --questions {args.questions}: {exc}") from exc
    print(f"wrote corpus.jsonl and qa.jsonl to {out}")
    return EXIT_OK


def cmd_ingest(cfg: CliConfig, args: argparse.Namespace) -> int:
    passages = _load(cfg, args, "corpus")
    qa_count = sum(1 for _ in _load(cfg, args, "qa", iter_qa_pairs)) if cfg.qa else 0
    stats = build_stats(passages)
    summary = {
        "passages": len(passages),
        "qa_pairs": qa_count,
        "sentences": stats.sentence_count,
        "vocab": stats.vocab_size,
        "words": sum(stats.word_freq.values()),
    }
    if cfg.out:
        _write_json(Path(cfg.out) / "stats.json", summary)
    print(
        f"ingested {summary['passages']} passages, {summary['qa_pairs']} qa pairs, "
        f"{summary['sentences']} sentences, vocab {summary['vocab']}"
    )
    return EXIT_OK


def cmd_index(cfg: CliConfig, args: argparse.Namespace) -> int:
    passages = _load(cfg, args, "corpus")
    out = _need(cfg, args, "out", "an index output path")
    embedder = _embedder(cfg, cfg.embedder_dim)
    try:
        index = DenseIndex.build(passages, embedder)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    save_index(index, out)
    print(f"indexed {index.count} passages (dim {index.dim}) -> {out}")
    return EXIT_OK


def cmd_retrieve(cfg: CliConfig, args: argparse.Namespace) -> int:
    index = _load(cfg, args, "index")
    qa_pairs = _load(cfg, args, "qa", iter_qa_pairs)
    embedder = _embedder(cfg, index.dim)
    count = 0
    # Each block's rows are written before the next block is read; --out
    # replaces its old version only after the last block.
    with (atomic_write(cfg.out, "w", encoding="utf-8") if cfg.out
          else nullcontext(sys.stdout)) as fh:
        for block in answer_blocks(qa_pairs):
            retrievals = retrieve_texts(index, embedder, [qa.question for qa in block], cfg.k)
            write_rows(fh, (
                {
                    "qid": qa.id,
                    "retrieved": [
                        {"passage_id": r.passage_id, "score": r.score, "rank": r.rank}
                        for r in results
                    ],
                }
                for qa, results in zip(block, retrievals)
            ))
            count += len(block)
    if cfg.out:
        print(f"retrieved top-{cfg.k} for {count} questions -> {cfg.out}")
    return EXIT_OK


def cmd_train(cfg: CliConfig, args: argparse.Namespace) -> int:
    pipeline_cfg = _pipeline_config(cfg)
    passages = _load(cfg, args, "corpus")
    qa_pairs = _load(cfg, args, "qa")
    if not qa_pairs:
        raise DataError(f"{cfg.qa}: no qa pairs to train on")
    index = _load(cfg, args, "index")
    out = Path(_need(cfg, args, "out", "a model output directory"))
    embedder = _embedder(cfg, index.dim)
    vocab = generation.build_vocabulary(passages, qa_pairs)
    try:
        models = generation.train_pipeline_models(
            passages, qa_pairs, index, embedder, vocab, pipeline_cfg,
            steps=cfg.train_steps, learning_rate=cfg.train_learning_rate,
        )
        pairs = generation.preference_pairs_from_drafts(
            qa_pairs, models.drafts, pipeline_cfg.format
        )
        reward_model = reward.ToyRewardModel()
        if pairs:
            reward_model = reward.train_reward(
                reward_model, pairs, cfg.train_reward_steps, cfg.train_reward_learning_rate
            )
    except generation.PipelineError as exc:  # retrieved ids missing from the corpus
        raise _index_mismatch(cfg, exc) from exc
    except (ValueError, RuntimeError) as exc:
        raise ModelError(f"training failed: {exc}") from exc
    lm_core.save_checkpoint(models.full, out / "l1.json")
    lm_core.save_checkpoint(models.retrieved, out / "l2.json")
    write_checkpoint_json(out / "span.json", asdict(models.span))
    reward.save_reward_checkpoint(reward_model, out / "reward.json")
    print(
        f"trained models on {len(passages)} passages / {len(qa_pairs)} questions "
        f"({len(pairs)} preference pairs) -> {out}"
    )
    return EXIT_OK


def _write_runs(runs_file: IO[str], audit_file: IO[str],
                runs: Sequence[generation.PipelineRun]) -> int:
    """Append *runs* to runs.jsonl and audit.jsonl; return how many failed."""
    records = [generation.run_record(r) for r in runs]
    write_rows(runs_file, records)
    # audit.jsonl: the scoring inputs of each question that reached selection.
    write_rows(audit_file, (
        {"qid": rec["qid"], **rec["bundle"], "winner_provenance": rec["winner_provenance"]}
        for rec in records if rec["bundle"] is not None
    ))
    return sum(1 for rec in records if rec["error"])


def cmd_answer(cfg: CliConfig, args: argparse.Namespace) -> int:
    pipeline_cfg = _pipeline_config(cfg)
    passages = _load(cfg, args, "corpus")
    qa_pairs = _load(cfg, args, "qa", iter_qa_pairs)
    index = _load(cfg, args, "index")
    full, retrieved, span, reward_model = _load(cfg, args, "models")
    out = Path(_need(cfg, args, "out", "an output directory"))
    stats = build_stats(passages)

    judge, scorer = ensemble.StubJudge(), None
    if cfg.backend == "remote":
        if not cfg.remote_judge_url:
            raise ConfigError("backend 'remote' needs remote.judge_url in the config file")
        try:
            endpoint = clients.EndpointConfig(
                cfg.remote_judge_url, cfg.remote_timeout_ms, cfg.remote_retries,
                cfg.remote_max_in_flight,
            )
            if cfg.remote_scorer_url:
                scorer = clients.RemoteScorer(replace(endpoint, base_url=cfg.remote_scorer_url))
        except ValueError as exc:
            raise ConfigError(f"remote: {exc}") from exc
        judge = clients.RemoteJudge(endpoint)

    models = generation.PipelineModels(
        full=full, retrieved=retrieved, span=span, reward=reward_model,
        judge=judge, consistency_scorer=scorer,
    )
    embedder = _embedder(cfg, index.dim)
    passage_map = {p.id: p for p in passages}
    # Only a remote scorer or judge waits on the network, so only it gets threads.
    jobs = cfg.jobs if cfg.backend == "remote" else 1
    count = failures = 0
    # Each block's rows are written before the next block is read; both
    # files replace their old versions only after the last block.
    with (atomic_write(out / "runs.jsonl", "w", encoding="utf-8") as runs,
          atomic_write(out / "audit.jsonl", "w", encoding="utf-8") as audit):
        for block in answer_blocks(qa_pairs):
            try:
                # no name holds a block's runs, so they are freed before the next block
                failures += _write_runs(runs, audit, generation.run_pipeline(
                    block, models, index, embedder, passage_map, stats, pipeline_cfg, jobs=jobs,
                ))
            except generation.PipelineError as exc:  # retrieved ids missing from the corpus
                raise _index_mismatch(cfg, exc) from exc
            count += len(block)
    print(f"answered {count} questions ({failures} failures) -> {out}")
    return EXIT_OK


def cmd_eval(cfg: CliConfig, args: argparse.Namespace) -> int:
    qa_pairs = _load(cfg, args, "qa")
    if not qa_pairs:
        raise DataError(f"{cfg.qa}: no qa pairs to evaluate")
    answers = _load(cfg, args, "answers")
    missing = [qa.id for qa in qa_pairs if qa.id not in answers]
    if missing:
        shown = ", ".join(map(repr, missing[:5]))
        raise DataError(f"{args.answers}: no answer for {len(missing)} question(s): {shown}")
    rows, means = metrics.evaluate_answers([(qa, answers[qa.id]) for qa in qa_pairs])
    if cfg.out:
        with atomic_write(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(metrics.report_tsv(rows, means))
    print("  ".join(f"{name} {means[name]:.4f}" for name in ("em", "recall", "f1", "bleu1", "rouge_l"))
          + (f"  -> {cfg.out}" if cfg.out else ""))
    return EXIT_OK


def cmd_analyze(cfg: CliConfig, args: argparse.Namespace) -> int:
    qa_pairs = _load(cfg, args, "qa")
    passages = _load(cfg, args, "corpus")
    runs_path = _load(cfg, args, "runs")
    out = Path(_need(cfg, args, "out", "an output directory"))
    passage_map = {p.id: p for p in passages}
    qa_map = {qa.id: qa for qa in qa_pairs}
    points, qids = [], set()
    for lineno, record in read_jsonl(runs_path):
        # A missing field is allowed: a run without a qid is skipped, the others default.
        qid = check(record.get("qid", ""), STRING, "qid", runs_path, lineno)
        answer = check(record.get("final_answer", ""), STRING, "final_answer", runs_path, lineno)
        error = check(record.get("error"), STRING_OR_NULL, "error", runs_path, lineno)
        ids = check(record.get("retrieved_ids", []), STRINGS, "retrieved_ids", runs_path, lineno)
        if qid and qid in qids:  # counted twice, it would weigh double in its bucket
            raise DataError(f"{runs_path}: line {lineno}: duplicate run qid {qid!r}")
        qids.add(qid)
        qa = qa_map.get(qid)
        if qa is None or error:
            continue
        missing = [pid for pid in ids if pid not in passage_map]
        if missing:  # scoring them as retrieval misses would hide the mismatch
            raise DataError(
                f"{runs_path} does not match {cfg.corpus}: line {lineno}: unknown passage ids: "
                f"{missing[:10]}; rerun it with: {_ANSWER}"
            )
        texts = [passage_map[pid].text for pid in ids]
        quality = max(metrics.retrieval_quality(gold, texts) for gold in qa.answers)
        recall = metrics.text_recall(list(qa.answers), answer)
        points.append((quality, recall))
    if not points:
        raise DataError(f"{runs_path}: no usable runs (all missing, errored, or unmatched)")
    buckets = metrics.quality_recall_points(points)
    with atomic_write(out / "analysis.csv", "w", encoding="utf-8") as fh:
        fh.write("quality,mean_recall,count\n")
        for mid, mean_recall, count in buckets:
            fh.write(f"{mid:.6f},{mean_recall:.6f},{count}\n")
    try:
        payload = asdict(metrics.two_segment_fit(points))
    except ValueError as exc:  # fewer than 6 points, or no x value to split them at
        payload = {"fit": None, "reason": str(exc)}
    _write_json(out / "fit.json", payload)
    print(f"analyzed {len(points)} runs into {len(buckets)} buckets -> {out}")
    return EXIT_OK


# Commands: function, help text, and flags after --config.
_COMMANDS = {
    "synth": (cmd_synth, "write a synthetic corpus.jsonl and qa.jsonl", "out passages questions"),
    "ingest": (cmd_ingest, "validate a corpus and report statistics", "corpus qa out"),
    "index": (cmd_index, "embed passages and write the index file", "corpus out"),
    "retrieve": (cmd_retrieve, "top-k passages per question", "index qa k out"),
    "train": (cmd_train, "train the two model roles, the answer span and the reward model",
              "corpus qa index k lambda1 lambda2 max-output-tokens out"),
    "answer": (cmd_answer, "run the full pipeline over a QA file",
               "corpus qa index models k jobs max-output-tokens out backend"),
    "eval": (cmd_eval, "score answers against gold", "qa out answers"),
    "analyze": (cmd_analyze, "retrieval quality vs recall trend", "corpus qa out runs"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genki",
        description="retrieval-augmented QA: retrieve, integrate knowledge, format, select",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag in ["config", *flags.split()]:
            command.add_argument(f"--{flag}", **_FLAGS[flag])
        command.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(load_cli_config(args), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # CorpusError: a malformed or empty input file; OSError: a path that cannot
    # be read or written, such as an output path that names a directory.
    except (DataError, CorpusError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
