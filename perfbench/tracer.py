"""Spans around the calls into each genki module, recorded from outside.

install() wraps every traced function at every place it can be looked up:
the defining module, each genki module that imported it by name, and the
class for methods.  A span records its name, start, end, parent span and
the trace id of the question it belongs to.  Spans stay in memory until
dump(); uninstall() puts every original back.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import sys
import threading
import time
import urllib.request

# (module, attribute path) of each traced callable.  Span names are
# "<module without genki.>.<attribute path>".
TARGETS = [
    ("genki.cli", "main"),
    ("genki.corpus", "ingest_passages"),
    ("genki.corpus", "ingest_qa_pairs"),
    ("genki.corpus", "build_stats"),
    ("genki.corpus", "Vocabulary.encode"),
    ("genki.textstats", "nisf"),
    ("genki.retriever", "HashEmbedder.embed"),
    ("genki.retriever", "DenseIndex.build"),
    ("genki.retriever", "save_index"),
    ("genki.retriever", "load_index"),
    ("genki.retriever", "top_k"),
    ("genki.lm_core", "train"),
    ("genki.lm_core", "save_checkpoint"),
    ("genki.lm_core", "load_checkpoint"),
    ("genki.lm_core", "ToyLm.generate"),
    ("genki.lm_core", "ToyLm.logprob_cond"),
    ("genki.reward", "train_reward"),
    ("genki.reward", "ToyRewardModel.score"),
    ("genki.consistency", "consistency"),
    ("genki.ensemble", "select"),
    ("genki.ensemble", "StubJudge.choose"),
    ("genki.clients", "RemoteJudge.choose"),
    ("genki.clients", "RemoteScorer.logprob_cond"),
    ("genki.generation", "answer_paths"),
    ("genki.generation", "postprocess"),
    ("genki.generation", "run_pipeline"),
    ("genki.generation", "train_pipeline_models"),
    ("genki.generation", "drafts_for_questions"),
    # genki.clients reaches the network through urllib.request.urlopen.
    ("urllib.request", "urlopen"),
]


def _span_name(module: str, path: str) -> str:
    if module == "urllib.request":
        return "clients.urlopen"
    return module.removeprefix("genki.") + "." + path


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._trace_ids = itertools.count(1)
        self._seen_queries: set[tuple[bytes, int]] = set()
        self._patches: list[tuple[object, str, object]] = []
        self._oov_before = 0
        self.oov_fallbacks = 0

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, extra=None, starts_trace=False, ends_trace=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if starts_trace:
                self._local.trace = next(self._trace_ids)
            stack = self._stack()
            # Spans in worker threads hang off the command's root span.
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            if self._root is None:
                self._root = sid
            trace = getattr(self._local, "trace", None)
            stack.append(sid)
            info: dict = {}
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = time.perf_counter_ns()
                info["error"] = f"{type(exc).__name__}: {exc}"
                if extra is not None:
                    extra(args, None, exc, info)
                raise
            else:
                t1 = time.perf_counter_ns()
                if extra is not None:
                    extra(args, result, None, info)
                return result
            finally:
                stack.pop()
                if ends_trace:
                    self._local.trace = None
                self.spans.append((sid, parent, trace, name, t0, t1, info or None))

        return wrapper

    # -- per-function extras ----------------------------------------------

    def _top_k_extra(self, args, result, exc, info):
        key = (hashlib.blake2b(args[1].tobytes(), digest_size=16).digest(), int(args[2]))
        if key in self._seen_queries:
            info["repeat"] = 1
        self._seen_queries.add(key)

    @staticmethod
    def _embed_extra(args, result, exc, info):
        # HashEmbedder.embed bumps empty_count exactly when the vector is zero.
        if result is not None and not result.any():
            info["zero"] = 1

    @staticmethod
    def _generate_extra(args, result, exc, info):
        if result is not None:
            info["tokens"] = len(result.tokens)

    @staticmethod
    def _save_checkpoint_extra(args, result, exc, info):
        if exc is None:
            info["bytes"] = os.path.getsize(args[1])

    @staticmethod
    def _select_extra(args, result, exc, info):
        if result is not None:
            bundle = result[1]
            info["route"] = bundle.route.value
            if bundle.reward_guard is not None:
                info["guard"] = bundle.reward_guard

    @staticmethod
    def _postprocess_extra(args, result, exc, info):
        if exc is not None and "empty output" in str(exc):
            info["empty"] = 1

    @staticmethod
    def _train_reward_extra(args, result, exc, info):
        info["pairs"] = len(args[1])

    @staticmethod
    def _urlopen_extra(args, result, exc, info):
        # Replies and HTTPErrors carry headers; transport errors do not.
        headers = getattr(result if result is not None else exc, "headers", None)
        if headers is not None and headers.get("X-Service-Ns"):
            info["service_ns"] = int(headers["X-Service-Ns"])

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        import genki.textstats

        extras = {
            "retriever.top_k": self._top_k_extra,
            "retriever.HashEmbedder.embed": self._embed_extra,
            "lm_core.ToyLm.generate": self._generate_extra,
            "lm_core.save_checkpoint": self._save_checkpoint_extra,
            "ensemble.select": self._select_extra,
            "generation.postprocess": self._postprocess_extra,
            "reward.train_reward": self._train_reward_extra,
            "clients.urlopen": self._urlopen_extra,
        }
        for module_name, path in TARGETS:
            module = sys.modules[module_name]
            name = _span_name(module_name, path)
            kwargs = {
                "extra": extras.get(name),
                "starts_trace": name == "generation.answer_paths",
                "ends_trace": name == "ensemble.select",
            }
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, **kwargs))
                else:
                    wrapped = self._wrap(name, raw, **kwargs)
                self._patch(cls, attr, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self._wrap(name, original, **kwargs)
            for site in _lookup_sites(module):
                for attr, value in list(vars(site).items()):
                    if value is original:
                        self._patch(site, attr, wrapped)
        self._oov_before = genki.textstats.OOV_WORDS.count

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        import genki.textstats

        self.oov_fallbacks = genki.textstats.OOV_WORDS.count - self._oov_before
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: str) -> None:
        payload = {"oov_fallbacks": self.oov_fallbacks, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _lookup_sites(module) -> list:
    """Modules that may hold a reference to one of *module*'s functions."""
    sites = [m for n, m in sorted(sys.modules.items()) if n == "genki" or n.startswith("genki.")]
    if module not in sites:
        sites.insert(0, module)
    return sites

