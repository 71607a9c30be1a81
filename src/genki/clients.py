"""HTTP clients so external services can back the scorer and judge interfaces.

Wire protocol, JSON over POST:

    /score    {context, target}                        -> {logprob}
    /judge    {question, answer_1, answer_2, format}   -> {choice: 1|2, rationale?}

Nothing in the core touches the network unless one of these clients is
explicitly constructed.  The bearer token comes from the GENKI_API_TOKEN
environment variable at request time; config files never carry secrets.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import urllib.parse
from dataclasses import dataclass

from .corpus import NUMBER, CorpusError, TokenSeq, check, parse_json_object
from .ensemble import Choice
from .reward import FormatSpec

logger = logging.getLogger(__name__)

AUTH_ENV_VAR = "GENKI_API_TOKEN"


class ClientError(Exception):
    """Base class for remote-backend failures."""


class TransportError(ClientError):
    """Timeout or connection failure that survived all retries."""


class HttpStatusError(ClientError):
    """Non-2xx response."""

    def __init__(self, message: str, status: int):
        super().__init__(message)
        self.status = status


class ProtocolError(ClientError):
    """Malformed JSON or a response violating the schema or its invariants."""


@dataclass(frozen=True)
class EndpointConfig:
    """Where and how to reach a remote backend."""

    base_url: str
    timeout_ms: int = 10_000
    retries: int = 0
    max_in_flight: int = 4

    def __post_init__(self) -> None:
        if not self.base_url:
            raise ValueError("base_url must be non-empty")
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme.lower() not in ("http", "https"):
            raise ValueError(f"base_url must be an http or https URL, got {self.base_url!r}")
        if not parts.hostname:
            raise ValueError(f"base_url must name a host, got {self.base_url!r}")
        if self.timeout_ms < 1:
            raise ValueError("timeout_ms must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


class _JsonHttpClient:
    """POST JSON, parse JSON, with retries and an in-flight request bound."""

    def __init__(self, cfg: EndpointConfig):
        self.cfg = cfg
        self._limiter = threading.BoundedSemaphore(cfg.max_in_flight)

    def post(self, path: str, payload: dict) -> dict:
        # Imported late: urllib.request loads http.client, email and ssl.
        import http.client
        import urllib.error
        import urllib.request
        url = self.cfg.base_url.rstrip("/") + path
        body = json.dumps(payload).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(AUTH_ENV_VAR)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        attempts = self.cfg.retries + 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                logger.info("retrying %s (attempt %d of %d) after: %r",
                            path, attempt + 1, attempts, last_error)
            request = urllib.request.Request(url, data=body, headers=headers, method="POST")
            try:
                with self._limiter:
                    with urllib.request.urlopen(request, timeout=self.cfg.timeout_ms / 1000.0) as resp:
                        raw = resp.read()
            except urllib.error.HTTPError as exc:
                exc.close()  # the error is also the response; release its socket
                if 500 <= exc.code < 600 and attempt + 1 < attempts:
                    last_error = exc
                    continue
                raise HttpStatusError(f"{url}: HTTP {exc.code}", status=exc.code) from exc
            except (OSError, http.client.HTTPException) as exc:
                # URLError, timeouts, resets, bad status lines, truncated bodies
                last_error = exc
                continue
            try:
                return parse_json_object(raw, url)
            except CorpusError as exc:
                raise ProtocolError(str(exc)) from None
        raise TransportError(f"{url}: no response after {attempts} attempt(s): {last_error!r}")


class RemoteScorer:
    """LmScorer backed by the /score endpoint."""

    def __init__(self, cfg: EndpointConfig):
        self._client = _JsonHttpClient(cfg)

    def encode(self, text: str) -> TokenSeq:
        return TokenSeq((), text)  # the server only ever sees the text

    def logprob_cond(self, context: TokenSeq, target: TokenSeq) -> float:
        resp = self._client.post("/score", {"context": context.text, "target": target.text})
        try:
            value = check(resp.get("logprob"), NUMBER, "logprob", "/score reply")
        except CorpusError as exc:
            raise ProtocolError(str(exc)) from None
        if value > 0.0:
            raise ProtocolError(f"/score returned positive logprob {value}")
        return value


class RemoteJudge:
    """ExternalJudge backed by the /judge endpoint."""

    def __init__(self, cfg: EndpointConfig):
        self._client = _JsonHttpClient(cfg)

    def choose(self, question: str, a1: str, a2: str, format: FormatSpec) -> Choice:
        resp = self._client.post(
            "/judge",
            {
                "question": question,
                "answer_1": a1,
                "answer_2": a2,
                "format": format.wording,
            },
        )
        choice = resp.get("choice")
        if isinstance(choice, bool) or choice not in (1, 2):
            raise ProtocolError(f"/judge returned invalid choice: {choice!r}")
        rationale = resp.get("rationale")
        if rationale is not None:
            logger.debug("judge rationale: %s", rationale)
        return Choice.FIRST if choice == 1 else Choice.SECOND
