"""Querying chat-completion model endpoints and deterministic stub models.

The API key is read from an environment variable at request time; only the
*name* of that variable is ever stored or serialized, so no emitted file
(manifest, records, logs) can contain the secret itself.
"""
from __future__ import annotations

import math
import os
import random
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import timezone
from email.utils import parsedate_to_datetime
from typing import Callable

import requests

from .calculus import Direction9, ViewFrame
from .grade import GradeResult, Metrics, ParsedAnswer, aggregate, grade, reject_repeated_ids
from .netgen import BenchmarkInstance, QType
from .textgen import Lexicon, default_lexicon, relation_phrases, render_prompt


class EvalError(RuntimeError):
    pass


class AuthError(EvalError):
    pass


class RateLimitError(EvalError):
    pass


class TransportError(EvalError):
    pass


class BadResponseError(EvalError):
    pass


@dataclass(frozen=True)
class ModelEndpoint:
    """An OpenAI-style chat completions endpoint.

    ``api_key_env`` names the environment variable holding the key; the key
    value itself never lives on this object.  ``api_version``, when
    non-empty, is passed as the ``api-version`` query parameter (Azure-style
    endpoints require it; set it to "" for servers that reject unknown
    parameters).
    """

    base_url: str
    model: str
    api_key_env: str = "QSRBENCH_API_KEY"
    api_version: str = "2023-09-15-preview"
    temperature: float = 0.0
    timeout: float = 60.0
    max_retries: int = 4

    def api_key(self) -> str:
        key = os.environ.get(self.api_key_env, "")
        if not key:
            raise AuthError(f"environment variable {self.api_key_env} is not set")
        return key

    def public_manifest(self) -> dict[str, object]:
        return {
            "base_url": self.base_url,
            "model": self.model,
            "api_key_env": self.api_key_env,
            "api_version": self.api_version,
            "temperature": self.temperature,
            "timeout": self.timeout,
        }


@dataclass
class ModelReply:
    text: str
    latency: float
    retries: int = 0


#: Jitter for retry backoff, so concurrent workers do not retry in lockstep;
#: seeded from the OS, apart from every stub's RNG.
_backoff_rng = random.Random()


def _retry_after(resp: requests.Response) -> float:
    """Seconds a 429 response asks the client to wait: its ``Retry-After``
    as a number of seconds or as an HTTP date, from now; 0 unless that is
    finite and positive."""
    value = resp.headers.get("Retry-After", "")
    try:
        seconds = float(value)
    except ValueError:
        try:
            when = parsedate_to_datetime(value)
        except (TypeError, ValueError):
            return 0.0  # absent or malformed
        if when.tzinfo is None:  # a "-0000" zone; HTTP dates are in GMT
            when = when.replace(tzinfo=timezone.utc)
        seconds = when.timestamp() - time.time()
    return seconds if 0 < seconds < math.inf else 0.0


def query_model(endpoint: ModelEndpoint, prompt: str) -> ModelReply:
    """POST one chat completion, retrying transient failures with jittered
    exponential backoff; a 429 waits at least its ``Retry-After``."""
    url = endpoint.base_url.rstrip("/") + "/chat/completions"
    if endpoint.api_version:
        url += f"?api-version={endpoint.api_version}"
    payload = {
        "model": endpoint.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": endpoint.temperature,
    }
    headers = {"Authorization": f"Bearer {endpoint.api_key()}"}
    last: Exception | None = None
    for attempt in range(endpoint.max_retries + 1):
        start = time.monotonic()
        wait = 0.0
        try:
            resp = requests.post(url, json=payload, headers=headers, timeout=endpoint.timeout)
        except requests.RequestException as exc:
            last = TransportError(str(exc))
        else:
            if resp.status_code in (401, 403):
                raise AuthError(f"endpoint rejected credentials ({resp.status_code})")
            if resp.status_code == 429:
                last = RateLimitError("rate limited")
                wait = _retry_after(resp)
            elif resp.status_code >= 500:
                last = TransportError(f"server error {resp.status_code}")
            elif resp.status_code != 200:
                raise BadResponseError(f"unexpected status {resp.status_code}")
            else:
                try:
                    text = resp.json()["choices"][0]["message"]["content"]
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    raise BadResponseError(f"malformed completion payload: {exc}") from exc
                return ModelReply(
                    text=text, latency=time.monotonic() - start, retries=attempt
                )
        if attempt < endpoint.max_retries:
            backoff = min(2.0**attempt * 0.5, 8.0) * _backoff_rng.uniform(0.5, 1.0)
            time.sleep(max(backoff, wait))
    raise last if last is not None else TransportError("request failed")


# --- answer parsing ---------------------------------------------------------

_YES_NO_RE = re.compile(r"\b(yes|no)\b", re.IGNORECASE)


def parse_answer(
    text: str, qtype: QType, view: ViewFrame, lexicon: Lexicon | None = None
) -> ParsedAnswer:
    """Reduce a free-form reply to a decision.

    Yes/no: the first standalone "yes"/"no" token wins.  Free response: the
    earliest direction phrase in the reply wins, longer phrases matching
    before their substrings ("north-east" before "north").
    """
    lexicon = lexicon or default_lexicon()
    if qtype is QType.YN:
        m = _YES_NO_RE.search(text)
        if not m:
            return ParsedAnswer(raw=text)
        return ParsedAnswer(yn=m.group(1).capitalize(), raw=text)

    lowered = text.lower()
    phrases = relation_phrases(lexicon, view)
    best: tuple[int, int, Direction9] | None = None  # (start, -len, direction)
    for phrase, direction in phrases.items():
        pos = lowered.find(phrase.lower())
        if pos < 0:
            continue
        key = (pos, -len(phrase), direction)
        if best is None or key[:2] < best[:2]:
            best = key
    if best is None:
        return ParsedAnswer(raw=text)
    return ParsedAnswer(direction=best[2], raw=text)


# --- stub models ------------------------------------------------------------

#: a model, stub or endpoint: the reply to one instance's prompt
Responder = Callable[[BenchmarkInstance, str], ModelReply]


def gold_stub(lexicon: Lexicon | None = None) -> Responder:
    """Always answers with the stored gold label / continuous direction."""
    lexicon = lexicon or default_lexicon()

    def respond(inst: BenchmarkInstance, prompt: str) -> ModelReply:
        if inst.query.qtype is QType.YN:
            return ModelReply(text=inst.query.label or "Yes", latency=0.0)
        table = lexicon.directions[inst.config.view]
        return ModelReply(text=table[inst.gold_direction], latency=0.0)

    return respond


def random_stub(seed: int, lexicon: Lexicon | None = None) -> Responder:
    """Uniform random choice over the legal answer space, seeded."""
    lexicon = lexicon or default_lexicon()
    rng = random.Random(seed)

    def respond(inst: BenchmarkInstance, prompt: str) -> ModelReply:
        if inst.query.qtype is QType.YN:
            return ModelReply(text=rng.choice(["Yes", "No"]), latency=0.0)
        table = lexicon.directions[inst.config.view]
        direction = rng.choice(list(Direction9))
        return ModelReply(text=table[direction], latency=0.0)

    return respond


def always_yes_stub() -> Responder:
    def respond(inst: BenchmarkInstance, prompt: str) -> ModelReply:
        return ModelReply(text="Yes", latency=0.0)

    return respond


STUB_FACTORIES: dict[str, Callable[..., Responder]] = {
    "gold": lambda seed=0: gold_stub(),
    "random": lambda seed=0: random_stub(seed),
    "always-yes": lambda seed=0: always_yes_stub(),
}


# --- runs -------------------------------------------------------------------


@dataclass
class EvalRecord:
    instance_id: int
    prompt: str
    reply: str
    parsed: ParsedAnswer
    latency: float
    retries: int = 0
    error: str | None = None


@dataclass
class EvalRun:
    mode: str
    records: list[EvalRecord] = field(default_factory=list)
    results: list[GradeResult] = field(default_factory=list)
    metrics: list[Metrics] = field(default_factory=list)
    manifest: dict[str, object] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        total = sum(m.total for m in self.metrics)
        correct = sum(m.correct for m in self.metrics)
        return correct / total if total else 0.0


def endpoint_responder(endpoint: ModelEndpoint) -> Responder:
    def respond(inst: BenchmarkInstance, prompt: str) -> ModelReply:
        return query_model(endpoint, prompt)

    return respond


def run_eval(
    instances: list[BenchmarkInstance],
    responder: Responder,
    mode: str,
    concurrency: int = 4,
    manifest_extra: dict[str, object] | None = None,
    preamble_mode: str = "plain",
    lexicon: Lexicon | None = None,
) -> EvalRun:
    """Query, parse, and grade every instance, preserving dataset order.

    A failed request yields a record with the error noted and an empty
    (unparseable) answer; the run always completes.  A repeated instance id
    raises :class:`ValueError` before any request is made, since grading
    matches answers to instances by id.
    """
    reject_repeated_ids("instance", [inst.id for inst in instances])
    lexicon = lexicon or default_lexicon()
    run = EvalRun(mode=mode)
    run.manifest = {
        "mode": mode,
        "count": len(instances),
        "concurrency": concurrency,
        "preamble": preamble_mode,
    }
    if manifest_extra:
        run.manifest.update(manifest_extra)

    def one(inst: BenchmarkInstance) -> EvalRecord:
        prompt = render_prompt(inst, preamble_mode=preamble_mode)
        try:
            reply = responder(inst, prompt)
        except EvalError as exc:
            return EvalRecord(
                inst.id,
                prompt,
                "",
                ParsedAnswer(raw=""),
                0.0,
                error=f"{type(exc).__name__}: {exc}",
            )
        parsed = parse_answer(reply.text, inst.query.qtype, inst.config.view, lexicon)
        return EvalRecord(inst.id, prompt, reply.text, parsed, reply.latency, reply.retries)

    if concurrency <= 1:
        run.records = [one(inst) for inst in instances]
    else:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            run.records = list(pool.map(one, instances))

    run.results = [grade(inst, rec.parsed) for inst, rec in zip(instances, run.records)]
    run.metrics = aggregate(instances, run.results)
    return run
