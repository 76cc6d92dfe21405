"""Tests for the model-evaluation harness: parsing, stubs, transport."""

from __future__ import annotations

import json
import time

import pytest

from qsrbench.calculus import Direction9, ViewFrame
from qsrbench.evalharness import (
    AuthError,
    BadResponseError,
    ModelEndpoint,
    ModelReply,
    RateLimitError,
    TransportError,
    always_yes_stub,
    endpoint_responder,
    gold_stub,
    parse_answer,
    query_model,
    random_stub,
    run_eval,
)
from qsrbench.netgen import GenConfig, QType, Setting, generate_dataset

import qsrbench.evalharness as eh


def make_instances(qtype, count=8, view=ViewFrame.TOP_DOWN, seed=43):
    cfg = GenConfig(
        n=4, d=81, m=3, setting=Setting.O2_D2, view=view, qtype=qtype
    )
    return generate_dataset(master_seed=seed, count=count, config=cfg).instances


class TestParseAnswer:
    def test_yn_yes_with_justification(self):
        parsed = parse_answer(
            "Yes, because the bed lies north of the desk.",
            QType.YN,
            ViewFrame.TOP_DOWN,
        )
        assert parsed.yn == "Yes"
        assert parsed.direction is None

    def test_yn_lowercase_no(self):
        assert parse_answer("no way", QType.YN, ViewFrame.TOP_DOWN).yn == "No"

    def test_yn_first_token_wins(self):
        assert parse_answer("No. Well, yes.", QType.YN, ViewFrame.TOP_DOWN).yn == "No"

    def test_yn_requires_standalone_token(self):
        parsed = parse_answer("yesterday it moved", QType.YN, ViewFrame.TOP_DOWN)
        assert parsed.empty
        assert parsed.raw == "yesterday it moved"

    def test_yn_unparseable(self):
        assert parse_answer("It depends.", QType.YN, ViewFrame.TOP_DOWN).empty

    def test_fr_longest_phrase_wins(self):
        parsed = parse_answer(
            "The bed is to the north-east of the desk.",
            QType.FR,
            ViewFrame.TOP_DOWN,
        )
        assert parsed.direction is Direction9.NE

    def test_fr_earliest_phrase_wins(self):
        parsed = parse_answer(
            "south, though one could argue for north", QType.FR, ViewFrame.TOP_DOWN
        )
        assert parsed.direction is Direction9.S

    def test_fr_overlap_top_down(self):
        parsed = parse_answer(
            "They overlap completely.", QType.FR, ViewFrame.TOP_DOWN
        )
        assert parsed.direction is Direction9.O

    def test_fr_north_facing_vocabulary(self):
        parsed = parse_answer(
            "It is behind and to the left of the sofa.",
            QType.FR,
            ViewFrame.NORTH_FACING,
        )
        assert parsed.direction is Direction9.NW
        front = parse_answer("in front of the rug", QType.FR, ViewFrame.NORTH_FACING)
        assert front.direction is Direction9.S

    def test_fr_wrong_view_vocabulary_is_unparseable(self):
        assert parse_answer("behind the sofa", QType.FR, ViewFrame.TOP_DOWN).empty

    def test_fr_unparseable(self):
        assert parse_answer("It depends.", QType.FR, ViewFrame.TOP_DOWN).empty


class TestStubs:
    @pytest.mark.parametrize("qtype", [QType.YN, QType.FR])
    def test_gold_stub_scores_perfectly(self, qtype):
        instances = make_instances(qtype)
        run = run_eval(instances, gold_stub(), mode="gold", concurrency=2)
        assert run.accuracy == 1.0
        assert all(rec.error is None for rec in run.records)

    def test_gold_stub_north_facing(self):
        instances = make_instances(QType.FR, view=ViewFrame.NORTH_FACING)
        run = run_eval(instances, gold_stub(), mode="gold", concurrency=1)
        assert run.accuracy == 1.0

    def test_random_stub_is_deterministic(self):
        instances = make_instances(QType.YN, count=12)
        first = run_eval(instances, random_stub(5), mode="random", concurrency=1)
        second = run_eval(instances, random_stub(5), mode="random", concurrency=1)
        assert [r.reply for r in first.records] == [r.reply for r in second.records]

    def test_random_stub_seed_changes_replies(self):
        instances = make_instances(QType.YN, count=12)
        a = run_eval(instances, random_stub(5), mode="random", concurrency=1)
        b = run_eval(instances, random_stub(6), mode="random", concurrency=1)
        assert [r.reply for r in a.records] != [r.reply for r in b.records]

    def test_always_yes_matches_yes_fraction(self):
        instances = make_instances(QType.YN, count=20)
        run = run_eval(instances, always_yes_stub(), mode="always-yes", concurrency=1)
        yes_fraction = sum(
            inst.query.label == "Yes" for inst in instances
        ) / len(instances)
        assert run.accuracy == pytest.approx(yes_fraction)


class TestRunEval:
    def test_records_preserve_dataset_order(self):
        instances = make_instances(QType.YN, count=10)
        run = run_eval(instances, gold_stub(), mode="gold", concurrency=4)
        assert [r.instance_id for r in run.records] == [i.id for i in instances]

    def test_failed_requests_become_error_records(self):
        instances = make_instances(QType.YN, count=6)

        def flaky(inst, prompt):
            if inst.id % 2 == 1:
                raise TransportError("socket closed")
            return ModelReply(text=inst.query.label, latency=0.0)

        run = run_eval(instances, flaky, mode="flaky", concurrency=3)
        assert len(run.records) == len(instances)
        for rec, res in zip(run.records, run.results):
            if rec.instance_id % 2 == 1:
                assert rec.error == "TransportError: socket closed"
                assert rec.reply == ""
                assert rec.parsed.empty
                assert not res.correct
            else:
                assert rec.error is None
                assert res.correct

    def test_repeated_instance_id_fails_before_any_request(self):
        instances = make_instances(QType.FR, count=3)
        calls = []

        def counting(inst, prompt):
            calls.append(inst.id)
            return ModelReply(text="north", latency=0.0)

        with pytest.raises(ValueError, match="instance id 0 appears more than once"):
            run_eval(instances + instances, counting, mode="count", concurrency=1)
        assert calls == []

    def test_manifest_contents(self):
        instances = make_instances(QType.YN, count=4)
        run = run_eval(
            instances,
            gold_stub(),
            mode="gold",
            concurrency=2,
            manifest_extra={"dataset_sha256": "abc123"},
            preamble_mode="task_described",
        )
        assert run.manifest["mode"] == "gold"
        assert run.manifest["count"] == 4
        assert run.manifest["concurrency"] == 2
        assert run.manifest["preamble"] == "task_described"
        assert run.manifest["dataset_sha256"] == "abc123"

    def test_preamble_mode_shapes_prompts(self):
        instances = make_instances(QType.YN, count=2)
        run = run_eval(
            instances, gold_stub(), mode="gold", preamble_mode="task_described"
        )
        assert all(
            rec.prompt.startswith("Analyze the spatial relationships")
            for rec in run.records
        )


class FakeResponse:
    def __init__(self, status_code, payload=None, malformed=False, headers=None):
        self.status_code = status_code
        self._payload = payload
        self._malformed = malformed
        self.headers = headers or {}

    def json(self):
        if self._malformed:
            raise ValueError("not json")
        return self._payload


def completion(text):
    return {"choices": [{"message": {"content": text}}]}


@pytest.fixture()
def endpoint(monkeypatch):
    monkeypatch.setenv("QSRBENCH_API_KEY", "sk-sentinel-value")
    monkeypatch.setattr(time, "sleep", lambda s: None)
    return ModelEndpoint(base_url="https://api.example.test/v1", model="demo")


class TestQueryModel:
    def test_success_request_shape(self, endpoint, monkeypatch):
        seen = {}

        def fake_post(url, json=None, headers=None, timeout=None):
            seen.update(url=url, payload=json, headers=headers, timeout=timeout)
            return FakeResponse(200, completion("Yes."))

        monkeypatch.setattr(eh.requests, "post", fake_post)
        reply = query_model(endpoint, "Is it north?")
        assert reply.text == "Yes."
        assert reply.retries == 0
        assert seen["url"] == (
            "https://api.example.test/v1/chat/completions"
            "?api-version=2023-09-15-preview"
        )
        assert seen["payload"]["model"] == "demo"
        assert seen["payload"]["temperature"] == 0.0
        assert seen["payload"]["messages"] == [
            {"role": "user", "content": "Is it north?"}
        ]
        assert seen["headers"]["Authorization"] == "Bearer sk-sentinel-value"
        assert seen["timeout"] == endpoint.timeout

    def test_empty_api_version_omits_query_param(self, endpoint, monkeypatch):
        ep = ModelEndpoint(
            base_url="https://api.example.test/v1", model="demo", api_version=""
        )
        seen = {}

        def fake_post(url, **kwargs):
            seen["url"] = url
            return FakeResponse(200, completion("ok"))

        monkeypatch.setattr(eh.requests, "post", fake_post)
        query_model(ep, "q")
        assert seen["url"] == "https://api.example.test/v1/chat/completions"

    def test_rate_limit_retries_then_succeeds(self, endpoint, monkeypatch):
        responses = [
            FakeResponse(429),
            FakeResponse(429),
            FakeResponse(200, completion("North.")),
        ]
        calls = []

        def fake_post(url, **kwargs):
            calls.append(url)
            return responses[len(calls) - 1]

        monkeypatch.setattr(eh.requests, "post", fake_post)
        reply = query_model(endpoint, "q")
        assert reply.text == "North."
        assert reply.retries == 2
        assert len(calls) == 3

    def test_auth_failure_does_not_retry(self, endpoint, monkeypatch):
        calls = []

        def fake_post(url, **kwargs):
            calls.append(url)
            return FakeResponse(401)

        monkeypatch.setattr(eh.requests, "post", fake_post)
        with pytest.raises(AuthError):
            query_model(endpoint, "q")
        assert len(calls) == 1

    def test_persistent_server_error_exhausts_budget(self, endpoint, monkeypatch):
        calls = []

        def fake_post(url, **kwargs):
            calls.append(url)
            return FakeResponse(503)

        monkeypatch.setattr(eh.requests, "post", fake_post)
        with pytest.raises(TransportError):
            query_model(endpoint, "q")
        assert len(calls) == endpoint.max_retries + 1

    def test_unexpected_status_is_bad_response(self, endpoint, monkeypatch):
        monkeypatch.setattr(eh.requests, "post", lambda url, **kw: FakeResponse(404))
        with pytest.raises(BadResponseError):
            query_model(endpoint, "q")

    def test_malformed_json_is_bad_response(self, endpoint, monkeypatch):
        monkeypatch.setattr(
            eh.requests, "post", lambda url, **kw: FakeResponse(200, malformed=True)
        )
        with pytest.raises(BadResponseError):
            query_model(endpoint, "q")

    def test_empty_choices_is_bad_response(self, endpoint, monkeypatch):
        monkeypatch.setattr(
            eh.requests, "post", lambda url, **kw: FakeResponse(200, {"choices": []})
        )
        with pytest.raises(BadResponseError):
            query_model(endpoint, "q")

    def test_connection_errors_retry_then_raise(self, endpoint, monkeypatch):
        calls = []

        def fake_post(url, **kwargs):
            calls.append(url)
            raise eh.requests.ConnectionError("refused")

        monkeypatch.setattr(eh.requests, "post", fake_post)
        with pytest.raises(TransportError):
            query_model(endpoint, "q")
        assert len(calls) == endpoint.max_retries + 1

    def test_missing_key_fails_before_any_request(self, endpoint, monkeypatch):
        monkeypatch.delenv("QSRBENCH_API_KEY")
        calls = []
        monkeypatch.setattr(
            eh.requests, "post", lambda url, **kw: calls.append(url)
        )
        with pytest.raises(AuthError):
            query_model(endpoint, "q")
        assert calls == []

    @pytest.fixture()
    def waits(self, endpoint, monkeypatch):
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        return slept

    @staticmethod
    def respond_with(monkeypatch, responses):
        queue = list(responses)
        monkeypatch.setattr(eh.requests, "post", lambda url, **kw: queue.pop(0))

    def test_rate_limit_waits_at_least_retry_after(self, endpoint, waits, monkeypatch):
        self.respond_with(monkeypatch, [
            FakeResponse(429, headers={"Retry-After": "7"}),
            FakeResponse(429, headers={"Retry-After": "0.25"}),
            FakeResponse(200, completion("North.")),
        ])
        assert query_model(endpoint, "q").retries == 2
        assert waits[0] >= 7
        assert 0.5 <= waits[1] <= 1.0  # the backoff is longer than 0.25 s

    def test_http_date_retry_after_is_honoured(self, endpoint, waits, monkeypatch):
        # the clock reads 07:27:50 GMT
        monkeypatch.setattr(time, "time", lambda: 1792567670.0)
        self.respond_with(monkeypatch, [
            FakeResponse(429, headers={"Retry-After": "Wed, 21 Oct 2026 07:28:00 GMT"}),
            FakeResponse(429, headers={"Retry-After": "Wed, 21 Oct 2026 07:27:50 -0000"}),
            FakeResponse(200, completion("North.")),
        ])
        assert query_model(endpoint, "q").retries == 2
        assert waits[0] == 10.0
        assert 0.5 <= waits[1] <= 1.0  # no time left: the backoff

    def test_non_numeric_retry_after_falls_back_to_backoff(self, endpoint, waits, monkeypatch):
        monkeypatch.setattr(time, "time", lambda: 1792567670.0)
        headers = [
            {"Retry-After": "Wed, 21 Oct 2026 07:27:00 GMT"},  # a minute ago
            {"Retry-After": "Wed, 32 Oct 2026 07:28:00 GMT"},
            {"Retry-After": "nan"},
            {},
        ]
        self.respond_with(
            monkeypatch,
            [FakeResponse(429, headers=h) for h in headers] + [FakeResponse(200, completion("ok"))],
        )
        query_model(endpoint, "q")
        for attempt, wait in enumerate(waits):
            assert 0.5 * 0.5 * 2**attempt <= wait <= 0.5 * 2**attempt

    def test_backoff_is_jittered(self, endpoint, waits, monkeypatch):
        ep = ModelEndpoint(base_url=endpoint.base_url, model="demo", max_retries=12)
        self.respond_with(monkeypatch, [FakeResponse(503)] * 13)
        with pytest.raises(TransportError):
            query_model(ep, "q")
        assert len(waits) == 12
        for attempt, wait in enumerate(waits):
            base = min(2.0**attempt * 0.5, 8.0)
            assert 0.5 * base <= wait <= base
        # the waits capped at 8 s still differ from one another
        assert len(set(waits[5:])) > 1

    def test_jitter_draws_from_neither_the_stubs_nor_the_global_rng(
        self, endpoint, waits, monkeypatch
    ):
        instances = make_instances(QType.FR, count=6)
        reference, stub = random_stub(seed=5), random_stub(seed=5)
        expected = [reference(inst, "").text for inst in instances]
        state = eh.random.getstate()
        replies = []
        for inst in instances:
            self.respond_with(monkeypatch, [FakeResponse(503), FakeResponse(200, completion("ok"))])
            query_model(endpoint, "q")
            replies.append(stub(inst, "").text)
        assert replies == expected
        assert eh.random.getstate() == state
        assert len(waits) == len(instances)


class TestSecretHygiene:
    def test_manifest_never_contains_key(self, endpoint):
        manifest = endpoint.public_manifest()
        dumped = json.dumps(manifest)
        assert "sk-sentinel-value" not in dumped
        assert manifest["api_key_env"] == "QSRBENCH_API_KEY"

    def test_eval_run_artifacts_never_contain_key(self, endpoint, monkeypatch):
        monkeypatch.setattr(
            eh.requests,
            "post",
            lambda url, **kw: FakeResponse(200, completion("Yes.")),
        )
        instances = make_instances(QType.YN, count=3)
        run = run_eval(
            instances,
            endpoint_responder(endpoint),
            mode="endpoint",
            concurrency=1,
            manifest_extra=endpoint.public_manifest(),
        )
        blob = json.dumps(
            {
                "manifest": run.manifest,
                "records": [
                    (r.instance_id, r.prompt, r.reply, r.error) for r in run.records
                ],
            }
        )
        assert "sk-sentinel-value" not in blob
