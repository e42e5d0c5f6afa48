from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ragmark.corpus import split_sentences
from ragmark.errors import BadResponseError, ConfigError, TransportError
from ragmark.generate import (
    NO_ANSWER,
    ExtractiveMockClient,
    GenerationRequest,
    RemoteGenerationClient,
    generate_mock_extractive,
    make_generation_client,
)


def req(prompt, **kwargs):
    return GenerationRequest(prompt=prompt, **kwargs)


class TestRequestValidation:
    def test_max_new_tokens_floor(self):
        with pytest.raises(ValueError):
            GenerationRequest(prompt="p", max_new_tokens=0)


class TestRemoteClient:
    def test_echo_endpoint_returns_prompt(self, http_stub):
        url = http_stub(lambda path, payload: (200, {"text": payload["prompt"]}))
        assert RemoteGenerationClient(url).generate(req("hello there")) == "hello there"

    def test_503_then_200_succeeds_with_one_retry(self, http_stub):
        state = {"calls": 0}

        def app(path, payload):
            state["calls"] += 1
            if state["calls"] == 1:
                return 503, {}
            return 200, {"text": "recovered"}

        url = http_stub(app)
        client = RemoteGenerationClient(url, retries=1)
        assert client.generate(req("p")) == "recovered"
        assert state["calls"] == 2

    def test_exhausted_retries_raise_transport(self, http_stub):
        url = http_stub(lambda path, payload: (500, {}))
        client = RemoteGenerationClient(url, retries=1)
        with pytest.raises(TransportError):
            client.generate(req("p"))

    def test_4xx_is_contract_not_transport(self, http_stub):
        url = http_stub(lambda path, payload: (404, {}))
        client = RemoteGenerationClient(url, retries=2)
        with pytest.raises(BadResponseError):
            client.generate(req("p"))

    def test_timeout_below_floor_is_config_error(self):
        with pytest.raises(ConfigError):
            RemoteGenerationClient("http://x", timeout_ms=5)

    def test_request_payload_shape(self, http_stub):
        seen = {}

        def app(path, payload):
            seen.update(payload)
            return 200, {"text": "ok"}

        url = http_stub(app)
        RemoteGenerationClient(url).generate(req("p", max_new_tokens=9))
        # decoding is always greedy, with no stop sequences
        assert seen == {"prompt": "p", "max_new_tokens": 9, "temperature": 0.0, "stop": []}


class TestExtractiveMock:
    def test_returns_first_context_sentence(self):
        prompt = "Context:\nS one is here. S two follows.\n\nQuestion: q?\nAnswer:"
        assert generate_mock_extractive(req(prompt)) == "S one is here."

    def test_no_context_block(self):
        assert generate_mock_extractive(req("Question: q?\nAnswer:")) == NO_ANSWER

    def test_empty_context_block(self):
        prompt = "Context:\n\n\nQuestion: q?\nAnswer:"
        assert generate_mock_extractive(req(prompt)) == NO_ANSWER

    @given(st.text(alphabet="Ab .!?3\n", max_size=60))
    @settings(max_examples=200)
    def test_first_sentence_of_the_whole_split(self, context):
        # the mock stops at the first boundary; that must equal the full split's head
        prompt = f"Context:\n{context}\n\nQuestion: q?\nAnswer:"
        sentences = split_sentences(context.strip())
        expected = sentences[0] if sentences else NO_ANSWER
        assert generate_mock_extractive(req(prompt)) == expected

    def test_deterministic_across_calls(self):
        client = ExtractiveMockClient()
        prompt = "Context:\nAlpha beta gamma. Delta.\n\nQuestion: q?\nAnswer:"
        outputs = {client.generate(req(prompt)) for _ in range(10)}
        assert outputs == {"Alpha beta gamma."}

    def test_unaffected_by_concurrent_interleaving(self):
        client = ExtractiveMockClient()
        prompt = "Context:\nStable answer here. Noise.\n\nQuestion: q?\nAnswer:"
        with ThreadPoolExecutor(max_workers=8) as pool:
            outputs = list(pool.map(lambda _: client.generate(req(prompt)), range(32)))
        assert set(outputs) == {"Stable answer here."}


class TestFactory:
    def test_specs(self):
        assert isinstance(make_generation_client("mock:extractive"), ExtractiveMockClient)
        assert isinstance(make_generation_client("http://host/"), RemoteGenerationClient)
        with pytest.raises(ValueError):
            make_generation_client("smoke-signals")
