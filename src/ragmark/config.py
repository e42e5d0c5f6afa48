"""Flat key=value configuration with a central key registry.

Precedence is: built-in defaults, then the config file, then explicit flag
overrides. Every key is owned by exactly one module; unknown keys are
rejected rather than silently ignored.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

ENV_CONFIG_VAR = "RAGMARK_CONFIG"

DEFAULT_THRESHOLDS = ",".join(str(i / 10) for i in range(11))


@dataclass(frozen=True)
class ConfigKey:
    name: str
    default: str
    module: str
    help: str


_KEYS = [
    ConfigKey("qg.endpoint", "mock:0", "qagen",
              "Question generator: mock:<seed> or an http(s) URL."),
    ConfigKey("qg.timeout_ms", "10000", "qagen", "Question generator request timeout."),
    ConfigKey("qg.retries", "2", "qagen", "Retries after a transport failure."),
    ConfigKey("embed.endpoint", "local:256", "embed",
              "Embedder: local:<dim> or an http(s) URL."),
    ConfigKey("embed.batch_size", "64", "embed", "Max texts per embedding request."),
    ConfigKey("embed.timeout_ms", "10000", "embed", "Embedding request timeout."),
    ConfigKey("rag.model_max_input", "4096", "retrieve",
              "Model input size; prompt plus reserved answer tokens must fit."),
    ConfigKey("rag.answer_reserve", "256", "retrieve",
              "Tokens reserved for the generated answer."),
    ConfigKey("rag.template_path", "", "retrieve",
              "Optional prompt template file with {context} and {question} slots."),
    ConfigKey("gen.endpoint", "mock:extractive", "generate",
              "Generator: mock:extractive or an http(s) URL."),
    ConfigKey("gen.timeout_ms", "30000", "generate", "Generation request timeout."),
    ConfigKey("gen.retries", "1", "generate", "Retries after a transport failure or 5xx."),
    ConfigKey("exp.testset", "", "experiment", "Path to the test set JSONL."),
    ConfigKey("exp.index_sentences", "", "experiment", "Path to the sentence-keyed index."),
    ConfigKey("exp.index_questions", "", "experiment", "Path to the question-keyed index."),
    ConfigKey("exp.thresholds", DEFAULT_THRESHOLDS, "experiment",
              "Comma-separated similarity thresholds, strictly increasing."),
    ConfigKey("exp.seed", "0", "experiment", "Run seed, an integer; it changes no result yet."),
    ConfigKey("exp.output_dir", "out", "experiment", "Directory for report files."),
    ConfigKey("exp.failure_budget", "0.2", "experiment",
              "Abort a run when more than this fraction of questions fail."),
]

REGISTRY: dict[str, ConfigKey] = {k.name: k for k in _KEYS}


def default_config() -> dict[str, str]:
    return {k.name: k.default for k in _KEYS}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in REGISTRY:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        out[key] = value
    return out


def load_config_file(path: str | Path) -> dict[str, str]:
    p = Path(path)
    return parse_config_text(p.read_text(encoding="utf-8"), source=str(p))


def resolve_config(
    path: str | Path | None = None, overrides: dict[str, str] | None = None
) -> dict[str, str]:
    """defaults <- config file <- overrides; every key validated."""
    cfg = default_config()
    if path:
        cfg.update(load_config_file(path))
    for key, value in (overrides or {}).items():
        if key not in REGISTRY:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = value
    return cfg


def as_int(cfg: dict[str, str], key: str) -> int:
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}") from exc


def as_float(cfg: dict[str, str], key: str) -> float:
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {cfg[key]!r}") from exc


def as_float_list(cfg: dict[str, str], key: str) -> list[float]:
    try:
        return [float(part) for part in cfg[key].split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"{key} must be comma-separated numbers, got {cfg[key]!r}") from exc


def config_lines() -> list[str]:
    """One formatted line per registered key, for ``ragmark config --list``."""
    width = max(len(k.name) for k in _KEYS)
    return [
        f"{k.name:<{width}}  [{k.module}] default={k.default!r}  {k.help}"
        for k in _KEYS
    ]
