"""Run configuration: frontend + network + training, with preset loading.

The full schema is documented in docs/config-schema.md. Presets ship as JSON
data files; a run config can start from a preset or a user file and take
dotted-path overrides (``network.num_classes=9``) from the command line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .frontend import FrontendConfig
from .network import NetworkConfig
from .training import TrainConfig

PRESETS = ("reference", "toy")
SECTIONS = {"frontend": FrontendConfig, "network": NetworkConfig, "train": TrainConfig}


@dataclass(frozen=True)
class RunConfig:
    frontend: FrontendConfig
    network: NetworkConfig
    train: TrainConfig

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ConfigError(f"run config must be an object, not {type(doc).__name__}")
        for key in SECTIONS:
            if key not in doc:
                raise ConfigError(f"run config is missing the {key!r} section")
        try:
            frontend = FrontendConfig(**doc["frontend"])
        except TypeError as exc:
            raise ConfigError(f"malformed frontend config: {exc}") from exc
        return RunConfig(
            frontend=frontend,
            network=NetworkConfig.from_dict(doc["network"]),
            train=TrainConfig.from_dict(doc["train"]),
        )

    def to_dict(self) -> dict:
        return {
            "frontend": dict(self.frontend.__dict__),
            "network": json.loads(self.network.to_json()),
            "train": dict(self.train.__dict__),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def preset_dict(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESETS}")
    blob = resources.files("dacnet.configs").joinpath(f"{name}.json").read_text()
    return json.loads(blob)


def load_preset(name: str) -> RunConfig:
    return RunConfig.from_dict(preset_dict(name))


def load_config_file(path: str | Path) -> dict:
    try:
        return json.loads(Path(path).read_bytes())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8; nesting too deep
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc


def _is_field(keys: list[str]) -> bool:
    """True when ``keys`` is ``section.field`` for a field of the section's config class."""
    return (len(keys) == 2 and keys[0] in SECTIONS
            and keys[1] in {f.name for f in fields(SECTIONS[keys[0]])})


def apply_override(doc: dict, assignment: str) -> None:
    """Apply one ``dotted.path=json_value`` override in place.

    The path must exist in ``doc`` or name a field of a section that ``doc``
    has, so a field the document leaves at its default can be set.
    """
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form key=value")
    dotted, raw = assignment.split("=", 1)
    keys = dotted.strip().split(".")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings are allowed unquoted
    node = doc
    for key in keys[:-1]:
        node = node.get(key) if isinstance(node, dict) else None
    if not isinstance(node, dict) or not (keys[-1] in node or _is_field(keys)):
        raise ConfigError(f"override path {dotted!r} does not exist in the config")
    node[keys[-1]] = value


def resolve_run_config(
    preset: str = "toy",
    config_path: str | Path | None = None,
    overrides: list[str] | None = None,
) -> RunConfig:
    doc = load_config_file(config_path) if config_path else preset_dict(preset)
    for assignment in overrides or []:
        apply_override(doc, assignment)
    return RunConfig.from_dict(doc)
