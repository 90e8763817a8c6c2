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
from .validation import config_from_dict, config_to_dict

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
        return RunConfig(**{key: config_from_dict(cls, doc[key], key)
                            for key, cls in SECTIONS.items()})

    def to_json(self) -> str:
        return json.dumps(config_to_dict(self), indent=2)


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


def apply_override(doc: dict, assignment: str) -> None:
    """Set ``section.field=json_value`` in ``doc``, which must have the section;
    the field must be in the section's schema but need not be in ``doc``."""
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form key=value")
    dotted, raw = assignment.split("=", 1)
    section, _, name = dotted.strip().partition(".")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings are allowed unquoted
    node = doc.get(section) if isinstance(doc, dict) else None
    if (section not in SECTIONS or not isinstance(node, dict)
            or name not in {f.name for f in fields(SECTIONS[section])}):
        raise ConfigError(f"override path {dotted!r} does not exist in the config")
    node[name] = value


def resolve_run_config(
    preset: str = "toy",
    config_path: str | Path | None = None,
    overrides: list[str] | None = None,
) -> RunConfig:
    doc = load_config_file(config_path) if config_path else preset_dict(preset)
    for assignment in overrides or []:
        apply_override(doc, assignment)
    return RunConfig.from_dict(doc)
