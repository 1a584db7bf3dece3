"""Flat key-value run configuration files.

Lines look like ``scene.landmark_count = 4000``; '#' starts a comment.
The eleven keys are SceneConfig's ten fields (``scene.*``) and the
localizers' RANSAC seed (``pipeline.ransac.rng_seed``); any other key
fails to parse. The scene's and the method's other parameters are module
constants (see README.md). Values are coerced to the field's type.
Texture-poor arcs and query pans are written as colon-joined triples,
comma-separated.
"""

from __future__ import annotations

import dataclasses

from .pipeline import PipelineConfig
from .solvers import RansacConfig
from .synth import SceneConfig
from .textio import FormatError, read_lines


class ConfigError(Exception):
    pass


def _parse_triples(text, what):
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) != 3:
            raise ConfigError(f"bad {what} spec {part!r} (want a:b:c)")
        out.append((float(bits[0]), float(bits[1]), float(bits[2])))
    return out


def _coerce(field: dataclasses.Field, value: str):
    t = field.type
    if t in ("int", int):
        return int(value)
    if t in ("float", float):
        return float(value)
    if field.name == "texture_poor_arcs":
        return _parse_triples(value, "arc")
    if field.name == "query_pans":
        return [(int(s), int(e), z) for s, e, z in _parse_triples(value, "pan")]
    raise ConfigError(f"cannot parse value for {field.name}")


# key prefix -> the fields it may set
_SECTIONS = {
    "scene.": {f.name: f for f in dataclasses.fields(SceneConfig)},
    "pipeline.ransac.": {f.name: f for f in dataclasses.fields(RansacConfig) if f.name == "rng_seed"},
}


def parse_run_config(path):
    """Returns (SceneConfig, PipelineConfig). Rejects unknown keys."""
    kv = {prefix: {} for prefix in _SECTIONS}
    try:
        for ln, raw in read_lines(path):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key = value")
            key, value = (s.strip() for s in line.split("=", 1))
            prefix = next((p for p in _SECTIONS if key.startswith(p)), None)
            field = _SECTIONS[prefix].get(key[len(prefix) :]) if prefix else None
            if field is None:
                raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
            try:
                kv[prefix][field.name] = _coerce(field, value)
            except (ConfigError, ValueError, OverflowError) as e:
                raise ConfigError(f"{path}:{ln}: bad value for {key!r}: {e}") from e
    except FormatError as e:  # a config that is not UTF-8 text is a config error
        raise ConfigError(str(e)) from e

    try:
        scene = SceneConfig(**kv["scene."])
        pipeline = PipelineConfig(ransac=RansacConfig(**kv["pipeline.ransac."]))
    except Exception as e:  # dataclass invariants double as validation
        raise ConfigError(str(e)) from e
    return scene, pipeline
