"""Config file handling, defaults and run manifests.

Config files are INI-style key-value text; every value has a typed default
so a missing file or section is fine.  CLI flags override file values, which
override defaults; ``apply_overrides`` coerces and checks both, so every
command refuses a malformed or non-finite value anywhere in its config.  Range
checks stay with the code that reads a value.  A RunManifest (config snapshot,
seed, tool version, input digests, timestamps) accompanies every output
artifact; the timestamp lives only in manifest.json so all other artifacts are
byte-reproducible.
"""

from __future__ import annotations

import configparser
import copy
import hashlib
import json
import math
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .errors import InvalidConfig
from .model import (
    DEFAULT_CUTOFF_FACTOR,
    LatticeSpec,
    QuenchParams,
    derive_quench,
    lattice_for_quench,
    step_count,
)
from .units import ghz_um6_to_angular, mhz_to_angular

#: section -> key -> (type, default).  None defaults mean "unset".
SCHEMA: dict = {
    "lattice": {"Lx": (int, 3), "Ly": (int, 3)},
    "physics": {
        "omega_mhz": (float, 2.0),
        "h_x": (float, 2.5),
        "c6_ghz_um6": (float, 138.0),
        "cutoff_factor": (float, DEFAULT_CUTOFF_FACTOR),
    },
    "quench": {"t_pulse_ns": (float, 400.0), "dt_ns": (float, 1.0)},
    "mps": {"max_chi": (int, 64), "memory_budget_gb": (float, None)},
    "register": {
        "fill_p": (float, 0.5),
        "n_traps": (int, None),
        "p_transf": (float, 0.989),
        "p_pickup": (float, 0.998),
        "p_acci": (float, 0.0009),
        "p_loss": (float, 0.009),
    },
    "budget": {
        "alpha": (float, 0.05),
        "confidence": (float, 0.95),
        "shot_rate_hz": (float, 1.0),
        "qpu_power_kw": (float, 3.2),
    },
    "run": {"seed": (int, 0)},
}


def default_config() -> dict:
    return {
        section: {key: default for key, (_, default) in keys.items()}
        for section, keys in SCHEMA.items()
    }


def read_text(path: str | Path, what: str) -> str:
    """The UTF-8 text of the file at ``path``; a file that cannot be opened
    or decoded raises InvalidConfig naming it as ``what``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfig(f"cannot read {what} {path}: {exc}") from exc


def load_config(path: str | Path | None) -> dict:
    """Defaults overlaid, by ``apply_overrides``, with the INI file at ``path``.

    A file that ``read_text`` refuses, or that is not INI (a repeated section
    or key, a key before any section header, a line without ``=``), raises
    InvalidConfig naming the file.  Values are read verbatim: no setting uses
    ``%`` interpolation.
    """
    config = default_config()
    if path is None:
        return config
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(read_text(path, "config file"), source=str(path))
    except configparser.Error as exc:
        raise InvalidConfig(f"malformed config file {path}: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise InvalidConfig(f"unknown config section [{section}]")
        # configparser lower-cases keys; match the schema case-insensitively
        cased = {k.lower(): k for k in SCHEMA[section]}
        values[section] = {cased.get(key, key): raw for key, raw in parser.items(section)}
    return apply_overrides(config, values)


def apply_overrides(config: dict, overrides: dict) -> dict:
    """Overlay non-None `{section: {key: value}}` overrides on a config, each
    coerced to its schema type (a float for an int key only when it is whole)
    and, as a float, required to be finite."""
    out = copy.deepcopy(config)
    for section, keys in overrides.items():
        for key, value in keys.items():
            if value is None:
                continue
            if section not in SCHEMA or key not in SCHEMA[section]:
                raise InvalidConfig(f"unknown config key {section}.{key}")
            kind = SCHEMA[section][key][0]
            try:
                coerced = kind(value)
                if kind is int and isinstance(value, float) and coerced != value:
                    raise ValueError("int() would truncate it")
            except (TypeError, ValueError, OverflowError) as exc:
                raise InvalidConfig(f"bad value for {section}.{key}: {value!r}") from exc
            if isinstance(coerced, float) and not math.isfinite(coerced):
                raise InvalidConfig(f"{section}.{key} must be finite, got {coerced}")
            out[section][key] = coerced
    return out


def _physics(config: dict) -> tuple[float, float, float]:
    """(omega, h_x, c6) in internal units; all three must be positive."""
    phys = config["physics"]
    for key in ("omega_mhz", "h_x", "c6_ghz_um6"):
        if not phys[key] > 0:
            raise InvalidConfig(f"physics.{key} must be positive, got {phys[key]}")
    return mhz_to_angular(phys["omega_mhz"]), phys["h_x"], ghz_um6_to_angular(phys["c6_ghz_um6"])


def durations_from_config(config: dict) -> tuple[float, float]:
    """(t_pulse, dt) in seconds, refused by ``model.step_count`` unless dt is
    positive and t_pulse a non-negative whole number of dt steps."""
    quench = config["quench"]
    t_pulse, dt = quench["t_pulse_ns"] * 1e-9, quench["dt_ns"] * 1e-9
    step_count(t_pulse, dt)
    return t_pulse, dt


def _lattice_sides(config: dict) -> tuple[int, int]:
    """(Lx, Ly) of the config's lattice; both sides must be >= 1."""
    lx, ly = config["lattice"]["Lx"], config["lattice"]["Ly"]
    if lx < 1 or ly < 1:
        raise InvalidConfig(f"lattice sides must be >= 1, got Lx={lx}, Ly={ly}")
    return lx, ly


def sites_from_config(config: dict) -> int:
    """Lx * Ly of the config's lattice."""
    return math.prod(_lattice_sides(config))


def lattice_from_config(config: dict) -> LatticeSpec:
    return lattice_for_quench(*_lattice_sides(config), *_physics(config))


def params_from_config(config: dict, lattice: LatticeSpec) -> QuenchParams:
    t_pulse, dt = durations_from_config(config)
    return derive_quench(*_physics(config), lattice, t_pulse=t_pulse, dt=dt)


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def sha256_of_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def build_manifest(config: dict, input_paths: list = ()) -> dict:
    """Manifest core (timestamp-free) plus a created_utc stamp."""
    return {
        "tool": "quench-bench",
        "tool_version": __version__,
        "config": config,
        "seed": config["run"]["seed"],
        "inputs": {str(p): sha256_of_file(p) for p in input_paths},
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }


def manifest_core(manifest: dict) -> dict:
    return {k: v for k, v in manifest.items() if k != "created_utc"}


def manifest_digest(manifest: dict) -> str:
    canonical = json.dumps(manifest_core(manifest), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def dump_json(obj: dict, path: str | Path | None = None) -> str:
    """Deterministic, strict JSON text (sorted keys; NaN and Infinity raise
    ValueError, as JSON has no such values); writes to ``path`` when given."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text
