"""Run configuration: INI parsing, validation, canonical digest, builders.

A config file fixes everything a command needs to be reproducible; the
sha256 digest of the canonical serialization names the run, so two invocations
with the same digest must produce byte-identical outputs. Seed overrides
change the digest because they change the effective configuration.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, replace

from .noise import NoiseModel, SubordinatorSpec
from .spectral import PhysicsParams
from .stepping import KickSchedule, Stepper, StepScheme


class ConfigError(ValueError):
    """Bad configuration file or values; the message names the spot."""


# section -> keys, in the canonical order of the digest lines and the INI text
_SECTIONS = {
    "grid": ("n", "dt", "scheme"),
    "physics": ("nu1", "nu2", "g"),
    "noise": ("family", "a", "b", "grid_step", "modes", "alphas"),
    "run": ("seed", "horizon", "amplitude", "level"),
}


@dataclass(frozen=True)
class RunConfig:
    n: int = 32
    dt: float = 1e-3
    scheme: str = "etd_euler"
    nu1: float = 1.0
    nu2: float = 1.0
    g: float = 1.0
    family: str = "gamma"
    a: float = 8.0
    b: float = 4.0
    grid_step: float = 1e-3
    modes: tuple = ((1, 0), (0, 1))
    alphas: tuple = ()
    seed: int = 20260818
    horizon: float = 1.0
    amplitude: float = 1.0
    level: int = 2

    def __post_init__(self):
        if self.n < 8 or self.n % 2:
            raise ConfigError(f"grid.n must be even and at least 8, got {self.n}")
        if self.dt <= 0:
            raise ConfigError("grid.dt must be positive")
        if self.scheme not in ("etd_euler", "imex_euler"):
            raise ConfigError(f"grid.scheme {self.scheme!r} is not a scheme")
        if min(self.nu1, self.nu2, self.g) <= 0:
            raise ConfigError("physics constants must be positive")
        if self.family != "gamma":
            raise ConfigError(f"noise.family {self.family!r} is not supported")
        if self.a < 0 or self.b <= 0 or self.grid_step <= 0:
            raise ConfigError("noise parameters out of range")
        if self.horizon < 0:
            raise ConfigError("run.horizon must be nonnegative")
        if self.level < 1:
            raise ConfigError("run.level starts at 1")
        try:
            KickSchedule.steps_per_cell(self.grid_step, self.dt)
        except ValueError as exc:
            raise ConfigError(f"grid.dt vs noise.grid_step: {exc}") from exc
        try:
            self.model().slots(self.n)
        except ValueError as exc:
            raise ConfigError(f"noise.modes and noise.alphas at grid.n={self.n}: {exc}") from exc

    # builders ---------------------------------------------------------

    def params(self) -> PhysicsParams:
        return PhysicsParams(nu1=self.nu1, nu2=self.nu2, g=self.g)

    def spec(self) -> SubordinatorSpec:
        return SubordinatorSpec(family=self.family, a=self.a, b=self.b,
                                grid_step=self.grid_step)

    def model(self) -> NoiseModel:
        return NoiseModel(modes=self.modes, alphas=self.alphas)

    def stepper(self) -> Stepper:
        return Stepper(self.n, self.params(), StepScheme(self.scheme), self.dt)

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=seed)

    # serialization ----------------------------------------------------

    def canonical_lines(self) -> list:
        """Normalized section.key=value lines; the digest input."""
        return [f"{sec}.{key}={_text(key, getattr(self, key))}"
                for sec, keys in _SECTIONS.items() for key in keys]

    @property
    def digest(self) -> str:
        payload = "\n".join(self.canonical_lines()).encode()
        return hashlib.sha256(payload).hexdigest()

    def to_ini(self) -> str:
        return "\n".join(f"[{sec}]\n" + "".join(f"{key} = {_text(key, getattr(self, key))}\n"
                                                for key in keys)
                         for sec, keys in _SECTIONS.items())


def _text(key: str, value) -> str:
    """Canonical text of one value: floats by repr, so they parse back exactly."""
    if key == "modes":
        return " ".join(f"{k1},{k2}" for k1, k2 in value)
    if key == "alphas":
        return " ".join(repr(float(x)) for x in value)
    if isinstance(getattr(RunConfig, key), float):
        return repr(float(value))
    return str(value)


def _parse_modes(text: str):
    modes = []
    for token in text.split():
        parts = token.split(",")
        if len(parts) != 2:
            raise ConfigError(f"mode token {token!r} is not k1,k2")
        try:
            modes.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ConfigError(f"mode token {token!r} is not a pair of integers")
    if not modes:
        raise ConfigError("noise.modes is empty")
    return tuple(modes)


def _parse_alphas(text: str):
    try:
        return tuple(float(x) for x in text.split())
    except ValueError:
        raise ConfigError(f"noise.alphas {text!r} must be numbers")


def _line_of(text: str, section: str, key: str) -> int:
    """Best-effort line number of a key inside its section, for messages."""
    current = None
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip()
        elif current == section and stripped.split("=")[0].split(":")[0].strip() == key:
            return lineno
    return 0


def parse_config(text: str) -> RunConfig:
    """RunConfig from INI text; unknown sections or keys are errors."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SECTIONS[section]:
                line = _line_of(text, section, key)
                where = f" (line {line})" if line else ""
                raise ConfigError(f"unknown key {section}.{key}{where}")
            if key == "modes":
                values["modes"] = _parse_modes(raw)
            elif key == "alphas":
                values["alphas"] = _parse_alphas(raw)
            else:
                kind = type(getattr(RunConfig, key))     # the field default's type
                try:
                    values[key] = kind(raw)
                except ValueError:
                    line = _line_of(text, section, key)
                    where = f" (line {line})" if line else ""
                    raise ConfigError(
                        f"{section}.{key}{where}: {raw!r} is not {kind.__name__}")
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(cfg.to_ini())
