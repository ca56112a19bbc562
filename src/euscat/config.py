"""Run configuration for the command-line tools.

Settings live in a flat key=value text format with dotted section prefixes
(``model.mpi_mev=139``), so any language can parse a run file with a dozen
lines of code.  Resolution order is defaults, then config file, then
``ES_``-prefixed environment variables (``ES_MODEL_MPI_MEV``), then explicit
command-line flags; later layers win key by key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

from .errors import ConfigError
from .model import SeparableModel, coupling_for_binding

_SECTIONS = ("model", "grid", "cheb", "kb", "scan", "gf")


@dataclass(frozen=True)
class RunConfig:
    """Settings consumed by the euscat subcommands.

    ``model_coupling=None`` asks for the coupling that places the bound state
    at ``model_binding_mev``; any explicit value, including 0, wins over the
    binding target.  ``kb_sigma_mev=None`` means one tenth of ``kb_k0_mev``.
    """

    model_mass_mev: float = 938.9
    model_mpi_mev: float = 139.0
    model_coupling: Optional[float] = None
    model_binding_mev: float = -2.2246
    grid_k_max_mev: float = 6000.0
    cheb_oscillation: float = -220.0
    cheb_degree: int = 300
    cheb_samples: int = 11
    kb_k0_mev: float = 1000.0
    kb_sigma_mev: Optional[float] = None
    kb_beta: float = 5e-4
    kb_n_min: int = 10
    kb_n_max: int = 300
    kb_n_step: int = 10
    scan_k_min_mev: float = 100.0
    scan_k_max_mev: float = 2000.0
    scan_points: int = 20
    scan_sigma_factor: float = 1.0 / 24.0
    scan_n: int = 300
    scan_beta_x: float = 0.5
    gf_mass_mev: float = 139.0
    gf_gram_size: int = 8
    gf_momenta_mev: str = "0,100,300,500,800"
    gf_cluster_points: int = 9
    out: str = "out"
    seed: int = 1234
    threads: int = 1

    def __post_init__(self) -> None:
        positive = (
            ("model.mass_mev", self.model_mass_mev),
            ("model.mpi_mev", self.model_mpi_mev),
            ("grid.k_max_mev", self.grid_k_max_mev),
            ("kb.k0_mev", self.kb_k0_mev),
            ("kb.beta", self.kb_beta),
            ("scan.k_min_mev", self.scan_k_min_mev),
            ("scan.k_max_mev", self.scan_k_max_mev),
            ("scan.sigma_factor", self.scan_sigma_factor),
            ("scan.beta_x", self.scan_beta_x),
            ("gf.mass_mev", self.gf_mass_mev),
        )
        for key, value in positive:
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{key} must be positive, got {value}")
        if self.kb_sigma_mev is not None and not (self.kb_sigma_mev > 0):
            raise ConfigError(f"kb.sigma_mev must be positive, got {self.kb_sigma_mev}")
        at_least = (
            ("cheb.degree", self.cheb_degree, 0),
            ("cheb.samples", self.cheb_samples, 2),
            ("kb.n_step", self.kb_n_step, 1),
            ("scan.points", self.scan_points, 2),
            ("scan.n", self.scan_n, 1),
            ("gf.gram_size", self.gf_gram_size, 1),
            ("gf.cluster_points", self.gf_cluster_points, 3),
            ("seed", self.seed, 0),
            ("threads", self.threads, 1),
        )
        for key, value, low in at_least:
            if value < low:
                raise ConfigError(f"{key} must be >= {low}, got {value}")
        if not (1 <= self.kb_n_min <= self.kb_n_max):
            raise ConfigError(
                f"kb.n_min..kb.n_max must satisfy 1 <= min <= max, "
                f"got {self.kb_n_min}..{self.kb_n_max}"
            )
        if not (self.scan_k_min_mev < self.scan_k_max_mev):
            raise ConfigError(
                f"scan.k_min_mev must be below scan.k_max_mev, "
                f"got {self.scan_k_min_mev} and {self.scan_k_max_mev}"
            )
        self.momenta()

    def model(self) -> SeparableModel:
        coupling = self.model_coupling
        if coupling is None:
            coupling = coupling_for_binding(
                self.model_mass_mev, self.model_binding_mev, self.model_mpi_mev
            )
        return SeparableModel(
            mass=self.model_mass_mev, coupling=coupling, mpi=self.model_mpi_mev
        )

    def momenta(self) -> Tuple[float, ...]:
        parts = [p.strip() for p in self.gf_momenta_mev.split(",") if p.strip()]
        if not parts:
            raise ConfigError("gf.momenta_mev must list at least one momentum")
        try:
            values = tuple(float(p) for p in parts)
        except ValueError:
            raise ConfigError(
                f"gf.momenta_mev must be comma-separated numbers, "
                f"got {self.gf_momenta_mev!r}"
            ) from None
        for value in values:
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"gf.momenta_mev entries must be >= 0, got {value}")
        return values


def _dotted(field_name: str) -> str:
    head, _, tail = field_name.partition("_")
    if head in _SECTIONS and tail:
        return f"{head}.{tail}"
    return field_name


_FIELDS = {f.name: f for f in fields(RunConfig)}
_KEY_TO_FIELD = {_dotted(name): name for name in _FIELDS}


def config_keys() -> Tuple[str, ...]:
    """All recognized dotted keys, in declaration order."""
    return tuple(_KEY_TO_FIELD)


def env_name(key: str) -> str:
    """Environment variable that overrides ``key``."""
    return "ES_" + key.replace(".", "_").upper()


def _parse_value(key: str, raw: str):
    field = _FIELDS[_KEY_TO_FIELD[key]]
    kind = float if field.default is None else type(field.default)
    if kind is str:
        return raw
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"{key} expects {'an integer' if kind is int else 'a number'}, "
            f"got {raw!r}"
        ) from None


def parse_config_text(text: str, source: str = "<config>") -> Dict[str, str]:
    """Raw key=value pairs from config text; '#' starts a comment line."""
    values: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, raw = stripped.partition("=")
        if not sep:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {stripped!r}")
        key = key.strip()
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = raw.strip()
    return values


def build_config(values: Mapping[str, str]) -> RunConfig:
    """RunConfig from dotted-key strings; unknown keys are refused."""
    kwargs = {}
    for key, raw in values.items():
        field_name = _KEY_TO_FIELD.get(key)
        if field_name is None:
            raise ConfigError(f"unknown config key {key!r}")
        kwargs[field_name] = _parse_value(key, raw)
    return RunConfig(**kwargs)


def resolve_config(
    config_path: Optional[str] = None,
    env: Optional[Mapping[str, str]] = None,
    flag_overrides: Optional[Mapping[str, str]] = None,
) -> RunConfig:
    """Merge defaults, config file, ES_ environment variables, and flags."""
    merged: Dict[str, str] = {}
    if config_path is not None:
        try:
            text = Path(config_path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from exc
        merged.update(parse_config_text(text, source=str(config_path)))
    if env:
        for key in _KEY_TO_FIELD:
            value = env.get(env_name(key))
            if value is not None:
                merged[key] = value
    if flag_overrides:
        merged.update(flag_overrides)
    return build_config(merged)
