"""Strict experiment configuration: JSON in, dataclasses out.

Unknown keys are rejected at every level, complex numbers are [re, im]
pairs, and to_dict/from_dict round-trip losslessly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from ..gaussian import GridSpec
from ..semiclassical import LindbladModel
from ..symbols import Chart, parse_symbol

__all__ = ["ExperimentConfig", "PortraitSection", "load_config", "dump_config"]


class ConfigError(ValueError):
    pass


def _pull(d: dict, where: str, required, optional=None):
    d = dict(d)
    out = {}
    for key, conv in required.items():
        if key not in d:
            raise ConfigError(f"{where}: missing key {key!r}")
        out[key] = conv(d.pop(key))
    for key, (conv, default) in (optional or {}).items():
        out[key] = conv(d.pop(key)) if key in d else default
    if d:
        raise ConfigError(f"{where}: unknown keys {sorted(d)}")
    return out


def _complex_pair(v) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ConfigError(f"complex values are [re, im] pairs, got {v!r}")
    return complex(float(v[0]), float(v[1]))


def _pair_list(v):
    return tuple(_complex_pair(item) for item in v)


def _float_pair_list(v):
    return tuple((float(a), float(b)) for a, b in v)


def _check_span(where: str, t_end: float, n_out: int):
    """An output grid runs forward from 0 to a finite t_end through n_out >= 2 times."""
    if not (math.isfinite(t_end) and t_end > 0):
        raise ConfigError(f"{where}.t_end must be finite and positive, got {t_end!r}")
    if n_out < 2:
        raise ConfigError(f"{where}.n_out must be at least 2")


_CHARTS = {"realqp": Chart.REAL_QP, "complex": Chart.COMPLEX_AABAR}


@dataclass(frozen=True)
class ModelSection:
    n_modes: int
    chart: str
    hamiltonian: str
    lindblads: tuple

    @classmethod
    def from_dict(cls, d):
        vals = _pull(
            d,
            "model",
            {
                "n_modes": int,
                "chart": str,
                "hamiltonian": str,
                "lindblads": lambda v: tuple(str(s) for s in v),
            },
        )
        if vals["chart"] not in _CHARTS:
            raise ConfigError(f"model.chart must be one of {sorted(_CHARTS)}")
        return cls(**vals)

    def to_dict(self):
        return {
            "n_modes": self.n_modes,
            "chart": self.chart,
            "hamiltonian": self.hamiltonian,
            "lindblads": list(self.lindblads),
        }

    def build(self, hbar: float) -> LindbladModel:
        chart = _CHARTS[self.chart]
        h = parse_symbol(self.hamiltonian, chart, self.n_modes)
        ls = tuple(parse_symbol(s, chart, self.n_modes) for s in self.lindblads)
        return LindbladModel(n_modes=self.n_modes, hbar=hbar, hamiltonian=h, lindblads=ls)


@dataclass(frozen=True)
class InitialSection:
    kind: str
    amplitudes: tuple = ()
    centres: tuple = ()
    coefficients: tuple = ()
    width: complex = 1j

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        kind = d.pop("kind", None)
        if kind == "coherent":
            vals = _pull(d, "initial", {"amplitudes": _pair_list})
            return cls(kind="coherent", amplitudes=vals["amplitudes"])
        if kind == "cat":
            vals = _pull(
                d,
                "initial",
                {"centres": _float_pair_list, "coefficients": _pair_list},
                {"width": (_complex_pair, 1j)},
            )
            if vals["width"].imag <= 0:
                raise ConfigError("initial.width needs a positive imaginary part")
            return cls(kind="cat", **vals)
        raise ConfigError(f"initial.kind must be 'coherent' or 'cat', got {kind!r}")

    def to_dict(self):
        if self.kind == "coherent":
            return {
                "kind": "coherent",
                "amplitudes": [[a.real, a.imag] for a in self.amplitudes],
            }
        return {
            "kind": "cat",
            "centres": [list(c) for c in self.centres],
            "coefficients": [[c.real, c.imag] for c in self.coefficients],
            "width": [self.width.real, self.width.imag],
        }


@dataclass(frozen=True)
class TimesSection:
    t_end: float
    n_out: int
    frames: tuple = ()

    @classmethod
    def from_dict(cls, d):
        vals = _pull(
            d,
            "times",
            {"t_end": float, "n_out": int},
            {"frames": (lambda v: tuple(float(x) for x in v), ())},
        )
        _check_span("times", vals["t_end"], vals["n_out"])
        return cls(**vals)

    def to_dict(self):
        return {"t_end": self.t_end, "n_out": self.n_out, "frames": list(self.frames)}

    def grid(self):
        return np.linspace(0.0, self.t_end, self.n_out)

    def frame_indices(self):
        t = self.grid()
        out = []
        for fr in self.frames:
            k = int(np.argmin(np.abs(t - fr)))
            if abs(t[k] - fr) > 1e-9 * max(1.0, self.t_end):
                raise ConfigError(f"frame time {fr} is not on the output grid")
            out.append(k)
        return out


_GRID_KEYS = {"q_min": float, "q_max": float, "n_q": int,
              "p_min": float, "p_max": float, "n_p": int}


def _grid_spec(where: str, vals: dict) -> GridSpec:
    vals = {k: vals[k] for k in _GRID_KEYS}
    try:
        return GridSpec(**vals)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}, got {vals}") from None


@dataclass(frozen=True)
class PortraitSection:
    q_min: float
    q_max: float
    n_q: int
    p_min: float
    p_max: float
    n_p: int
    t_end: float
    n_out: int
    starts: tuple

    @classmethod
    def from_dict(cls, d):
        vals = _pull(
            d,
            "portrait",
            {**_GRID_KEYS, "t_end": float, "n_out": int, "starts": _float_pair_list},
        )
        _grid_spec("portrait", vals)
        _check_span("portrait", vals["t_end"], vals["n_out"])
        return cls(**vals)

    def to_dict(self):
        return {
            "q_min": self.q_min, "q_max": self.q_max, "n_q": self.n_q,
            "p_min": self.p_min, "p_max": self.p_max, "n_p": self.n_p,
            "t_end": self.t_end, "n_out": self.n_out,
            "starts": [list(s) for s in self.starts],
        }


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int
    hbar: float
    output_dir: str
    solvers: tuple
    model: ModelSection
    initial: InitialSection | None
    times: TimesSection | None
    grid: GridSpec | None
    fock_levels: int | None
    n_trajectories: int | None
    tolerances: dict
    portrait: PortraitSection | None
    ode_rtol: float = 1e-9
    ode_atol: float = 1e-12

    @classmethod
    def from_dict(cls, d):
        vals = _pull(
            d,
            "config",
            {"experiment": str, "model": ModelSection.from_dict},
            {
                "seed": (int, 0),
                "hbar": (float, 1.0),
                "output_dir": (str, "out"),
                "solvers": (lambda v: tuple(str(s) for s in v), ()),
                "initial": (InitialSection.from_dict, None),
                "times": (TimesSection.from_dict, None),
                "grid": (lambda v: _grid_spec("grid", _pull(v, "grid", _GRID_KEYS)), None),
                "fock_levels": (int, None),
                "n_trajectories": (int, None),
                "tolerances": (lambda v: {str(k): float(x) for k, x in v.items()}, {}),
                "portrait": (PortraitSection.from_dict, None),
                "ode_rtol": (float, 1e-9),
                "ode_atol": (float, 1e-12),
            },
        )
        return cls(**vals)

    def to_dict(self):
        out = {
            "experiment": self.experiment,
            "seed": self.seed,
            "hbar": self.hbar,
            "output_dir": self.output_dir,
            "solvers": list(self.solvers),
            "model": self.model.to_dict(),
            "tolerances": dict(self.tolerances),
            "ode_rtol": self.ode_rtol,
            "ode_atol": self.ode_atol,
        }
        if self.initial is not None:
            out["initial"] = self.initial.to_dict()
        if self.times is not None:
            out["times"] = self.times.to_dict()
        if self.grid is not None:
            out["grid"] = asdict(self.grid)
        if self.fock_levels is not None:
            out["fock_levels"] = self.fock_levels
        if self.n_trajectories is not None:
            out["n_trajectories"] = self.n_trajectories
        if self.portrait is not None:
            out["portrait"] = self.portrait.to_dict()
        return out

    def with_seed(self, seed: int) -> "ExperimentConfig":
        d = self.to_dict()
        d["seed"] = int(seed)
        return ExperimentConfig.from_dict(d)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def dump_config(config: ExperimentConfig, path=None) -> str:
    text = json.dumps(config.to_dict(), indent=2, sort_keys=True)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text
