"""Strict experiment configuration: JSON in, dataclasses out.

Unknown keys are rejected at every level, and every float but the grid
bounds (which `GridSpec` checks) goes through `_finite`, so NaN and
Infinity are `ConfigError`s.  No boolean or string is read as a number
(`_real`).  Counts and the seed go through `_integer`, scales that must
be positive through `_positive`, and lists through `_list`, so a value
of the wrong type or range is a `ConfigError` naming its key when the
config is read, before any solver runs.  Every `ConfigError`, here and in
``run_experiment``, starts with the path of the key at fault as the JSON
document spells it from its root (``hbar``, ``tolerances.t_short``,
``times.frames``, ``grid``), then ``: ``; a fault of the whole document
starts ``config: ``.  Tolerances are only finite here;
``run_experiment`` reads each through the converter of its meaning
(`_positive` or `_non_negative`) registered with the experiment's
defaults.  `_plain` is the one way back to
JSON: fields that are None are left out, tuples become lists and complex
numbers [re, im] pairs, so to_dict/from_dict round-trip losslessly.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from ..gaussian import GridSpec
from ..semiclassical import LindbladModel
from ..symbols import Chart, parse_symbol
from .compare import frame_name, write_text

__all__ = ["ExperimentConfig", "PortraitSection", "load_config", "dump_config"]


class ConfigError(ValueError):
    pass


def _convert(where: str, key: str, conv, value):
    """``conv(value)``; a value of the wrong type or range is a `ConfigError`
    naming the path of ``key`` in the section ``where`` (``""`` for the
    document's root).  A `ConfigError` of a nested section already names its
    own path and passes through."""
    try:
        return conv(value)
    except ConfigError:
        raise
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:  # int(Infinity)
        raise ConfigError(f"{where + '.' if where else ''}{key}: {exc}") from None


def _pull(d: dict, where: str, required, optional=None):
    """The keys of the section ``where`` (``""`` for the root), each through
    its converter; a missing or unknown key is a fault of the section."""
    d = dict(d)
    out = {}
    for key, conv in required.items():
        if key not in d:
            raise ConfigError(f"{where or 'config'}: missing key {key!r}")
        out[key] = _convert(where, key, conv, d.pop(key))
    for key, (conv, default) in (optional or {}).items():
        out[key] = _convert(where, key, conv, d.pop(key)) if key in d else default
    if d:
        raise ConfigError(f"{where or 'config'}: unknown keys {sorted(d)}")
    return out


def _real(v) -> float:
    """A config number; a boolean or a string is rejected, not read as one."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"must be a number, got {v!r}")
    return float(v)


def _finite(v) -> float:
    """A config float: ``json.load`` accepts NaN and Infinity, which would
    hang an adaptive solver or un-gate a check, so both are rejected."""
    x = _real(v)
    if not math.isfinite(x):
        raise ValueError(f"must be a finite number, got {v!r}")
    return x


def _positive(v) -> float:
    """A finite config float above zero: a scale, a tolerance or a duration."""
    x = _finite(v)
    if not x > 0:
        raise ValueError(f"must be positive, got {v!r}")
    return x


def _non_negative(v) -> float:
    """A finite config float at or above zero: a slack."""
    x = _finite(v)
    if x < 0:
        raise ValueError(f"must not be negative, got {v!r}")
    return x


def _integer(low: int | None = None, high: int | None = None):
    """Converter of a config integer in [low, high], a bound left None being
    open: a number with no fractional part, which is not truncated."""

    def conv(v) -> int:
        _real(v)  # the type check; float(v) would round an integer above 2**53
        n = int(v)
        if n != v:
            raise ValueError(f"must be an integer, got {v!r}")
        if low is not None and n < low:
            raise ValueError(f"must be at least {low}, got {n}")
        if high is not None and n > high:
            raise ValueError(f"must be at most {high}, got {n}")
        return n

    return conv


def _list(conv):
    """Converter of a JSON list, item by item; a string is not read as a
    list of its characters."""

    def convert(v) -> tuple:
        if not isinstance(v, (list, tuple)):
            raise TypeError(f"must be a list, got {v!r}")
        return tuple(conv(item) for item in v)

    return convert


def _complex_pair(v) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise TypeError(f"complex values are [re, im] pairs, got {v!r}")
    return complex(_finite(v[0]), _finite(v[1]))


def _pair_list(v):
    return tuple(_complex_pair(item) for item in v)


def _float_pair_list(v):
    return tuple((_finite(a), _finite(b)) for a, b in v)


def _plain(value):
    """JSON form of a config value: a dataclass becomes a dict of its fields
    that are not None, a tuple a list and a complex number [re, im]."""
    if is_dataclass(value):
        pairs = ((f.name, getattr(value, f.name)) for f in fields(value))
        return {name: _plain(v) for name, v in pairs if v is not None}
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    return value


# An output grid runs forward from 0 to t_end through n_out >= 2 times.
_SPAN = {"t_end": _positive, "n_out": _integer(2)}
# the key of a jump trajectory's Philox stream holds the seed in 64 bits
_SEED = _integer(0, 2**64 - 1)

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
                "n_modes": _integer(1),
                "chart": str,
                "hamiltonian": str,
                "lindblads": _list(str),
            },
        )
        if vals["chart"] not in _CHARTS:
            raise ConfigError(f"model.chart: must be one of {sorted(_CHARTS)}")
        return cls(**vals)

    def build(self, hbar: float) -> LindbladModel:
        chart = _CHARTS[self.chart]
        h = parse_symbol(self.hamiltonian, chart, self.n_modes)
        ls = tuple(parse_symbol(s, chart, self.n_modes) for s in self.lindblads)
        return LindbladModel(n_modes=self.n_modes, hbar=hbar, hamiltonian=h, lindblads=ls)


@dataclass(frozen=True)
class InitialSection:
    """A coherent state sets `amplitudes`, a cat the other three; the fields
    a kind does not use stay None."""

    kind: str
    amplitudes: tuple | None = None
    centres: tuple | None = None
    coefficients: tuple | None = None
    width: complex | None = None

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
                raise ConfigError("initial.width: needs a positive imaginary part")
            return cls(kind="cat", **vals)
        raise ConfigError(f"initial.kind: must be 'coherent' or 'cat', got {kind!r}")


@dataclass(frozen=True)
class TimesSection:
    t_end: float
    n_out: int
    frames: tuple = ()

    @classmethod
    def from_dict(cls, d):
        vals = _pull(d, "times", _SPAN, {"frames": (_list(_finite), ())})
        times = cls(**vals)
        t, nearest = times._nearest()
        written = {}
        for fr, k in zip(times.frames, nearest):
            name = frame_name(t[k])
            if name in written:
                raise ConfigError(f"times.frames: frame times {written[name]} and {fr} both "
                                  f"write {name}")
            written[name] = fr
        return times

    def grid(self):
        return np.linspace(0.0, self.t_end, self.n_out)

    def _nearest(self):
        """The output grid, and the index of the grid time nearest each frame."""
        t = self.grid()
        return t, [int(np.argmin(np.abs(t - fr))) for fr in self.frames]

    def frame_indices(self):
        t, nearest = self._nearest()
        for fr, k in zip(self.frames, nearest):
            if abs(t[k] - fr) > 1e-9 * max(1.0, self.t_end):
                raise ConfigError(f"times.frames: frame time {fr} is not on the output grid")
        return nearest


# GridSpec checks the ranges, for grids and portraits alike
_GRID_KEYS = {"q_min": _real, "q_max": _real, "n_q": _integer(),
              "p_min": _real, "p_max": _real, "n_p": _integer()}


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
        vals = _pull(d, "portrait", {**_GRID_KEYS, **_SPAN, "starts": _float_pair_list})
        _grid_spec("portrait", vals)
        return cls(**vals)


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config.  A top-level key the document leaves out is None here;
    ``run_experiment`` gives it the experiment's registered value."""

    experiment: str
    seed: int | None
    hbar: float | None
    output_dir: str | None
    solvers: tuple | None
    model: ModelSection
    initial: InitialSection | None
    times: TimesSection | None
    grid: GridSpec | None
    fock_levels: int | None
    n_trajectories: int | None
    tolerances: dict | None
    portrait: PortraitSection | None
    ode_rtol: float | None
    ode_atol: float | None

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError(f"config: the document must be a mapping, got {type(d).__name__}")
        optional = {
            "seed": _SEED,
            "hbar": _positive,
            "output_dir": str,
            "solvers": _list(str),
            "initial": InitialSection.from_dict,
            "times": TimesSection.from_dict,
            "grid": lambda v: _grid_spec("grid", _pull(v, "grid", _GRID_KEYS)),
            "fock_levels": _integer(2),
            # its stderr is a sample standard deviation (ddof=1), which one
            # trajectory leaves undefined
            "n_trajectories": _integer(2),
            "tolerances": lambda v: {str(k): _convert("tolerances", str(k), _finite, x)
                                     for k, x in v.items()},
            "portrait": PortraitSection.from_dict,
            "ode_rtol": _positive,
            "ode_atol": _positive,
        }
        return cls(**_pull(d, "", {"experiment": str, "model": ModelSection.from_dict},
                           {key: (conv, None) for key, conv in optional.items()}))

    def to_dict(self):
        return _plain(self)

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=_convert("", "seed", _SEED, seed))


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def dump_config(config: ExperimentConfig, path=None) -> str:
    text = json.dumps(config.to_dict(), indent=2, sort_keys=True)
    if path is not None:
        write_text(path, text + "\n")
    return text
