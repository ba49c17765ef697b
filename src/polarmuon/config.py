"""Config file format: flat INI-style sections with typed scalars and lists.

Every RunConfig round-trips losslessly through :func:`serialize` /
:func:`parse`: floats are written with ``repr`` (shortest exact decimal),
so re-parsing reproduces the same binary values, including the calibrated
noise scales and custom schedule coefficients.

:func:`parse` and :class:`RunConfig` check a run's inputs once: every value
the runtime would reject, and every section or key that :func:`parse` does
not read, raises :class:`ConfigError` naming its section.
"""

from __future__ import annotations

import configparser
import csv
import io
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import optimizer as opt
from .errors import ConfigError, NumericalAbortError, PreconditionError
from .matcore import RngStream, derive_stream_id
from .noise import (
    MAX_FIT_TAIL_EXPONENT,
    NoiseModel,
    Problem,
    factorization_problem,
    quadratic_problem,
)
from .polar import PolarConfig, PolynomialSchedule, schedule_by_name
from .sketch import SketchConfig

__all__ = [
    "ProblemSpec",
    "OptimizerSpec",
    "RunConfig",
    "parse",
    "serialize",
    "load",
    "save",
    "write_csv",
]


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ", ".join(str(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _section(name: str, build):
    """Build one section's runtime object, reporting its precondition
    failures (and a non-finite matrix it builds, or an integer too large for
    a float) as config errors of that section."""
    try:
        return build()
    except (PreconditionError, NumericalAbortError, OverflowError) as e:
        raise ConfigError(f"{name}: {e}") from e


@dataclass(frozen=True)
class ProblemSpec:
    kind: str = "quadratic"  # "quadratic" | "factorization"
    m: int = 16
    n: int = 16
    rank: int = 8
    decay: float = 0.8
    scale: float = 5.0
    gen_seed: int = 20240001

    def __post_init__(self):
        if self.kind not in ("quadratic", "factorization"):
            raise ConfigError(f"problem.kind: unknown kind {self.kind!r}")
        for key in ("m", "n", "rank"):
            if getattr(self, key) < 1:
                raise ConfigError(f"problem.{key}: must be >= 1")

    def build(self) -> Problem:
        """Materialize the seeded synthetic target; a target that overflows
        (e.g. a huge scale with decay > 1) is a config error."""
        return _section("problem", self._target)

    def _target(self) -> Problem:
        rng = RngStream(self.gen_seed, derive_stream_id(0xA11CE))
        if self.kind == "quadratic":
            r = min(self.rank, self.m, self.n)
            u, _ = np.linalg.qr(rng.normal((self.m, r)))
            v, _ = np.linalg.qr(rng.normal((self.n, r)))
            sigma = self.scale * self.decay ** np.arange(r)
            return quadratic_problem((u * sigma) @ v.T)
        a0 = self.scale * rng.normal((self.m, self.rank)) / np.sqrt(self.m)
        return factorization_problem(a0)

    @property
    def param_shape(self) -> tuple[int, int]:
        if self.kind == "factorization":
            return (self.m, self.rank)
        return (self.m, self.n)


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "muon"  # the one optimizer
    momentum: str = "nesterov"
    schedule: str = "corollary1"  # "corollary1" | "theorem1" | "manual"
    K: int = 100
    B: int = 1
    eta: float = 0.02  # manual only
    beta: float = 0.95  # manual only

    def __post_init__(self):
        _section("optimizer", self._check)

    def _check(self) -> None:
        if self.kind != "muon":
            raise PreconditionError(f"unknown kind {self.kind!r}")
        if self.K < 1:
            raise PreconditionError("K must be >= 1")
        if self.B < 1:
            raise PreconditionError("B must be >= 1")
        opt.check_momentum(self.momentum, self.beta)
        opt.check_eta(self.eta)

    def step_schedule(self, alpha: float) -> opt.Schedule:
        """The (eta, beta) pair of this spec's schedule; theorem 1 reads the noise's ``alpha``."""
        if self.schedule == "manual":
            return opt.Schedule(eta=self.eta, beta=self.beta)
        if self.schedule == "corollary1":
            return opt.corollary1_schedule(self.K)
        if self.schedule == "theorem1":
            return opt.theorem1_schedule(self.K, alpha)
        raise PreconditionError(f"unknown schedule source {self.schedule!r}")


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    polar: PolarConfig = field(default_factory=PolarConfig)
    sketch: SketchConfig | None = None
    noise: NoiseModel = field(default_factory=NoiseModel)
    seeds: tuple[int, ...] = (1,)
    output_dir: str = "out"
    verify: bool = False

    def __post_init__(self):
        _section("optimizer", lambda: self.optimizer.step_schedule(self.noise.alpha))
        if self.sketch is not None:
            _section("sketch", lambda: self.sketch.check_shape(self.problem.param_shape))
        if not self.noise.calibrated and self.noise.tail_exponent > MAX_FIT_TAIL_EXPONENT:
            raise ConfigError(
                f"noise.tail_exponent: the run fits the scales, which takes a tail "
                f"exponent of at most {MAX_FIT_TAIL_EXPONENT:g}; write scale0 and "
                "scale1 for a lighter tail"
            )
        calib, shape = self.noise.calib_shape, self.problem.param_shape
        if calib is not None and tuple(calib) != shape:
            # the fitted scales hold the noise's alpha-moment budget only at
            # the shape they were fitted for
            raise ConfigError(
                f"noise.calib_shape: the scales were fitted for {calib[0]} x {calib[1]}, "
                f"but the parameter is {shape[0]} x {shape[1]}"
            )
        if not self.seeds:
            raise ConfigError("run.seeds: at least one seed required")
        repeated = [s for i, s in enumerate(self.seeds) if s in self.seeds[:i]]
        if repeated:
            raise ConfigError(f"run.seeds: seed {repeated[0]} is listed twice")


def _write(obj) -> dict:
    """One INI section from a frozen config object: its fields not None."""
    return {f.name: _fmt(v) for f in fields(obj) if (v := getattr(obj, f.name)) is not None}


def serialize(cfg: RunConfig) -> str:
    cp = configparser.ConfigParser()
    cp["problem"] = _write(cfg.problem)
    cp["optimizer"] = _write(cfg.optimizer)
    pl = cfg.polar
    delta = pl.delta_rule
    cp["polar"] = {
        "solver": pl.solver,
        "schedule": pl.schedule.name,
        "q": _fmt(pl.q),
        "delta": delta if isinstance(delta, str) else f"explicit:{float(delta)!r}",
    }
    if pl.schedule.name == "custom":
        cp["polar"]["coefficients"] = "; ".join(
            ", ".join(_fmt(c) for c in triple) for triple in pl.schedule.steps
        )
    if cfg.sketch is not None:
        cp["sketch"] = _write(cfg.sketch)
    cp["noise"] = _write(cfg.noise)
    cp["run"] = {
        "seeds": _fmt(cfg.seeds),
        "output_dir": cfg.output_dir,
        "verify": _fmt(cfg.verify),
    }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _get(cp, section, key, conv, default=None):
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    try:
        return conv(raw)
    except ValueError as e:
        raise ConfigError(f"{section}.{key}: {e}") from e


def _read(cp, section: str, cls) -> dict:
    """Keyword arguments for ``cls`` from the keys ``section`` sets, each
    converted by its field's annotation."""
    kwargs = {}
    for f in fields(cls):
        if cp.has_option(section, f.name):
            kind = f.type.removesuffix(" | None")
            conv = _int_tuple if kind.startswith("tuple") else _CONVERT[kind]
            kwargs[f.name] = _get(cp, section, f.name, conv)
        elif f.default is MISSING:
            raise ConfigError(f"{section}.{f.name}: missing required field")
    return kwargs


def _float(raw: str) -> float:
    v = float(raw)
    if not math.isfinite(v):
        raise ValueError(f"not a finite number: {raw!r}")
    return v


def _bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _int_tuple(raw: str) -> tuple[int, ...] | None:
    return tuple(int(v.strip()) for v in raw.split(",") if v.strip()) or None


def _triples(raw: str) -> tuple[tuple[float, float, float], ...]:
    out = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        vals = [_float(v.strip()) for v in chunk.split(",")]
        if len(vals) != 3:
            raise ValueError(f"coefficient triple needs 3 values: {chunk!r}")
        out.append(tuple(vals))
    return tuple(out)


_CONVERT = {"str": str, "int": int, "float": _float, "bool": _bool}


def _delta_rule(raw: str) -> str | float:
    if raw.startswith("explicit:"):
        return _float(raw.split(":", 1)[1])
    return raw


def _polar(cp) -> PolarConfig:
    name = _get(cp, "polar", "schedule", str, "quintic-theoretical")
    q = _get(cp, "polar", "q", int)
    if name == "custom":
        coefficients = _get(cp, "polar", "coefficients", _triples, ())
        if not coefficients:
            raise PreconditionError("coefficients: required for a custom schedule")
        schedule = PolynomialSchedule(coefficients, name="custom")
    else:
        schedule = schedule_by_name(name, 6 if q is None else q)
    if q is not None and q != schedule.q:
        raise ConfigError(f"polar.q: the {schedule.name} schedule has {schedule.q} steps, not {q}")
    return PolarConfig(
        solver=_get(cp, "polar", "solver", str, "polynomial"),
        schedule=schedule,
        delta_rule=_get(cp, "polar", "delta", _delta_rule, "frobenius-norm"),
    )


def _keys(cls) -> frozenset:
    return frozenset(f.name.lower() for f in fields(cls))


# section -> the keys parse reads, lowercased as configparser stores them
_KNOWN_KEYS = {
    "problem": _keys(ProblemSpec),
    "optimizer": _keys(OptimizerSpec),
    "polar": frozenset(("solver", "schedule", "q", "delta", "coefficients")),
    "sketch": _keys(SketchConfig),
    "noise": _keys(NoiseModel),
    "run": frozenset(("seeds", "output_dir", "verify")),
}


def parse(text: str) -> RunConfig:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"config syntax: {e}") from e
    if cp.defaults():
        raise ConfigError(f"{cp.default_section}: unknown section")
    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"{section}: unknown section")
        for key in cp.options(section):
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError(f"{section}.{key}: unknown key")

    problem = ProblemSpec(**_read(cp, "problem", ProblemSpec))
    optimizer = OptimizerSpec(**_read(cp, "optimizer", OptimizerSpec))
    polar = _section("polar", lambda: _polar(cp))
    sketch = None
    if cp.has_section("sketch"):
        sketch = _section("sketch", lambda: SketchConfig(**_read(cp, "sketch", SketchConfig)))
    noise = _section("noise", lambda: NoiseModel(**_read(cp, "noise", NoiseModel)))
    return RunConfig(
        problem=problem,
        optimizer=optimizer,
        polar=polar,
        sketch=sketch,
        noise=noise,
        seeds=_get(cp, "run", "seeds", _int_tuple, (1,)),
        output_dir=_get(cp, "run", "output_dir", str, "out"),
        verify=_get(cp, "run", "verify", _bool, False),
    )


def load(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {str(path)!r}: {e}") from e
    return parse(text)


def make_output_dir(path) -> Path:
    """Create the directory ``path`` and its parents; a path that cannot be
    made (it is, or lies under, a file) is a ConfigError naming it."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot create output directory {str(path)!r}: {e.strerror}") from e
    return Path(path)


def write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` to ``path`` as CSV with LF line ends: a
    float prints as its ``repr``, None as an empty field, and a field that
    holds a comma is quoted."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def save(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize(cfg))
