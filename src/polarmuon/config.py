"""Config file format: flat INI-style sections with typed scalars and lists.

Every RunConfig round-trips losslessly through :func:`serialize` /
:func:`parse`: floats are written with ``repr`` (shortest exact decimal),
so re-parsing reproduces the same binary values, including the calibrated
noise scales and custom schedule coefficients.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, PreconditionError
from .matcore import RngStream, derive_stream_id
from .noise import NoiseModel, Problem, factorization_problem, quadratic_problem
from .polar import PolarConfig, PolynomialSchedule, schedule_by_name
from .sketch import SketchConfig

__all__ = [
    "ProblemSpec",
    "OptimizerSpec",
    "PolarSpec",
    "RunConfig",
    "parse",
    "serialize",
    "load",
    "save",
]


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


@dataclass(frozen=True)
class ProblemSpec:
    kind: str = "quadratic"  # "quadratic" | "factorization"
    m: int = 16
    n: int = 16
    rank: int = 8
    decay: float = 0.8
    scale: float = 5.0
    gen_seed: int = 20240001

    def build(self) -> Problem:
        """Materialize the seeded synthetic target."""
        rng = RngStream(self.gen_seed, derive_stream_id(0xA11CE))
        if self.kind == "quadratic":
            r = min(self.rank, self.m, self.n)
            u, _ = np.linalg.qr(rng.normal((self.m, r)))
            v, _ = np.linalg.qr(rng.normal((self.n, r)))
            sigma = self.scale * self.decay ** np.arange(r)
            return quadratic_problem((u * sigma) @ v.T)
        if self.kind == "factorization":
            a0 = self.scale * rng.normal((self.m, self.rank)) / np.sqrt(self.m)
            return factorization_problem(a0)
        raise ConfigError(f"problem.kind: unknown kind {self.kind!r}")

    @property
    def param_shape(self) -> tuple[int, int]:
        if self.kind == "factorization":
            return (self.m, self.rank)
        return (self.m, self.n)


@dataclass(frozen=True)
class OptimizerSpec:
    kind: str = "muon"  # "muon" | "sgd_nesterov" | "adamw"
    momentum: str = "nesterov"
    schedule: str = "corollary1"  # "corollary1" | "theorem1" | "manual"
    K: int = 100
    B: int = 1
    alpha: float = 2.0  # theorem1 only
    eta: float = 0.02  # manual only
    beta: float = 0.95  # manual only


@dataclass(frozen=True)
class PolarSpec:
    solver: str = "polynomial"  # "exact" | "polynomial"
    schedule: str = "quintic-theoretical"
    q: int = 6
    delta: str = "frobenius-norm"  # rule name or "explicit:<value>"
    coefficients: tuple[tuple[float, float, float], ...] = ()

    def delta_rule(self):
        if self.delta.startswith("explicit:"):
            try:
                return _float(self.delta.split(":", 1)[1])
            except ValueError as e:
                raise ConfigError(f"polar.delta: bad explicit value: {e}") from e
        if self.delta not in ("operator-norm", "frobenius-norm"):
            raise ConfigError(f"polar.delta: unknown rule {self.delta!r}")
        return self.delta

    def build(self) -> PolarConfig:
        if self.solver == "exact":
            return PolarConfig(solver="exact")
        if self.schedule == "custom":
            if not self.coefficients:
                raise ConfigError("polar.coefficients: required for custom schedule")
            sched = PolynomialSchedule(self.coefficients, name="custom")
        else:
            sched = schedule_by_name(self.schedule, self.q)
        return PolarConfig(solver="polynomial", schedule=sched, delta_rule=self.delta_rule())


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    polar: PolarSpec = field(default_factory=PolarSpec)
    sketch: SketchConfig | None = None
    noise: NoiseModel = field(default_factory=NoiseModel)
    seeds: tuple[int, ...] = (1,)
    output_dir: str = "out"
    verify: bool = False

    def __post_init__(self):
        if self.optimizer.K < 1:
            raise ConfigError("optimizer.K: must be >= 1")
        if self.optimizer.B < 1:
            raise ConfigError("optimizer.B: must be >= 1")
        if not self.seeds:
            raise ConfigError("run.seeds: at least one seed required")


def serialize(cfg: RunConfig) -> str:
    cp = configparser.ConfigParser()
    p = cfg.problem
    cp["problem"] = {
        "kind": p.kind,
        "m": _fmt(p.m),
        "n": _fmt(p.n),
        "rank": _fmt(p.rank),
        "decay": _fmt(p.decay),
        "scale": _fmt(p.scale),
        "gen_seed": _fmt(p.gen_seed),
    }
    o = cfg.optimizer
    cp["optimizer"] = {
        "kind": o.kind,
        "momentum": o.momentum,
        "schedule": o.schedule,
        "k": _fmt(o.K),
        "b": _fmt(o.B),
        "alpha": _fmt(o.alpha),
        "eta": _fmt(o.eta),
        "beta": _fmt(o.beta),
    }
    pl = cfg.polar
    cp["polar"] = {
        "solver": pl.solver,
        "schedule": pl.schedule,
        "q": _fmt(pl.q),
        "delta": pl.delta,
    }
    if pl.coefficients:
        cp["polar"]["coefficients"] = "; ".join(
            ", ".join(_fmt(c) for c in triple) for triple in pl.coefficients
        )
    if cfg.sketch is not None:
        s = cfg.sketch
        cp["sketch"] = {
            "s": _fmt(s.s),
            "p": _fmt(s.p),
            "h": _fmt(s.h),
            "kind": s.kind,
        }
    nz = cfg.noise
    sec = {
        "alpha": _fmt(nz.alpha),
        "sigma0": _fmt(nz.sigma0),
        "sigma1": _fmt(nz.sigma1),
    }
    if nz.tail_exponent is not None:
        sec["tail_exponent"] = _fmt(nz.tail_exponent)
    if nz.scale0 is not None:
        sec["scale0"] = _fmt(nz.scale0)
    if nz.scale1 is not None:
        sec["scale1"] = _fmt(nz.scale1)
    if nz.calib_shape is not None:
        sec["calib_shape"] = ", ".join(str(v) for v in nz.calib_shape)
    if nz.calib_rel_tol is not None:
        sec["calib_rel_tol"] = _fmt(nz.calib_rel_tol)
    cp["noise"] = sec
    cp["run"] = {
        "seeds": ", ".join(str(s) for s in cfg.seeds),
        "output_dir": cfg.output_dir,
        "verify": _fmt(cfg.verify),
    }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def _get(cp, section, key, conv, default=None, required=False):
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"{section}.{key}: missing required field")
        return default
    raw = cp.get(section, key)
    try:
        return conv(raw)
    except ValueError as e:
        raise ConfigError(f"{section}.{key}: {e}") from e


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


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in raw.split(",") if v.strip())


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


def _section(name: str, build):
    """Build one section's runtime object, reporting its precondition
    failures as config errors of that section."""
    try:
        return build()
    except PreconditionError as e:
        raise ConfigError(f"{name}: {e}") from e


def parse(text: str) -> RunConfig:
    cp = configparser.ConfigParser()
    try:
        cp.read_string(text)
    except configparser.Error as e:
        raise ConfigError(f"config syntax: {e}") from e

    problem = ProblemSpec(
        kind=_get(cp, "problem", "kind", str, "quadratic"),
        m=_get(cp, "problem", "m", int, 16),
        n=_get(cp, "problem", "n", int, 16),
        rank=_get(cp, "problem", "rank", int, 8),
        decay=_get(cp, "problem", "decay", _float, 0.8),
        scale=_get(cp, "problem", "scale", _float, 5.0),
        gen_seed=_get(cp, "problem", "gen_seed", int, 20240001),
    )
    optimizer = OptimizerSpec(
        kind=_get(cp, "optimizer", "kind", str, "muon"),
        momentum=_get(cp, "optimizer", "momentum", str, "nesterov"),
        schedule=_get(cp, "optimizer", "schedule", str, "corollary1"),
        K=_get(cp, "optimizer", "k", int, 100),
        B=_get(cp, "optimizer", "b", int, 1),
        alpha=_get(cp, "optimizer", "alpha", _float, 2.0),
        eta=_get(cp, "optimizer", "eta", _float, 0.02),
        beta=_get(cp, "optimizer", "beta", _float, 0.95),
    )
    polar = PolarSpec(
        solver=_get(cp, "polar", "solver", str, "polynomial"),
        schedule=_get(cp, "polar", "schedule", str, "quintic-theoretical"),
        q=_get(cp, "polar", "q", int, 6),
        delta=_get(cp, "polar", "delta", str, "frobenius-norm"),
        coefficients=_get(cp, "polar", "coefficients", _triples, ()),
    )
    polar.delta_rule()  # a bad explicit delta is a config error, not a run failure
    sketch = None
    if cp.has_section("sketch"):
        sketch = _section("sketch", lambda: SketchConfig(
            s=_get(cp, "sketch", "s", int, required=True),
            p=_get(cp, "sketch", "p", int, 2),
            h=_get(cp, "sketch", "h", int, 0),
            kind=_get(cp, "sketch", "kind", str, "gaussian"),
        ))
    calib_shape = _get(cp, "noise", "calib_shape", _int_tuple, None)
    noise = _section("noise", lambda: NoiseModel(
        alpha=_get(cp, "noise", "alpha", _float, 2.0),
        sigma0=_get(cp, "noise", "sigma0", _float, 0.0),
        sigma1=_get(cp, "noise", "sigma1", _float, 0.0),
        tail_exponent=_get(cp, "noise", "tail_exponent", _float, None),
        scale0=_get(cp, "noise", "scale0", _float, None),
        scale1=_get(cp, "noise", "scale1", _float, None),
        calib_shape=tuple(calib_shape) if calib_shape else None,
        calib_rel_tol=_get(cp, "noise", "calib_rel_tol", _float, None),
    ))
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
    with open(path, encoding="utf-8") as f:
        return parse(f.read())


def save(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize(cfg))
