"""Flat key = value run configuration.

Example::

    # spreading run
    beta = 0.5
    mu = 2.0
    a = 1
    b = 0
    h0 = 4.25
    lambda = 1.0
    nx = 800
    dt = 0.0036
    tmax = 80
    nonlinearity = logistic

Recognized nonlinearity kinds: ``logistic``, ``cubic`` (reads ``gamma``),
``custom`` (reads ``coefficients`` as ascending polynomial coefficients,
e.g. ``coefficients = 0, 1, 0, -1`` for u - u^3), checked against the
admissibility clauses of nonlinearity.validate on load.  Unknown keys are
rejected with a line diagnostic.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .nonlinearity import Nonlinearity, cubic_monostable, from_coefficients, logistic, validate
from .stefan import ProblemSpec, default_initial_profile

__all__ = ["parse_config", "load_config", "nonlinearity_from_config", "spec_from_config"]

_FLOAT_KEYS = {"beta", "mu", "a", "b", "h0", "lambda", "dt", "tmax", "gamma"}
_INT_KEYS = {"nx"}
_LIST_KEYS = {"coefficients"}
_STR_KEYS = {"nonlinearity"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _LIST_KEYS | _STR_KEYS

DEFAULTS = {"a": 1.0, "b": 0.0, "lambda": 1.0, "nonlinearity": "logistic"}


def parse_config(text: str) -> dict:
    """Parse flat key = value lines; '#' starts a comment."""
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in cfg:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key in _FLOAT_KEYS:
                cfg[key] = float(value)
            elif key in _INT_KEYS:
                cfg[key] = int(value)
            elif key in _LIST_KEYS:
                cfg[key] = [float(v) for v in value.split(",") if v.strip()]
            else:
                cfg[key] = value.lower()
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return cfg


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def nonlinearity_from_config(cfg: dict) -> Nonlinearity:
    kind = cfg.get("nonlinearity", DEFAULTS["nonlinearity"])
    if kind == "logistic":
        return logistic()
    if kind == "cubic":
        if "gamma" not in cfg:
            raise ConfigError("nonlinearity = cubic requires gamma")
        return cubic_monostable(cfg["gamma"])
    if kind == "custom":
        if "coefficients" not in cfg:
            raise ConfigError("nonlinearity = custom requires coefficients")
        n = from_coefficients(cfg["coefficients"])
        try:
            failing = validate(n).failing()
        except ValueError as exc:  # f(0) or f(1) off zero
            failing = [f"roots_at_0_and_1 ({exc})"]
        if failing:
            raise ConfigError("custom reaction term is not admissible, fails: "
                              + ", ".join(failing))
        return n
    raise ConfigError(f"unknown nonlinearity kind {kind!r}")


def spec_from_config(cfg: dict) -> ProblemSpec:
    for key in ("beta", "mu", "h0", "tmax"):
        if key not in cfg:
            raise ConfigError(f"missing required key {key!r}")
    n = nonlinearity_from_config(cfg)
    a = cfg.get("a", DEFAULTS["a"])
    b = cfg.get("b", DEFAULTS["b"])
    lam = cfg.get("lambda", DEFAULTS["lambda"])
    psi = default_initial_profile(cfg["h0"], a, b)
    kwargs = {}
    if "nx" in cfg:
        kwargs["nx"] = cfg["nx"]
    if "dt" in cfg:
        kwargs["dt"] = cfg["dt"]
    try:
        return ProblemSpec(beta=cfg["beta"], mu=cfg["mu"], a=a, b=b,
                           h0=cfg["h0"], nonlinearity=n,
                           u0=lambda x: lam * np.asarray(psi(x)),
                           tmax=cfg["tmax"], **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
