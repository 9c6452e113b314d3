"""Problem configuration files and field CSV import/export.

Config files are INI-style with sections ``[domain] [frame] [exponent]
[boundary] [jensen] [solver]``; frame entries, the exponent, and the
boundary data are expression strings.  Field CSVs carry a ``x,y,value``
header and one row per node, row-major with y outer and x inner, printed
with 17 significant digits so re-import is bitwise exact.
"""

from __future__ import annotations

import configparser
from pathlib import Path

import numpy as np

from . import expressions
from .grid import Grid2D, build_grid, sample_frame
from .solvers import ProblemSpec, SolverConfig


class ConfigError(ValueError):
    """Problem file invalid; the message names section.key."""


_REQUIRED = {
    "domain": ["xmin", "xmax", "ymin", "ymax", "nx", "ny"],
    "frame": ["a11", "a12", "a21", "a22"],
    "exponent": ["p"],
    "boundary": ["f"],
}


def _get(cp: configparser.ConfigParser, section: str, key: str) -> str:
    if not cp.has_option(section, key):
        raise ConfigError(f"missing key {section}.{key}")
    return cp.get(section, key)


def _parse_expr(section: str, key: str, text: str):
    try:
        return expressions.parse(text)
    except expressions.ParseError as exc:
        raise ConfigError(f"bad expression in {section}.{key}: {exc}") from exc


def load_problem(path: str | Path) -> ProblemSpec:
    """Load and fully validate a problem configuration.

    The frame is sampled and determinant-checked, the exponent checked
    against p_min, and the boundary data checked finite, so a returned
    spec is ready to solve.
    """
    path = Path(path)
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    for section, keys in _REQUIRED.items():
        if not cp.has_section(section):
            raise ConfigError(f"missing key {section}.{keys[0]}")
        for key in keys:
            _get(cp, section, key)

    try:
        grid = build_grid(
            float(_get(cp, "domain", "xmin")), float(_get(cp, "domain", "xmax")),
            float(_get(cp, "domain", "ymin")), float(_get(cp, "domain", "ymax")),
            int(_get(cp, "domain", "nx")), int(_get(cp, "domain", "ny")),
        )
    except ValueError as exc:
        raise ConfigError(f"bad domain: {exc}") from exc

    cfg_kwargs = {}
    if cp.has_section("solver"):
        conv = {"k_schedule": lambda s: tuple(float(t) for t in s.split(",")),
                "continuation_tol": float, "polish_sweeps": int}
        for key in cp.options("solver"):
            if key not in conv:
                raise ConfigError(f"unknown key solver.{key}")
            try:
                cfg_kwargs[key] = conv[key](cp.get("solver", key))
            except ValueError as exc:
                raise ConfigError(f"bad value for solver.{key}: {exc}") from exc
    try:
        config = SolverConfig(**cfg_kwargs)
    except ValueError as exc:
        # every SolverConfig message starts with the field's name
        raise ConfigError(f"bad solver config: solver.{exc}") from exc

    exprs = {key: _parse_expr("frame", key, _get(cp, "frame", key))
             for key in ("a11", "a12", "a21", "a22")}
    frame = sample_frame(exprs["a11"], exprs["a12"], exprs["a21"], exprs["a22"],
                         grid)

    p_expr = _parse_expr("exponent", "p", _get(cp, "exponent", "p"))
    try:
        p = grid.sample(p_expr)
    except expressions.DomainError as exc:
        raise ConfigError(f"exponent.p not evaluable: {exc}") from exc

    f_expr = _parse_expr("boundary", "f", _get(cp, "boundary", "f"))
    try:
        f = grid.sample(f_expr)
    except expressions.DomainError as exc:
        raise ConfigError(f"boundary.f not evaluable: {exc}") from exc

    epsilon = 0.0
    if cp.has_option("jensen", "epsilon"):
        try:
            epsilon = float(cp.get("jensen", "epsilon"))
        except ValueError as exc:
            raise ConfigError(f"bad value for jensen.epsilon: {exc}") from exc

    try:
        return ProblemSpec(grid=grid, frame=frame, p=p, f=f,
                           epsilon=epsilon, config=config)
    except ValueError as exc:
        raise ConfigError(f"bad problem: {exc}") from exc


def export_field(field: np.ndarray, grid: Grid2D, path: str | Path) -> None:
    """Write a nodal field as x,y,value CSV (17 significant digits)."""
    field = np.asarray(field, dtype=float)
    if field.shape != grid.shape:
        raise ValueError(f"field shape {field.shape} != grid shape {grid.shape}")
    xs, ys = grid.xs, grid.ys
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for j in range(grid.ny):
            for i in range(grid.nx):
                fh.write(f"{xs[i]:.17g},{ys[j]:.17g},{field[j, i]:.17g}\n")


def import_field(path: str | Path, grid: Grid2D) -> np.ndarray:
    """Read a field CSV written by :func:`export_field`, verifying layout."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1)
    if raw.ndim != 2 or raw.shape != (grid.n_nodes, 3):
        raise ValueError(
            f"expected {grid.n_nodes} data rows of x,y,value in {path}"
        )
    return raw[:, 2].reshape(grid.shape)
