"""Problem configuration files and field CSV import/export.

Config files are INI-style with sections ``[domain] [frame] [exponent]
[boundary] [jensen] [solver]``, and any other section or key is
rejected; frame entries, the exponent, and the boundary data are
expression strings.  Field CSVs carry a ``x,y,value`` header and one row
per node, row-major with y outer and x inner, printed with 17 significant
digits so re-import is bitwise exact and checks each node's coordinates.
"""

from __future__ import annotations

import configparser
from pathlib import Path

import numpy as np

from . import expressions
from .grid import FrameSingular, Grid2D, build_grid, sample_frame
from .solvers import ProblemSpec, SolverConfig


class ConfigError(ValueError):
    """Problem file invalid; the message names section.key."""


_SOLVER = {"k_schedule": lambda s: tuple(float(t) for t in s.split(",")),
           "polish_sweeps": int}
# the keys each section may hold; the sections in _REQUIRED need all theirs
_KEYS = {
    "domain": ["xmin", "xmax", "ymin", "ymax", "nx", "ny"],
    "frame": ["a11", "a12", "a21", "a22"],
    "exponent": ["p"],
    "boundary": ["f"],
    "jensen": ["epsilon"],
    "solver": list(_SOLVER),
}
_REQUIRED = ("domain", "frame", "exponent", "boundary")


def _get(cp: configparser.ConfigParser, section: str, key: str) -> str:
    if not cp.has_option(section, key):
        raise ConfigError(f"missing key {section}.{key}")
    return cp.get(section, key)


def _parse_expr(cp: configparser.ConfigParser, section: str, key: str):
    try:
        return expressions.parse(_get(cp, section, key))
    except expressions.ParseError as exc:
        raise ConfigError(f"bad expression in {section}.{key}: {exc}") from exc


def _sampled(what: str, sample, *args) -> np.ndarray:
    """``sample(*args)``; a DomainError, which names the first failing
    node, becomes a ConfigError naming ``what``."""
    try:
        return sample(*args)
    except expressions.DomainError as exc:
        raise ConfigError(f"{what} not evaluable: {exc}") from exc


def load_problem(path: str | Path) -> ProblemSpec:
    """Load and fully validate a problem configuration.

    The frame is sampled and determinant-checked, the exponent checked
    against p_min, and the boundary data checked finite, so a returned
    spec is ready to solve.
    """
    path = Path(path)
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path}")
    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _KEYS[section]:
                raise ConfigError(f"unknown key {section}.{key}")
    for section in _REQUIRED:
        for key in _KEYS[section]:
            _get(cp, section, key)

    try:
        # build_grid converts the bounds with float and the sizes with int
        grid = build_grid(*(cp.get("domain", k) for k in _KEYS["domain"]))
    except ValueError as exc:
        raise ConfigError(f"bad domain: {exc}") from exc

    cfg_kwargs = {}
    if cp.has_section("solver"):
        for key in cp.options("solver"):
            try:
                cfg_kwargs[key] = _SOLVER[key](cp.get("solver", key))
            except ValueError as exc:
                raise ConfigError(f"bad value for solver.{key}: {exc}") from exc
    try:
        config = SolverConfig(**cfg_kwargs)
    except ValueError as exc:
        # every SolverConfig message starts with the field's name
        raise ConfigError(f"bad solver config: solver.{exc}") from exc

    exprs = [_parse_expr(cp, "frame", key)
             for key in ("a11", "a12", "a21", "a22")]
    try:
        frame = _sampled("frame", sample_frame, *exprs, grid)
    except FrameSingular as exc:
        raise ConfigError(f"singular [frame]: {exc}") from exc
    p = _sampled("exponent.p", grid.sample, _parse_expr(cp, "exponent", "p"))
    f = _sampled("boundary.f", grid.sample, _parse_expr(cp, "boundary", "f"))

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
    xs = [f"{x:.17g}," for x in grid.xs.tolist()]
    ys = [f"{y:.17g}," for y in grid.ys.tolist()]
    with open(path, "w") as fh:
        fh.write("".join(["x,y,value\n"] + [
            f"{x}{y}{v:.17g}\n" for y, row in zip(ys, field.tolist())
            for x, v in zip(xs, row)]))


def import_field(path: str | Path, grid: Grid2D) -> np.ndarray:
    """Read a field CSV written by :func:`export_field` on ``grid``: its x
    and y columns must equal the grid's node coordinates exactly."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1)
    if raw.ndim != 2 or raw.shape != (grid.n_nodes, 3):
        raise ValueError(
            f"expected {grid.n_nodes} data rows of x,y,value in {path}"
        )
    nodes = np.stack([X.ravel() for X in grid.meshgrid()], axis=1)
    off = np.flatnonzero(np.any(raw[:, :2] != nodes, axis=1))
    if off.size:
        r = off[0]
        (x, y), (gx, gy) = raw[r, :2].tolist(), nodes[r].tolist()
        raise ValueError(f"data row {r + 1} of {path} is at (x, y) = "
                         f"({x!r}, {y!r}), not at the grid node "
                         f"({gx!r}, {gy!r})")
    return raw[:, 2].reshape(grid.shape)
