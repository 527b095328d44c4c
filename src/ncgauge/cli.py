"""Command-line driver: verification suites, action minimization, and the
two-point Higgs scan, with deterministic CSV/JSON outputs.

Three commands (positional or via ``--command``):

* ``verify``   — run the seeded invariant suites; JSON report to stdout;
  exit 0 iff everything passes.
* ``minimize`` — gradient descent on the matrix-model action from a seeded
  random start to the gradient tolerance ``--tol`` (or, with ``--dims``, judge
  a lattice configuration by :func:`ncgauge.lattice.vacuum_check`); CSV trace
  (iter, action, grad_norm, step, backtracks) and a JSON summary naming the vacuum.
* ``two_point``— scan the two-point model action over a φ-grid;
  CSV (re_phi, im_phi, action) plus a JSON summary.

A JSON config file (``--config``) overrides command-line flags.  With
``--out`` the CSV goes to that file and the JSON summary to stdout;
without it the CSV goes to stdout and the summary to stderr.  Outputs
contain no timestamps and all randomness flows from ``--seed``, so a
fixed seed reproduces results byte-for-byte.

Exit codes: 0 success; 1 suite failure or missed convergence; 2 bad
configuration; 3 out of memory, reported in one stderr line that names the
command.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import make_dataclass
from pathlib import Path

import numpy as np

from . import verify as verify_mod
from .basis import MatrixBasis, from_complex_record
from .connections import flat_connection_check, minimize, random_connection
from .errors import ConfigError, NCGaugeError
from .lattice import (
    MAX_LATTICE_DIM,
    MAX_SIDE,
    random_lattice_config,
    vacuum_check,
    vacuum_config,
    zero_momentum_gradient_norm,
)
from .spectral import two_point_action
from .tolerances import Check

__all__ = ["RunConfig", "build_config", "cmd_verify", "cmd_minimize", "cmd_two_point", "main"]

#: one ``minimize`` CSV row per iteration: the accepted step and its halvings
_MINIMIZE_HEADER = ["iter", "action", "grad_norm", "step", "backtracks"]


def _option(test, wording: str, kind: type | None = None):
    """Parser of one option: ``kind(value)``, refusing a boolean and a fraction that
    ``int`` would truncate, then ``must be {wording}`` unless ``test`` holds."""
    def parse(value):
        if kind is not None:
            truncated = kind is int and isinstance(value, float) and not value.is_integer()
            try:
                if isinstance(value, bool) or truncated:
                    raise TypeError
                value = kind(value)
            except (OverflowError, TypeError, ValueError):
                noun = "an integer" if kind is int else "a number"
                raise ValueError(f"must be {noun}, got {value!r}") from None
        if not test(value):
            raise ValueError(f"must be {wording}, got {value!r}")
        return value

    return parse


def _one_of(*names: str):
    return _option(lambda value: value in names, "/".join(names))


_SIDE = _option(lambda side: 2 <= side <= MAX_SIDE, f"in 2..{MAX_SIDE}", int)
_POSITIVE = _option(lambda x: 0 < x < np.inf, "finite and positive", float)  # NaN fails too
_NON_NEGATIVE = _option(lambda k: k >= 0, "non-negative", int)  # default_rng refuses a seed < 0
_PATH = _option(lambda path: isinstance(path, str), "a path string")


def _dims(value) -> tuple[int, ...]:
    """Lattice shape from ``"8,8"``, ``8`` or ``[8, 8]``."""
    sides = value if isinstance(value, list) else [s for s in str(value).split(",") if s.strip()]
    try:
        dims = tuple(_SIDE(side) for side in sides)
    except ValueError:
        dims = ()
    if not 1 <= len(dims) <= MAX_LATTICE_DIM:
        raise ValueError(f"must be 1..{MAX_LATTICE_DIM} sides in 2..{MAX_SIDE}, got {value!r}")
    return dims


def _matrix(value) -> np.ndarray:
    try:
        return from_complex_record(value) if isinstance(value, dict) else np.array(value, complex)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"must be a complex matrix, got {value!r} ({exc})") from exc


# config key -> (RunConfig field, parser, default, flag help): a key with a help string is
# also a flag, and the config file may set every key and "command".  The parser takes a
# flag's text or a config entry; a null entry keeps a None default and fails any other.
_OPTIONS = {
    "n": ("n", _option(lambda n: n >= 2, "at least 2", int), 2, "matrix size (default 2)"),
    "N": ("big_n", _option(lambda n: n >= 1, "at least 1", int), 1, "two-point block size"),
    "r": ("r", _option(lambda r: r >= 1, "positive", int), None, "module row size (default n)"),
    "dims": ("dims", _dims, None, "lattice shape, e.g. 16 or 8,8"),
    "mu": ("mu", _POSITIVE, 1.0, "algebraic-direction weight"),
    "seed": ("seed", _NON_NEGATIVE, 0, "seed for all randomness"),
    "steps": ("steps", _NON_NEGATIVE, None, "iteration/grid budget"),
    "tol": ("tol", _POSITIVE, 1e-8, "gradient tolerance of the matrix descent"),
    "out": ("out", _PATH, None, "CSV output path"),
    "init": ("init", _one_of("broken", "symmetric", "random"), "broken", None),
    "grid": ("grid", _one_of("real", "circle"), "real", None),
    "M": ("m_matrix", _matrix, None, None),
}

RunConfig = make_dataclass("RunConfig", ["command", *(field for field, *_ in _OPTIONS.values())], namespace={
    "__module__": __name__,
    "__doc__": "Resolved run parameters, flags merged with the JSON config: the command, then the fields of "
               "``_OPTIONS`` in table order.",
})


def build_config(argv: list[str]) -> RunConfig:
    """Parse flags, merge the optional JSON config on top, validate.

    Raises ``ConfigError`` on any invalid input (exit code 2 territory); a
    ``--help`` request exits 0 through ``SystemExit``.
    """
    parser = argparse.ArgumentParser(
        prog="ncgauge",
        description="matrix geometry toolkit: verification, minimization, two-point scan",
    )
    parser.add_argument("positional_command", nargs="?", choices=_COMMANDS, metavar="command")
    parser.add_argument("--command", choices=_COMMANDS, dest="command_flag")
    parser.add_argument("--config", help="JSON file whose entries override flags")
    for key, (_, _, default, text) in _OPTIONS.items():
        if text is not None:
            metavar = "BIG_N" if key == "N" else None  # "N" is already --n's metavar
            parser.add_argument(f"--{key}", default=default, help=text, metavar=metavar)
    # argparse reads "-1e-3" or "-inf" after a flag as an option, but "--tol=-1e-3" as a value
    flags = {"--command", "--config"} | {f"--{key}" for key, opt in _OPTIONS.items() if opt[3]}
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] in flags and argv[i].startswith("-") and not argv[i].startswith("--"):
            argv = [*argv[: i - 1], f"{argv[i - 1]}={argv[i]}", *argv[i + 1 :]]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:
            raise
        raise ConfigError("unparseable command line") from exc

    merged = {key: getattr(args, key, default) for key, (_, _, default, _) in _OPTIONS.items()}
    merged["command"] = args.command_flag or args.positional_command
    if args.config:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded) - {"command", *_OPTIONS}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)

    command = merged["command"]
    if command not in tuple(_COMMANDS):  # a tuple: a config entry may be unhashable
        raise ConfigError(f"command must be one of {tuple(_COMMANDS)}, got {command!r}")
    fields = {"command": command}
    for key, (field, parse, default, _) in _OPTIONS.items():
        value = merged[key]
        try:
            fields[field] = None if value is None and default is None else parse(value)
        except ValueError as exc:
            raise ConfigError(f"{key} {exc}") from exc
    m, big_n = fields["m_matrix"], fields["big_n"]
    if m is not None and m.shape != (big_n, big_n):
        raise ConfigError(f"M must be {big_n}x{big_n}, got shape {m.shape}")
    return RunConfig(**fields)


def _emit(cfg: RunConfig, csv_header: list[str], csv_rows: list[tuple], summary: dict) -> None:
    """CSV to --out (or stdout), JSON summary to stdout (or stderr)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(csv_header)
    for row in csv_rows:
        writer.writerow([repr(x) if isinstance(x, float) else x for x in row])
    text = buf.getvalue()
    summary_text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    if cfg.out:
        Path(cfg.out).write_text(text, encoding="utf-8")
        sys.stdout.write(summary_text)
    else:
        sys.stdout.write(text)
        sys.stderr.write(summary_text)


def cmd_verify(cfg: RunConfig) -> int:
    report = verify_mod.run_all(n=cfg.n, seed=cfg.seed)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if cfg.out:
        Path(cfg.out).write_text(text, encoding="utf-8")
    return 0 if report["passed"] else 1


def _classify_orbit(flatness: Check, casimir: float, n: int, r: int) -> str:
    """The orbit a descent endpoint reached, by the scale-free ``flatness``
    verdict that also gives the summary's ``flat``, then by the Casimir."""
    if not flatness.passed:  # a NaN residual too
        return "unconverged"
    canonical = n * (n**2 - 1)
    if abs(casimir) < 0.5:
        return "symmetric"
    if r == n and abs(casimir - canonical) < 0.5:  # A_k = iE_k needs r = n
        return "canonical-flat"
    return "flat-other"


def _cmd_minimize_lattice(cfg: RunConfig, basis: MatrixBasis, rng: np.random.Generator) -> int:
    if cfg.init == "random":
        lat = random_lattice_config(cfg.dims, basis, cfg.mu, rng, scale=0.3)
    else:
        lat = vacuum_config(cfg.init, cfg.dims, basis, cfg.mu)
    vacuum = vacuum_check(lat)
    gnorm = zero_momentum_gradient_norm(lat)
    classification = "unconverged"
    if vacuum.passed:
        classification = "symmetric" if cfg.init == "symmetric" else "broken"
    summary = {
        "mode": "lattice",
        "dims": list(cfg.dims),
        "init": cfg.init,
        "mu": cfg.mu,
        "action": vacuum.residual,
        "action_tolerance": vacuum.tolerance,
        "action_scale": vacuum.scale,
        "grad_norm": gnorm,
        "converged": vacuum.passed,
        "classification": classification,
    }
    _emit(cfg, _MINIMIZE_HEADER, [(0, vacuum.residual, gnorm, 0.0, 0)], summary)
    return 0 if vacuum.passed else 1


def cmd_minimize(cfg: RunConfig) -> int:
    basis = MatrixBasis.gellmann(cfg.n)
    rng = np.random.default_rng(cfg.seed)
    if cfg.dims is not None:
        return _cmd_minimize_lattice(cfg, basis, rng)
    conn0 = random_connection(basis, rng, r=cfg.r)
    budget = {} if cfg.steps is None else {"max_iter": cfg.steps}
    res = minimize(conn0, gtol=cfg.tol, **budget)
    report = flat_connection_check(res.connection, tol=max(cfg.tol, 1e-10))
    summary = {
        "mode": "matrix",
        "n": cfg.n,
        "r": res.connection.r,
        "seed": cfg.seed,
        "action": res.action,
        "grad_norm": res.grad_norm,
        "iterations": res.iterations,
        "converged": res.converged,
        "stop_reason": res.stop_reason,
        "flat": report.flatness.passed,
        "curvature_residual": report.flatness.residual,
        "curvature_tolerance": report.flatness.tolerance,
        "curvature_scale": report.flatness.scale,
        "casimir": report.casimir,
        "classification": _classify_orbit(report.flatness, report.casimir, cfg.n, res.connection.r),
    }
    _emit(cfg, _MINIMIZE_HEADER, res.trace, summary)
    return 0 if res.converged else 1


def cmd_two_point(cfg: RunConfig) -> int:
    m = np.eye(cfg.big_n, dtype=complex) if cfg.m_matrix is None else cfg.m_matrix
    if cfg.grid == "circle":
        count = 64 if cfg.steps is None else max(1, cfg.steps)
        phis = np.exp(2j * np.pi * np.arange(count) / count)
    else:
        count = 81 if cfg.steps is None else max(2, cfg.steps)
        phis = np.linspace(-2.0, 2.0, count).astype(complex)
    rows = [(float(np.real(phi)), float(np.imag(phi)), two_point_action(phi, m)) for phi in phis]
    best = min(rows, key=lambda row: row[2])  # the first of equal minima
    summary = {
        "mode": "two_point",
        "N": cfg.big_n,
        "grid": cfg.grid,
        "points": len(rows),
        "min_action": best[2],
        "argmin_phi": [best[0], best[1]],
    }
    _emit(cfg, ["re_phi", "im_phi", "action"], rows, summary)
    return 0


#: command name -> handler: the argparse choices and ``main``'s dispatch
_COMMANDS = {"verify": cmd_verify, "minimize": cmd_minimize, "two_point": cmd_two_point}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = "configuration"  # until the command is known
    try:
        cfg = build_config(argv)
        command = cfg.command
        return _COMMANDS[command](cfg)
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except NCGaugeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:  # numpy's _ArrayMemoryError too
        sys.stderr.write(f"error: out of memory in {command}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
