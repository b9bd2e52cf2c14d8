"""Command-line entry point.

Subcommands:
  gradcheck    finite-difference check of the composed alignment objective
  train-align  desk-scale alignment training of the connector
  verify       single-instance self-verification with an audit record
  eval         benchmark evaluation (direct / cot / sv)
  sweep        self-verification accuracy across an alpha grid
  curate       the CoT curation pipeline

Settings resolve as: flags override the optional JSON config file, which
overrides built-in defaults (alpha 0.7, 24 prefix rows). Backends are
selected with "mock:<script.json>" or "remote:<url>"; remote credentials
come from the GATEMIX_API_KEY environment variable. All artifacts land
under the --out directory. Exit codes: 0 success, 1 validation error, 2
runtime failure, which includes an eval whose every instance failed (its
report is still written).
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import os
import sys
import time
from contextlib import closing
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .backend import BackendError, MockBackend, RemoteBackend, dual_generate
from .connector import ConnectorConfig
from .curation import SCORE_THRESHOLD, load_records, run_pipeline
from .evalharness import STRATEGIES, alpha_sweep, default_alpha_grid, load_benchmark, run_eval
from .training import GRAD_CHECK_TOL, TrainConfig, grad_check, train_stage1
from .verify import (DEFAULT_ALPHA, audit_record, check_alpha, letter_options, score_response,
                     self_verify)

API_KEY_ENV = "GATEMIX_API_KEY"


class _ValidationError(Exception):
    """CLI-level validation failure (maps to exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _ValidationError(message)


def _default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


class _Setting(NamedTuple):
    default: object  # None: a string with no default; a dict: an object of nested settings
    commands: tuple = ()  # the subcommands that take a --flag for it


_TRAIN = ("gradcheck", "train-align")
_BACKEND = ("verify", "eval", "sweep", "curate")

# The one table of settings, each default taken from the code that owns it.
_SETTINGS = {
    "backend": _Setting(None, _BACKEND),
    "api_key_env": _Setting(API_KEY_ENV),
    "remote": _Setting({name: _default(RemoteBackend, name)
                        for name in ("model", "timeout", "retries", "max_in_flight")}),
    "dims": _Setting({f.name: f.default for f in fields(ConnectorConfig)}),
    "seed": _Setting(TrainConfig.seed, _TRAIN),
    "steps": _Setting(TrainConfig.steps, ("train-align",)),
    "batch_size": _Setting(TrainConfig.batch_size, _TRAIN),
    "lr": _Setting(TrainConfig.lr, ("train-align",)),
    "lambda": _Setting(TrainConfig.lam, _TRAIN),
    "alpha": _Setting(DEFAULT_ALPHA, ("verify", "eval")),
    "workers": _Setting(_default(run_eval, "max_workers"), ("eval", "sweep")),
    "threshold": _Setting(SCORE_THRESHOLD, ("curate",)),
}

_JSON_TYPES = {int: "an integer", float: "a number", str: "a string", dict: "an object"}


def _check_config(config: dict, defaults: dict, where: str = "") -> None:
    """Every key must be a setting, and every value must have its default's
    JSON type (a string where the default is None); objects recursively."""
    for key, value in config.items():
        if key not in defaults:
            raise _ValidationError(f"config key {key!r}{where} is not a setting")
        kind = str if defaults[key] is None else type(defaults[key])
        if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
            raise _ValidationError(
                f"config key {key!r}{where} must be {_JSON_TYPES[kind]}, got {value!r}")
        if kind is dict:
            _check_config(value, defaults[key], f" in {key!r}")


def _load_config(path) -> dict:
    """The config file, checked whole whichever subcommand runs."""
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise _ValidationError("config file must hold a JSON object")
    _check_config(config, {key: s.default for key, s in _SETTINGS.items()})
    return config


def _resolve(args, config: dict) -> dict:
    """Every setting: the flag, else the config value, else the default (an
    object's fields one by one)."""
    settings = {}
    for key, s in _SETTINGS.items():
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key, s.default)
            if isinstance(s.default, dict):
                value = {**s.default, **value}
        settings[key] = value
    return settings


def _make_backend(settings: dict):
    """The configured backend; callers close it when done."""
    spec = settings["backend"]
    if spec is None:
        raise _ValidationError("no backend configured (use --backend or the config file)")
    if spec.startswith("mock:"):
        return MockBackend.from_json(spec[len("mock:"):])
    if spec.startswith("remote:"):
        return RemoteBackend(
            endpoint=spec[len("remote:"):],
            api_key=os.environ.get(settings["api_key_env"]),
            **settings["remote"],
        )
    raise _ValidationError(f"backend spec must start with 'mock:' or 'remote:', got {spec!r}")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, value) -> None:
    """Write ``value`` (a dataclass as its fields) as a byte-stable JSON
    artifact: sorted keys, two-space indent and a final newline, streamed
    with no whole-artifact string."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(vars(value) if is_dataclass(value) else value, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _alpha_label(alpha: float) -> str:
    """``alpha`` as the text tables print it: with two decimals, unless that
    rounds it, and then as JSON holds it."""
    text = f"{alpha:.2f}"
    return text if float(text) == alpha else json.dumps(alpha)


_MAX_GRID_POINTS = 10001


def _parse_grid(text: str) -> list:
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError as exc:
        raise _ValidationError(f"grid must look like start:stop:step, got {text!r}") from exc
    if not (0.0 <= start <= stop <= 1.0 and 0.0 < step < math.inf):  # NaN fails every comparison
        raise _ValidationError(
            f"bad grid {text!r}: need 0 <= start <= stop <= 1 and a finite step > 0")
    # the slack lets float rounding still reach stop (0:1:0.1 ends at 1.0);
    # the grid is sized before it is built
    steps = (stop - start) / step + 1e-9
    if steps >= _MAX_GRID_POINTS:
        raise _ValidationError(f"bad grid {text!r}: more than {_MAX_GRID_POINTS} points")
    return [min(round(start + i * step, 10), stop) for i in range(int(steps) + 1)]


def _cmd_gradcheck(args, settings) -> int:
    cfg = TrainConfig(seed=settings["seed"], batch_size=settings["batch_size"],
                      lam=settings["lambda"])
    rel_err = grad_check(cfg, ConnectorConfig(**settings["dims"]))
    print(f"max relative error: {rel_err:.3e} (tolerance {GRAD_CHECK_TOL:.0e})")
    return 0 if rel_err <= GRAD_CHECK_TOL else 2


def _cmd_train_align(args, settings) -> int:
    out = _out_dir(args)
    cfg = TrainConfig(steps=settings["steps"], batch_size=settings["batch_size"],
                      lr=settings["lr"], lam=settings["lambda"], seed=settings["seed"])
    start = time.perf_counter()
    report = train_stage1(
        cfg, ConnectorConfig(**settings["dims"]), checkpoint_path=out / "gatemixer.ckpt"
    )
    wall_time_s = time.perf_counter() - start
    _write_json(out / "training_report.json", report)
    print(
        f"loss {report.initial_loss:.6f} -> {report.final_loss:.6f} over {cfg.steps} steps "
        f"(grad check {report.grad_check_rel_err:.3e}, {wall_time_s:.2f}s)"
    )
    return 0


def _cmd_verify(args, settings) -> int:
    check_alpha(settings["alpha"])
    out = _out_dir(args)
    with closing(_make_backend(settings)) as backend:
        options = letter_options(args.option or [])
        direct_trace, cot_trace = dual_generate(backend, args.image_ref, args.question)
    decision = self_verify(score_response(direct_trace, options),
                           score_response(cot_trace, options), settings["alpha"])
    _write_json(out / "verify_audit.json", audit_record(decision))
    print(f"final answer: {decision.final_answer} ({decision.chosen_branch})")
    return 0


def _load_benchmark(path) -> list:
    """The benchmark's instances; each skipped line is a warning on stderr."""
    instances, errors = load_benchmark(path)
    for err in errors:
        print(f"warning: skipped {err}", file=sys.stderr)
    return instances


def _cmd_eval(args, settings) -> int:
    out = _out_dir(args)
    with closing(_make_backend(settings)) as backend:
        report = run_eval(backend, _load_benchmark(args.benchmark), args.strategy,
                          alpha=settings["alpha"], max_workers=settings["workers"])
    _write_json(out / "report.json", report)
    lines = ["strategy  alpha  instances  correct  accuracy",
             f"{report.strategy:<8}  {_alpha_label(report.alpha):<5}  {report.n_instances:<9d}  "
             f"{report.n_correct:<7d}  {report.accuracy:.4f}"]
    if report.branch_counts:
        counts = sorted(report.branch_counts.items())
        lines.append("branches: " + ", ".join(f"{k}={v}" for k, v in counts))
    (out / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    failed = sum(r["error"] is not None for r in report.records)
    print(f"{args.strategy} accuracy: {report.accuracy:.4f} on {report.n_instances} instances, "
          f"{failed} failed")
    if failed and failed == report.n_instances:
        print(f"failure: every instance failed, the first with {report.records[0]['error']}",
              file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(args, settings) -> int:
    out = _out_dir(args)
    with closing(_make_backend(settings)) as backend:
        grid = _parse_grid(args.grid) if args.grid else default_alpha_grid()
        results = alpha_sweep(backend, _load_benchmark(args.benchmark), grid=grid,
                              max_workers=settings["workers"])
    lines = ["alpha  accuracy"] + [f"{_alpha_label(a):<5}  {acc:.4f}" for a, acc in results]
    table = "\n".join(lines) + "\n"
    print(table, end="")
    _write_json(out / "sweep.json", [{"alpha": a, "accuracy": acc} for a, acc in results])
    (out / "sweep.txt").write_text(table, encoding="utf-8")
    return 0


def _cmd_curate(args, settings) -> int:
    out = _out_dir(args)
    with closing(_make_backend(settings)) as backend:
        records = load_records(args.records)
        instances, stats = run_pipeline(records, backend.complete_text,
                                        threshold=settings["threshold"])
    with open(out / "curated.jsonl", "w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(json.dumps(vars(inst), sort_keys=True) + "\n")
    _write_json(out / "curation_stats.json", stats)
    print(f"kept {stats.kept}, dropped {stats.dropped}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="gatemix", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="JSON config file", default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, func, help_text in [
        ("gradcheck", _cmd_gradcheck, "finite-difference check of the alignment objective"),
        ("train-align", _cmd_train_align, "desk-scale alignment training"),
        ("verify", _cmd_verify, "self-verify one instance"),
        ("eval", _cmd_eval, "benchmark evaluation"),
        ("sweep", _cmd_sweep, "alpha sweep of self-verification accuracy"),
        ("curate", _cmd_curate, "CoT curation pipeline"),
    ]:
        commands[name] = sub.add_parser(name, help=help_text)
        commands[name].set_defaults(func=func)
        if name != "gradcheck":
            commands[name].add_argument("--out", default="out")
    for key, s in _SETTINGS.items():
        for name in s.commands:
            commands[name].add_argument("--" + key.replace("_", "-"), default=None,
                                        type=str if s.default is None else type(s.default))

    p = commands["verify"]
    p.add_argument("--image-ref", required=True)
    p.add_argument("--question", required=True)
    p.add_argument("--option", action="append", help="option text; repeat per option")
    p = commands["eval"]
    p.add_argument("--benchmark", required=True)
    p.add_argument("--strategy", choices=STRATEGIES, default="sv")
    p = commands["sweep"]
    p.add_argument("--benchmark", required=True)
    p.add_argument("--grid", default=None, help="start:stop:step, at most 10001 points, default 0:1:0.1")
    commands["curate"].add_argument("--records", required=True)
    return parser


def dispatch(argv) -> int:
    """Parse argv and run the selected subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(all="ignore"):  # the finiteness checks report a diverging run
            return args.func(args, _resolve(args, _load_config(args.config)))
    except _ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BackendError as exc:
        # before ValueError: a malformed service reply is both, and the
        # service is at fault
        print(f"failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    try:
        return dispatch(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse -h and friends
        code = exc.code
        return code if isinstance(code, int) else 0


if __name__ == "__main__":
    sys.exit(main())
