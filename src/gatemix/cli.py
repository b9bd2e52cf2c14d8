"""Command-line entry point.

Subcommands:
  gradcheck    finite-difference check of the composed alignment objective
  train-align  desk-scale alignment training of the connector
  verify       single-instance self-verification with an audit record
  eval         benchmark evaluation (direct / cot / sv)
  sweep        self-verification accuracy across an alpha grid
  curate       the CoT curation pipeline

Settings resolve as: flags override the optional JSON config file, which
overrides built-in defaults (alpha 0.7, 24 prefix rows, 1024 max tokens).
Backends are selected with "mock:<script.json>" or "remote:<url>"; remote
credentials come from the GATEMIX_API_KEY environment variable. All
artifacts land under the --out directory. Exit codes: 0 success, 1
validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import closing
from dataclasses import fields
from pathlib import Path

from .backend import BackendError, MockBackend, RemoteBackend, dual_generate
from .connector import ConnectorConfig
from .curation import load_records, run_pipeline, write_instances, write_stats
from .evalharness import (
    alpha_sweep,
    default_alpha_grid,
    emit_report,
    load_benchmark,
    run_eval,
)
from .tensor import finite_diff_check
from .training import (
    GRAD_CHECK_TOL,
    DivergenceError,
    FrozenStandins,
    TrainConfig,
    stage1_loss,
    synth_batch,
    train_stage1,
)
from .verify import (
    DEFAULT_ALPHA,
    ConfigError,
    audit_record,
    letter_options,
    score_response,
    self_verify,
)

API_KEY_ENV = "GATEMIX_API_KEY"


class _ValidationError(Exception):
    """CLI-level validation failure (maps to exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _ValidationError(message)


# every top-level key some subcommand reads
_CONFIG_KEYS = frozenset({"backend", "remote", "api_key_env", "dims", "seed", "steps",
                          "batch_size", "lr", "lambda", "alpha", "workers", "threshold"})
_REMOTE_DEFAULTS = {"model": "default", "timeout": 30.0, "retries": 3, "max_in_flight": 4}


def _reject_unknown(config: dict, known, where: str = "") -> None:
    for key in config:
        if key not in known:
            raise _ValidationError(f"config key {key!r}{where} is not a setting")


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise _ValidationError("config file must hold a JSON object")
    _reject_unknown(config, _CONFIG_KEYS)
    return config


_JSON_TYPES = {int: "an integer", float: "a number", str: "a string", dict: "an object"}


def _setting(flag_value, config: dict, key: str, default):
    """The flag, else the config value, else the default. A config value
    must have the default's JSON type (a string where the default is None)."""
    if flag_value is not None:
        return flag_value
    if key not in config:
        return default
    value, kind = config[key], str if default is None else type(default)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise _ValidationError(f"config key {key!r} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _connector_config(config: dict) -> ConnectorConfig:
    dims = _setting(None, config, "dims", {})
    unknown = sorted(set(dims) - {f.name for f in fields(ConnectorConfig)})
    if unknown:
        raise _ValidationError(f"config key 'dims' has unknown fields {unknown}")
    return ConnectorConfig(**{name: _setting(None, dims, name, 1) for name in dims})


def _make_backend(spec, config: dict):
    """The configured backend; callers close it when done."""
    spec = _setting(spec, config, "backend", None)
    if spec is None:
        raise _ValidationError("no backend configured (use --backend or the config file)")
    if spec.startswith("mock:"):
        return MockBackend.from_json(spec[len("mock:"):])
    if spec.startswith("remote:"):
        remote = _setting(None, config, "remote", {})
        _reject_unknown(remote, _REMOTE_DEFAULTS, " in 'remote'")
        return RemoteBackend(
            endpoint=spec[len("remote:"):],
            api_key=os.environ.get(_setting(None, config, "api_key_env", API_KEY_ENV)),
            **{key: _setting(None, remote, key, default)
               for key, default in _REMOTE_DEFAULTS.items()},
        )
    raise _ValidationError(f"backend spec must start with 'mock:' or 'remote:', got {spec!r}")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


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


def _cmd_gradcheck(args, config) -> int:
    seed = _setting(args.seed, config, "seed", 0)
    ccfg = _connector_config(config)
    from .connector import init_params

    params = init_params(ccfg, seed)
    batch = synth_batch(seed, args.batch_size, ccfg)
    standins = FrozenStandins(ccfg.d_llm)
    rel_err = finite_diff_check(
        lambda ts: stage1_loss(params, batch, standins), params.tensors(), eps=args.eps
    )
    print(f"max relative error: {rel_err:.3e} (tolerance {args.tol:.0e})")
    return 0 if rel_err <= args.tol else 2


def _cmd_train_align(args, config) -> int:
    out = _out_dir(args)
    cfg = TrainConfig(
        steps=_setting(args.steps, config, "steps", 300),
        batch_size=_setting(args.batch_size, config, "batch_size", 4),
        lr=_setting(args.lr, config, "lr", 0.5),
        lam=_setting(args.lam, config, "lambda", 1.0),
        seed=_setting(args.seed, config, "seed", 0),
    )
    report = train_stage1(
        cfg, _connector_config(config), checkpoint_path=out / "gatemixer.ckpt"
    )
    with open(out / "training_report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"loss {report.initial_loss:.6f} -> {report.final_loss:.6f} over {cfg.steps} steps "
        f"(grad check {report.grad_check_rel_err:.3e}, {report.wall_time_s:.2f}s)"
    )
    return 0


def _cmd_verify(args, config) -> int:
    out = _out_dir(args)
    with closing(_make_backend(args.backend, config)) as backend:
        alpha = _setting(args.alpha, config, "alpha", DEFAULT_ALPHA)
        options = letter_options(args.option or [])
        direct_trace, cot_trace = dual_generate(backend, args.image_ref, args.question)
    decision = self_verify(
        score_response(direct_trace, options), score_response(cot_trace, options), alpha
    )
    record = audit_record(decision, alpha)
    with open(out / "verify_audit.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"final answer: {decision.final_answer} ({decision.chosen_branch})")
    return 0


def _cmd_eval(args, config) -> int:
    out = _out_dir(args)
    with closing(_make_backend(args.backend, config)) as backend:
        alpha = _setting(args.alpha, config, "alpha", DEFAULT_ALPHA)
        workers = _setting(args.workers, config, "workers", 1)
        instances, errors = load_benchmark(args.benchmark)
        for err in errors:
            print(f"warning: skipped {err}", file=sys.stderr)
        report = run_eval(backend, instances, args.strategy, alpha=alpha, max_workers=workers)
    emit_report(report, out / "report.json")
    print(f"{args.strategy} accuracy: {report.accuracy:.4f} on {report.n_instances} instances")
    return 0


def _cmd_sweep(args, config) -> int:
    out = _out_dir(args)
    with closing(_make_backend(args.backend, config)) as backend:
        workers = _setting(args.workers, config, "workers", 1)
        grid = _parse_grid(args.grid) if args.grid else default_alpha_grid()
        instances, errors = load_benchmark(args.benchmark)
        for err in errors:
            print(f"warning: skipped {err}", file=sys.stderr)
        results = alpha_sweep(backend, instances, grid=grid, max_workers=workers)
    lines = ["alpha  accuracy"] + [f"{a:<5.2f}  {acc:.4f}" for a, acc in results]
    table = "\n".join(lines) + "\n"
    print(table, end="")
    with open(out / "sweep.json", "w", encoding="utf-8") as fh:
        json.dump([{"alpha": a, "accuracy": acc} for a, acc in results], fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out / "sweep.txt", "w", encoding="utf-8") as fh:
        fh.write(table)
    return 0


def _cmd_curate(args, config) -> int:
    out = _out_dir(args)
    with closing(_make_backend(args.backend, config)) as backend:
        threshold = _setting(args.threshold, config, "threshold", 0.6)
        records = load_records(args.records)
        instances, stats = run_pipeline(records, backend.complete_text, threshold=threshold)
    write_instances(instances, out / "curated.jsonl")
    write_stats(stats, out / "curation_stats.json")
    print(f"kept {stats.kept}, dropped {stats.dropped}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="gatemix", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", help="JSON config file", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference check of the alignment objective")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=GRAD_CHECK_TOL)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("train-align", help="desk-scale alignment training")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_train_align)

    p = sub.add_parser("verify", help="self-verify one instance")
    p.add_argument("--image-ref", required=True)
    p.add_argument("--question", required=True)
    p.add_argument("--option", action="append", help="option text; repeat per option")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--backend", default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("eval", help="benchmark evaluation")
    p.add_argument("--benchmark", required=True)
    p.add_argument("--strategy", choices=["direct", "cot", "sv"], default="sv")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--backend", default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="alpha sweep of self-verification accuracy")
    p.add_argument("--benchmark", required=True)
    p.add_argument("--grid", default=None, help="start:stop:step, at most 10001 points, default 0:1:0.1")
    p.add_argument("--backend", default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("curate", help="CoT curation pipeline")
    p.add_argument("--records", required=True)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--backend", default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_curate)

    return parser


def dispatch(argv) -> int:
    """Parse argv and run the selected subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        return args.func(args, config)
    except _ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BackendError as exc:
        # before ValueError: a malformed service reply is both, and the
        # service is at fault
        print(f"failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DivergenceError, RuntimeError, OSError) as exc:
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
