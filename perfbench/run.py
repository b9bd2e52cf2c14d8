"""Benchmark of gatemix: three workloads, end-to-end metrics and a traced run.

    python3 perfbench/run.py --workload align|sweep|serve --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from any directory; the program is imported from ``src/`` next to this
directory. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, measured with tracing
off: ``setup_s``, ``peak_rss_mb`` and, for each of the workload's two
phases (see ``workloads.py``), the median over repetitions of the phase's
wall time divided by that of the phase's reference work timed just
before and after it (``phase_a_rel``, ``phase_b_rel``). The host's speed
drifts by tens of percent from one minute to the next; the phase and its
reference slow down alike, so the ratio stays put where wall time does not.
With ``--trace 1`` untraced and traced repetitions alternate and the
metrics are the per-layer ones of ``layers.py``, among them the median wall
times in seconds. The lines before it give the end-to-end metrics under
their workload-specific names, in seconds and per second, and the run's
provenance. ``--workload all`` runs each workload in its own process and
prints those lines for all three.

Set-up (importing ``gatemix`` in a fresh interpreter, generating and writing
the inputs, loading them, starting the stub) runs five times and
``setup_s`` is the median. Repetitions then run until ``--seconds`` have
passed, at least three of them, and every repetition's outputs are checked
against the oracle; any mismatch makes ``correct`` false. Work files go to
``.perfbench_work/`` at the repository root and are removed afterwards,
except the result and span files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 5
MIN_REPS = 3
# Spans of a traced sweep repetition take tens of MB; later repetitions of a
# traced run stay untraced.
MAX_TRACED_REPS = 2
WORKLOAD_NAMES = ("align", "sweep", "serve")


def _import_seconds() -> float:
    """Time of ``import gatemix`` inside a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import gatemix; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout)


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gatemix").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _named(name: str, w, a: float, b: float) -> dict:
    """The end-to-end metrics under their workload-specific names."""
    if name == "align":
        return {"gradcheck_s": (a, "s"),
                "train_samples_per_s": (w.train_batch * w.train_steps / b, "samples/s")}
    if name == "sweep":
        return {"sweep_cold_s": (a, "s"), "sweep_warm_s": (b, "s")}
    return {"eval_instances_per_s": (w.n_instances / a, "instances/s"),
            "curate_records_per_s": (w.n_records / b, "records/s")}


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _repetition(w, tracer, times: dict) -> None:
    """Both phases; an untraced repetition also times each phase's reference
    work just before and after the phase."""
    for phase, run_phase in (("a", w.phase_a), ("b", w.phase_b)):
        if tracer is None:
            before = _timed(w.reference, phase)
            elapsed = _timed(run_phase, tracer)
            after = _timed(w.reference, phase)
            times[f"ref_{phase}"].append((before + after) / 2)
            times[f"{phase}_rel"].append(elapsed / times[f"ref_{phase}"][-1])
        else:
            elapsed = _timed(run_phase, tracer)
        times[phase].append(elapsed)
    w.check()


def _measure(w, seconds: float, traced: bool, ctx: dict) -> dict:
    from tracing import Tracer

    times = {"untraced": {"a": [], "b": [], "ref_a": [], "ref_b": [], "a_rel": [], "b_rel": []},
             "traced": {"a": [], "b": []}}
    tracer = Tracer() if traced else None
    deadline = time.perf_counter() + seconds
    reps = 0
    while reps < (1 if traced else MIN_REPS) or time.perf_counter() < deadline:
        _repetition(w, None, times["untraced"])
        if traced and len(times["traced"]["a"]) < MAX_TRACED_REPS:
            stub = getattr(w, "stub", None)
            if stub is not None:
                stub.reset()
            tracer.install()
            try:
                w.traced_extras(tracer)
                _repetition(w, tracer, times["traced"])
            finally:
                tracer.restore()
            if stub is not None:
                stats = stub.stats()
                total = ctx.setdefault("stub", {"requests": 0, "connections": 0, "request_bytes": 0,
                                                "reply_bytes": 0, "handling_ms": []})
                for key, value in stats.items():
                    total[key] += value
        reps += 1
    ctx.update(times)
    ctx["reps"] = len(times["traced"]["a"])
    ctx["tracer"] = tracer
    return times


def run(args, work: Path) -> tuple:
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    setup_times = []
    w = None
    try:
        for i in range(SETUP_REPS):
            if w is not None:
                w.stop()
            import_s = _import_seconds()
            w = cls(args.seed, work / f"setup-{i}")
            start = time.perf_counter()
            w.setup()
            setup_times.append(import_s + time.perf_counter() - start)
        w.prepare_reference()
        ctx = {}
        times = _measure(w, args.seconds, bool(args.trace), ctx)
    finally:
        if w is not None:
            w.stop()

    untraced = times["untraced"]
    a, b = statistics.median(untraced["a"]), statistics.median(untraced["b"])
    a_rel, b_rel = statistics.median(untraced["a_rel"]), statistics.median(untraced["b_rel"])
    setup_s = statistics.median(setup_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "numpy": __import__("numpy").__version__, "git_commit": _git_commit(),
        "source_sha256": _source_digest(), "sizes": w.sizes(),
        "repetitions": len(untraced["a"]), "traced_repetitions": len(times["traced"]["a"]),
        "setup_s": setup_times, "phase_a_s": untraced["a"], "phase_b_s": untraced["b"],
        "reference_a_s": untraced["ref_a"], "reference_b_s": untraced["ref_b"],
        "phase_a_rel": untraced["a_rel"], "phase_b_rel": untraced["b_rel"],
        "errors": w.errors[:10],
    }
    if args.workload == "align":
        provenance["loss_curve_sha256"] = w.digest()
    if args.trace:
        import layers

        tracer = ctx["tracer"]
        provenance["missing_targets"] = tracer.missing
        provenance["spans"] = len(tracer.spans)
        ctx.update(instances=getattr(w, "n_instances", 0), records=getattr(w, "n_records", 0),
                   gradcheck_evals=getattr(w, "gradcheck_evals", []),
                   cache_stats=getattr(w, "cache_stats", None))
        metrics = layers.compute(tracer.spans, ctx)
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "phase_a_rel": {"value": a_rel, "unit": "ratio"},
            "phase_b_rel": {"value": b_rel, "unit": "ratio"},
        }
    named = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss_mb, "MB"), **_named(args.workload, w, a, b),
             "phase_a_rel": (a_rel, "ratio"), "phase_b_rel": (b_rel, "ratio"),
             "reference_a_s": (statistics.median(untraced["ref_a"]), "s"),
             "reference_b_s": (statistics.median(untraced["ref_b"]), "s"),
             "failed_frac": (w.failed / max(w.attempted, 1), "ratio")}
    result = {"correct": not w.errors, "attempted": w.attempted, "failed": w.failed, "metrics": metrics}
    return result, named, provenance


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        for line in lines:
            if line.startswith(name + " "):
                print(line)
        if proc.returncode != 0 or not lines:
            print(f"{name}: failed (exit {proc.returncode}) {proc.stderr.strip()[-500:]}", file=sys.stderr)
            status = 1
            continue
        final = json.loads(lines[-1])
        print(f"{name} correct={final['correct']} attempted={final['attempted']} failed={final['failed']}")
        status |= 0 if final["correct"] and not final["failed"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gatemix" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({SRC / 'gatemix'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result, named, provenance = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key, (value, unit) in named.items():
        print(f"{args.workload} {key:<22} {value:.6g} {unit}")
    for err in provenance["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    with open(WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": provenance, **result}, fh, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
