"""The benchmark's workloads.

Each workload has a set-up, two timed phases that make up one repetition,
and checks of every repetition's outputs against the oracle:

  align  phase a: finite-difference check of the stage-1 loss at b=4
         phase b: a closed loop of ``train_step`` at b=16
  sweep  phase a: 11-point alpha sweep into a fresh on-disk trace cache
         phase b: the same sweep again, reading every trace back
  serve  phase a: ``gatemix eval --strategy sv --workers 2`` on a loopback stub
         phase b: ``gatemix curate`` on the same stub

All calls go through public names looked up on the program's modules at
call time, so the traced run's wrappers see them.

Each phase also has a reference: a fixed piece of the same kind of work
done by the benchmark's own code (the oracle's numpy loss; the oracle's
decisions plus indented JSON files written, or only read back; HTTP round
trips to the stub). ``run.py`` times it just before and after the phase
and reports the phase as a multiple of it, so that a host whose speed
drifts slows both alike.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from gatemix import backend, cli, connector, evalharness, tensor, training

import generate
import oracle
from stub import StubProcess

GRAD_TOL = 1e-4
ORACLE_RTOL = 1e-9


def span(tracer, name: str, item=None):
    return tracer.span(name, item) if tracer is not None else contextlib.nullcontext({})


class Workload:
    """Shared state: the seed, a private work directory, and the counts of
    attempted and failed operations and of check failures."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def stop(self) -> None:
        """Release what set-up started."""

    def traced_extras(self, tracer) -> None:
        """Untimed calls that only the traced run makes."""

    def prepare_reference(self) -> None:
        """Untimed set-up of the reference work, after the timed set-ups."""

    def reference(self, phase: str) -> None:
        """The fixed reference work of phase ``"a"`` or ``"b"``; it never
        calls the program."""
        raise NotImplementedError


class Align(Workload):
    """Closed-loop, single-threaded training: per-item connector passes and
    per-op tape dispatch dominate, and no backend or eval code runs."""

    name = "align"
    train_batch = 16
    train_steps = 50
    check_batch = 4
    reference_losses = 100

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.curves = []
        self.gradcheck_evals = []

    def setup(self) -> None:
        self.cfg = connector.ConnectorConfig()
        self.batch = training.synth_batch(self.seed, self.train_batch, self.cfg)
        self.check_inputs = training.synth_batch(self.seed, self.check_batch, self.cfg)
        self.standins = training.FrozenStandins(self.cfg.d_llm)
        params = connector.init_params(self.cfg, self.seed)
        self.initial = {name: t.data.copy() for name, t in zip(params.FIELD_ORDER, params.tensors())}

    def reference(self, phase: str) -> None:
        """The oracle's per-item numpy loss on the training batch, for both
        phases: the same small-array work the tape does, without the tape."""
        for _ in range(self.reference_losses):
            self._oracle_loss(self.initial)

    def sizes(self) -> dict:
        n_params = sum(t.data.size for t in connector.init_params(self.cfg, self.seed).tensors())
        return {"train_batch": self.train_batch, "train_steps": self.train_steps,
                "gradcheck_batch": self.check_batch, "params": int(n_params),
                "reference_losses": self.reference_losses}

    def traced_extras(self, tracer) -> None:
        with span(tracer, "training.synth_batch"):
            training.synth_batch(self.seed, self.train_batch, self.cfg)

    def phase_a(self, tracer) -> None:
        params = connector.init_params(self.cfg, self.seed)
        calls = [0]

        def objective(ts):
            calls[0] += 1
            return training.stage1_loss(params, self.check_inputs, self.standins)

        self.attempted += 1
        try:
            with span(tracer, "tensor.finite_diff_check"):
                rel_err = tensor.finite_diff_check(objective, params.tensors(), eps=1e-5)
        except ValueError as exc:
            self.failed += 1
            self.errors.append(f"gradcheck raised {exc}")
            return
        self.gradcheck_evals.append(calls[0])
        n_params = sum(t.data.size for t in params.tensors())
        if not rel_err <= GRAD_TOL:
            self.failed += 1
            self.errors.append(f"gradcheck rel. error {rel_err:.3e} > {GRAD_TOL:.0e}")
        if calls[0] != 2 * n_params + 1:
            self.errors.append(f"gradcheck made {calls[0]} objective calls, not {2 * n_params + 1}")

    def phase_b(self, tracer) -> None:
        params = connector.init_params(self.cfg, self.seed)
        initial = {name: t.data.copy() for name, t in zip(params.FIELD_ORDER, params.tensors())}
        cfg = training.TrainConfig(steps=self.train_steps, batch_size=self.train_batch)
        state = training.GDState()
        curve = []
        for step in range(self.train_steps):
            self.attempted += 1
            try:
                with span(tracer, "training.train_step", step):
                    value, params, state = training.train_step(params, self.batch, state, cfg, self.standins)
            except training.DivergenceError as exc:
                self.failed += 1
                self.errors.append(f"train step {step}: {exc}")
                return
            curve.append(value)
        final = {name: t.data.copy() for name, t in zip(params.FIELD_ORDER, params.tensors())}
        self.curves.append((curve, initial, final))

    def _oracle_loss(self, weights: dict) -> float:
        feats = [(f.v_v.data, f.v_c.data) for f in self.batch.feats]
        return oracle.stage1_loss(weights, feats, self.batch.target_tokens, self.batch.txt_reps.data,
                                  self.standins.pool_map.data, self.standins.readout.data)

    def check(self) -> None:
        if not self.curves:
            return
        curve, initial, final = self.curves[-1]
        first = self.curves[0][0]
        if curve != first:
            self.errors.append("loss curve differs between repetitions of one seed")
        expected = self._oracle_loss(initial)
        if not abs(curve[0] - expected) <= ORACLE_RTOL * abs(expected):
            self.errors.append(f"initial loss {curve[0]!r} differs from the oracle's {expected!r}")
        if not self._oracle_loss(final) < curve[0]:
            self.errors.append("final loss is not below the initial loss")
        self.curves[-1] = (curve, None, None)

    def digest(self) -> str:
        """Short hash of the first loss curve, to compare runs of one seed."""
        return hashlib.sha256(repr(self.curves[0][0]).encode()).hexdigest()[:16] if self.curves else ""


class Sweep(Workload):
    """In-memory mock backend, so answer extraction, S and C scoring, the
    decision rule and the trace cache carry the time."""

    name = "sweep"
    n_instances = 400
    reference_instances = 100

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.reps = 0
        self.cache_stats = None

    def setup(self) -> None:
        self.instances = generate.make_instances(self.seed, self.n_instances, "sweep")
        inputs = self.work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        bench, script = generate.write_sweep_inputs(self.instances, inputs)
        self.program_instances, skipped = evalharness.load_benchmark(bench)
        self.backend = backend.MockBackend.from_json(script)
        if skipped:
            raise RuntimeError(f"the program skipped generated instances: {skipped[:3]}")

    def prepare_reference(self) -> None:
        # Instances of a fixed seed: a slice of the workload's own would
        # hold more or fewer long traces from one seed to the next.
        self.ref_instances = generate.make_instances(0, self.n_instances, "reference")
        self.warm_paths = self._write_traces(self.work / "reference-warm")

    def _write_traces(self, ref_dir: Path) -> list:
        ref_dir.mkdir()
        paths = []
        for i, inst in enumerate(self.ref_instances[:self.reference_instances]):
            for mode in ("direct", "cot"):
                paths.append(ref_dir / f"{i}.{mode}.json")
                with open(paths[-1], "w", encoding="utf-8") as fh:
                    json.dump(inst[mode], fh, indent=2, sort_keys=True)
        return paths

    def reference(self, phase: str) -> None:
        """Decisions on as many instances as the sweep at every grid
        point, and the traces of a quarter of them as indented JSON files:
        written to a fresh directory and read back (cold, phase a), or only
        read back (warm, phase b). File creation and computation then weigh
        about as much in the cold reference as in the cold sweep."""
        oracle.sweep_expectation(self.ref_instances)
        if phase == "a":
            ref_dir = self.work / "reference-cold"
            paths = self._write_traces(ref_dir)
        else:
            paths = self.warm_paths
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                json.load(fh)
        if phase == "a":
            shutil.rmtree(ref_dir)

    def sizes(self) -> dict:
        options = [len(i["options"]) for i in self.instances]
        return {"instances": self.n_instances, "grid_points": len(generate.GRID),
                "reference_instances": self.reference_instances,
                "free_text": options.count(0), "max_options": max(options),
                "disagreeing": sum(i["expect"]["direct"] != i["expect"]["cot"] for i in self.instances)}

    def _sweep(self, tracer):
        with span(tracer, "evalharness.alpha_sweep"):
            return evalharness.alpha_sweep(self.backend, self.program_instances, max_workers=1,
                                           cache_dir=self.cache_dir)

    def phase_a(self, tracer) -> None:
        self.reps += 1
        self.cache_dir = self.work / f"cache-{self.reps}"
        self.cold = self._sweep(tracer)

    def phase_b(self, tracer) -> None:
        self.warm = self._sweep(tracer)

    def check(self) -> None:
        if not hasattr(self, "expected"):
            self.expected = oracle.sweep_expectation(self.instances)
        if self.cold != self.warm:
            self.errors.append("cold and warm sweeps disagree")
        got = [(float(a), float(acc)) for a, acc in self.cold]
        if got != self.expected:
            self.errors.append(f"sweep accuracies {got} differ from the oracle's {self.expected}")
        if self.cache_stats is None:
            files = list(self.cache_dir.iterdir())
            self.cache_stats = {"files": len(files), "bytes": sum(f.stat().st_size for f in files)}
            self._check_records()
        # Deleting each repetition's files keeps the number of live files
        # fixed; letting them pile up made file creation, and so the cold
        # sweep, slower run after run.
        shutil.rmtree(self.cache_dir)

    def _check_records(self) -> None:
        """Every instance's answer and branch at every grid point."""
        cache = evalharness.TraceCache(self.cache_dir)
        for alpha in generate.GRID:
            report = evalharness.run_eval(self.backend, self.program_instances, "sv", alpha=alpha, cache=cache)
            expected = oracle.eval_expectation(self.instances, alpha)["records"]
            for rec in report.records:
                self.attempted += 1
                if rec["branch"] == "error":
                    self.failed += 1
                want = expected[rec["id"]]
                if (rec["predicted"], rec["branch"]) != (want["predicted"], want["branch"]):
                    self.errors.append(f"alpha {alpha} instance {rec['id']}: got {rec['predicted']!r} "
                                       f"({rec['branch']}), oracle {want['predicted']!r} ({want['branch']})")


class Serve(Workload):
    """CLI eval and curation in-process against a loopback HTTP stub that
    replies at once, so transport, JSON and CLI overhead dominate."""

    name = "serve"
    n_instances = 200
    n_records = 100
    reference_requests = 60

    def __init__(self, seed: int, work: Path):
        super().__init__(seed, work)
        self.stub = None

    def setup(self) -> None:
        self.instances = generate.make_instances(self.seed, self.n_instances, "serve")
        self.records = generate.make_records(self.seed, self.n_records)
        inputs = self.work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.bench = inputs / "benchmark.jsonl"
        generate.write_jsonl(self.bench, generate.benchmark_rows(self.instances))
        self.records_path = generate.write_records(self.records, inputs)
        self.stub = StubProcess(self.seed, self.n_instances, self.n_records)

    def _generate(self, i: int) -> None:
        inst = self.instances[i % self.n_instances]
        prompt = inst["question"] + (" Let's think step by step." if i % 2 else "")
        self._post("/v1/generate", {"prompt": prompt, "image_ref": inst["image_ref"]})

    def _score(self, i: int) -> None:
        rec = self.records[i % self.n_records]["record"]
        marker = f"(ref {'RW'[i % 2]}{rec['id'][4:]})"
        self._post("/v1/complete", {"prompt": f"Evaluation Form\n{rec['question']}\n{marker}"})

    def _post(self, path: str, payload: dict) -> None:
        request = urllib.request.Request(self.stub.url + path, data=json.dumps(payload).encode("utf-8"),
                                         headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as resp:
            json.loads(resp.read())

    def reference(self, phase: str) -> None:
        """Requests on a new connection each, as the program's client makes
        them: generation requests from two threads for eval (phase a),
        which runs two workers, and scoring requests from one for curation
        (phase b). Only traced repetitions read the stub's counts, and they
        reset them first, so these requests are not counted."""
        if phase == "a":
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(self._generate, range(self.reference_requests)))
        else:
            for i in range(self.reference_requests):
                self._score(i)

    def sizes(self) -> dict:
        kinds = [r["record"]["source_kind"] for r in self.records]
        return {"instances": self.n_instances, "records": self.n_records, "eval_workers": 2,
                "reference_requests": self.reference_requests,
                "ai_generated": kinds.count("ai-generated"),
                "scorer_calls": oracle.curation_calls(self.records)}

    def stop(self) -> None:
        if self.stub is not None:
            self.stub.stop()
            self.stub = None

    def _dispatch(self, tracer, argv: list) -> int:
        with span(tracer, "cli.dispatch", argv[0]), contextlib.redirect_stdout(io.StringIO()):
            code = cli.dispatch(argv)
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.errors.append(f"gatemix {argv[0]} exited with {code}")
        return code

    def phase_a(self, tracer) -> None:
        self.eval_out = self.work / "eval"
        self.eval_code = self._dispatch(tracer, [
            "eval", "--benchmark", str(self.bench), "--strategy", "sv", "--workers", "2",
            "--backend", f"remote:{self.stub.url}/v1/generate", "--out", str(self.eval_out)])

    def phase_b(self, tracer) -> None:
        self.curate_out = self.work / "curate"
        self.curate_code = self._dispatch(tracer, [
            "curate", "--records", str(self.records_path),
            "--backend", f"remote:{self.stub.url}/v1/complete", "--out", str(self.curate_out)])

    def check(self) -> None:
        if not hasattr(self, "expected"):
            self.expected = oracle.eval_expectation(self.instances, 0.7)
            self.expected_curation = oracle.curation_expectation(self.records)
        self.attempted += self.n_instances + self.n_records
        if self.eval_code == 0:
            self._check_eval()
        else:
            self.failed += self.n_instances
        if self.curate_code == 0:
            self._check_curation()
        else:
            self.failed += self.n_records
        shutil.rmtree(self.eval_out, ignore_errors=True)
        shutil.rmtree(self.curate_out, ignore_errors=True)

    def _check_eval(self) -> None:
        with open(self.eval_out / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        want = self.expected
        errors = sum(1 for r in report["records"] if r["error"] is not None)
        self.failed += errors
        if report["accuracy"] != want["accuracy"] or report["branch_counts"] != want["branch_counts"]:
            self.errors.append(f"eval accuracy {report['accuracy']} / branches {report['branch_counts']} "
                               f"differ from the oracle's {want['accuracy']} / {want['branch_counts']}")
        for rec in report["records"]:
            exp = want["records"][rec["id"]]
            if (rec["predicted"], rec["branch"]) != (exp["predicted"], exp["branch"]):
                self.errors.append(f"eval instance {rec['id']}: got {rec['predicted']!r} ({rec['branch']}), "
                                   f"oracle {exp['predicted']!r} ({exp['branch']})")
                break

    def _check_curation(self) -> None:
        want = self.expected_curation
        with open(self.curate_out / "curation_stats.json", encoding="utf-8") as fh:
            stats = json.load(fh)
        if stats != want["stats"]:
            self.errors.append(f"curation stats {stats} differ from the oracle's {want['stats']}")
        with open(self.curate_out / "curated.jsonl", encoding="utf-8") as fh:
            kept = [json.loads(line) for line in fh]
        got = [(k["id"], k["overall_score"], k["cot_response"].split(")")[0] + ")") for k in kept]
        exp = [(k["id"], k["score"] / 100, k["marker"]) for k in want["kept"]]
        if got != exp:
            self.errors.append("curated.jsonl ids, scores or chosen CoTs differ from the oracle's")


WORKLOADS = {w.name: w for w in (Align, Sweep, Serve)}
