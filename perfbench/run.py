"""headlab benchmark: three CLI workloads and a traced per-module run.

    python3 perfbench/run.py --workload bottleneck|longctx|analysis
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``. Each iteration runs the workload's set-up subcommands in
one fresh child process and its timed subcommands in another, one child at a
time (a closed loop with one client), with single-threaded BLAS. Iterations
repeat until the next one would end after ``--seconds``; the end-to-end
metrics are medians over iterations. ``--trace 1`` first runs one iteration
with every public function of headlab wrapped in a span, then untraced
iterations as the base of the tracing overhead, and reports the per-layer
metrics instead. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 0
# One BLAS thread: the plain single-threaded baseline, leaving the second
# core of a 2-core machine to sweep-level parallelism.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170.0


# --------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up calls, timed calls and output checks of one workload."""

    # True where the timed phase trains nothing and train_tokens_per_s is
    # that of the set-up training run.
    TOKENS_OVER_SETUP = False


class Bottleneck(Workload):
    """Full-batch training of four heads on one corpus: the model step."""

    V, D, SEQS, SEQ_LEN, VAL, STEPS, RANKS = 512, 32, 1024, 64, 0.125, 500, (2, 8, 32)

    def setup(self, seed, out):
        # The sweep builds its corpus inside the timed phase; the same corpus
        # is written here so the output check can compute its entropy floor.
        return [["gen-corpus", "--out", out, "--name", "corpus", "--kind", "zipf",
                 "--vocab_size", self.V, "--num_seqs", self.SEQS, "--seq_len", self.SEQ_LEN,
                 "--seed", seed, "--stats_prefix_sizes", "[]"]]

    def timed(self, seed, out):
        return [["bottleneck-sweep", "--out", out, "--name", "sweep",
                 "--vocab_size", self.V, "--num_seqs", self.SEQS, "--seq_len", self.SEQ_LEN,
                 "--val_fraction", self.VAL, "--max_context_len", 1, "--width", self.D,
                 "--steps", self.STEPS, "--ranks", json.dumps(list(self.RANKS)),
                 "--seeds", "[0]", "--corpus_seed", seed]]

    def check(self, out):
        floor, contexts, tokens = checks.entropy_floor_mcl1(
            Path(out) / "corpus" / "corpus.txt", self.VAL)
        ops, rows = checks.check_sweep(Path(out) / "sweep", floor, len(self.RANKS) + 1)
        ref = {}
        for row in rows:
            label = "full" if row["head"] == "full" else f"rank{row['rank']}"
            for key in ("final_train_loss", "final_val_loss"):
                ref[f"{label}.{key}"] = float(row[key])
        runs = len(self.RANKS) + 1
        shape = {"C": contexts, "V": self.V, "D": self.D, "r": [*self.RANKS, "full"],
                 "mcl": 1, "train_tokens": tokens, "runs": runs, "steps_per_run": self.STEPS}
        return ops, ref, shape, runs * self.STEPS * tokens


class LongContext(Workload):
    """Mini-batch training at 16 tokens of context: counting and the dense eval."""

    V, D, SEQS, SEQ_LEN, BATCH, STEPS = 512, 32, 1024, 64, 32, 100

    def setup(self, seed, out):
        return [["gen-corpus", "--out", out, "--name", "corpus", "--kind", "zipf",
                 "--vocab_size", self.V, "--num_seqs", self.SEQS, "--seq_len", self.SEQ_LEN,
                 "--seed", seed]]

    def timed(self, seed, out):
        return [["train", "--out", out, "--name", "train",
                 "--corpus", Path(out) / "corpus" / "corpus.txt", "--max_context_len", 16,
                 "--width", self.D, "--batch_sequences", self.BATCH, "--steps", self.STEPS,
                 "--eval_every", 50, "--val_fraction", 0.125, "--seed", seed]]

    def check(self, out):
        ops, summary = checks.check_train(Path(out) / "train")
        ref = {k: summary[k] for k in ("final_train_loss", "final_val_loss")}
        batch_tokens = self.BATCH * self.SEQ_LEN
        shape = {"C": summary["num_contexts"], "V": self.V, "D": self.D, "r": "full",
                 "mcl": 16, "batch_tokens": batch_tokens, "steps": self.STEPS}
        return ops, ref, shape, self.STEPS * batch_tokens


class Analysis(Workload):
    """Diagnostics and verifiers on a fixed model: the linear algebra."""

    V, D, SEQS, SEQ_LEN, STEPS = 2048, 32, 1024, 64, 50
    TOKENS_OVER_SETUP = True

    def _corpus(self, seed):
        return ["--corpus.kind", "zipf", "--corpus.vocab_size", self.V,
                "--corpus.num_seqs", self.SEQS, "--corpus.seq_len", self.SEQ_LEN,
                "--corpus.seed", seed]

    def setup(self, seed, out):
        return [["train", "--out", out, "--name", "train", *self._corpus(seed),
                 "--max_context_len", 1, "--width", self.D, "--steps", self.STEPS,
                 "--seed", seed]]

    def timed(self, seed, out):
        return [["diagnose", "--out", out, "--name", "diagnose",
                 "--checkpoint", Path(out) / "train" / "checkpoint.bin", *self._corpus(seed),
                 "--max_context_len", 1, "--seed", seed],
                ["verify", "--out", out, "--name", "verify", "--seed", seed]]

    def check(self, out):
        ops, train = checks.check_train(Path(out) / "train")
        diag_ops, diag = checks.check_diagnose(Path(out) / "diagnose", train["num_contexts"])
        verify_ops, _ = checks.check_verify(Path(out) / "verify")
        ref = {"final_train_loss": train["final_train_loss"],
               "lost_fraction": diag["lost_fraction"]}
        tokens = self.SEQS * self.SEQ_LEN
        shape = {"C": train["num_contexts"], "V": self.V, "D": self.D, "r": "full", "mcl": 1,
                 "train_tokens": tokens, "steps": self.STEPS}
        return ops + diag_ops + verify_ops, ref, shape, self.STEPS * tokens


WORKLOADS = {"bottleneck": Bottleneck(), "longctx": LongContext(), "analysis": Analysis()}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "train_tokens_per_s": "tokens/s",
                    "peak_rss_mb": "MB"}


# --------------------------------------------------------------------------
# child processes


def spawn(calls, out, phase, trace, run_base=0):
    """Run CLI calls in one fresh child; return its report and rusage."""
    spec_path = Path(out) / f"{phase}.spec.json"
    result_path = Path(out) / f"{phase}.result.json"
    spec = {"src": str(SRC), "trace": bool(trace), "result": str(result_path),
            "run_base": run_base, "calls": [[str(a) for a in argv] for argv in calls]}
    spec_path.write_text(json.dumps(spec))
    env = {k: v for k, v in os.environ.items() if k != "HEADLAB_OUT"}
    env.update(BLAS_ENV, PYTHONPATH="")
    with open(spec_path.with_suffix(".log"), "w") as log:
        spawned = time.time()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(spec_path)],
                                cwd=out, env=env, stdout=log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
        proc.returncode = os.waitstatus_to_exitcode(status)
    report = json.loads(result_path.read_text()) if result_path.exists() else None
    if proc.returncode != 0 or report is None:
        sys.stderr.write(spec_path.with_suffix(".log").read_text()[-4000:])
        report = None
    return {"report": report, "exit": proc.returncode, "spawned": spawned,
            "maxrss_kb": usage.ru_maxrss, "cpu_s": usage.ru_utime + usage.ru_stime}


def _phase(child, calls):
    """Operations of one phase, and its seconds from first call to last return."""
    done = child["report"]["calls"] if child["report"] else []
    ops = [(f"{argv[0]}: exit 0", i < len(done) and done[i]["exit"] == 0)
           for i, argv in enumerate(calls)]
    seconds = done[-1]["end"] - done[0]["start"] if done else None
    return ops, seconds


def run_iteration(wl, seed, trace, workdir):
    began = time.monotonic()
    it = _iteration(wl, seed, trace, workdir)
    it["seconds"] = time.monotonic() - began
    return it


def _iteration(wl, seed, trace, workdir):
    out = Path(tempfile.mkdtemp(dir=workdir))
    setup_calls, timed_calls = wl.setup(seed, out), wl.timed(seed, out)
    setup = spawn(setup_calls, out, "setup", trace)
    ops, setup_s = _phase(setup, setup_calls)
    if not all(ok for _, ok in ops):
        return {"ops": ops}
    timed = spawn(timed_calls, out, "timed", trace, run_base=len(setup_calls))
    it = {"ops": ops, "setup": setup, "timed": timed, "setup_s": setup_s}
    timed_ops, wall_s = _phase(timed, timed_calls)
    ops += timed_ops
    if not all(ok for _, ok in timed_ops):
        return it
    try:
        check_ops, it["reference"], it["shape"], tokens = wl.check(out)
    except (OSError, KeyError, ValueError) as exc:
        check_ops = [(f"outputs readable: {exc!r}", False)]
        it["reference"], it["shape"], tokens = {}, {}, 0
    ops += check_ops
    base = setup_s if wl.TOKENS_OVER_SETUP else wall_s
    rss_kb = max(timed["maxrss_kb"], timed["report"]["children_maxrss_kb"])
    it["metrics"] = {"wall_s": wall_s, "setup_s": setup_s,
                     "train_tokens_per_s": tokens / base, "peak_rss_mb": rss_kb / 1024}
    it["cpu_s"] = timed["cpu_s"]
    it["startup_s"] = [c["report"]["ready_time"] - c["spawned"] for c in (setup, timed)]
    if trace:
        it["verify"] = _verify_counts(out)
        it["spans"] = merge_spans(setup["report"]["spans"], timed["report"]["spans"])
        it["work"] = {}
        for report in (setup["report"], timed["report"]):
            for name, n in report["work"].items():
                it["work"][name] = it["work"].get(name, 0) + n
    shutil.rmtree(out)
    return it


def merge_spans(first, second):
    """Concatenate the span lists of two processes, re-pointing parent ids."""
    shift = len(first)
    return [tuple(s) for s in first] + [
        (name, start, end, parent + shift if parent >= 0 else -1, run)
        for name, start, end, parent, run in second]


def _verify_counts(out):
    path = Path(out) / "verify" / "summary.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text()).get("checks", {})


# --------------------------------------------------------------------------
# per-layer metrics


VERIFY_CHECKS = {
    "loss_floor": "verify.verify_loss_floor",
    "logit_rank_caps": "verify.verify_logit_rank_caps",
    "top1_reachability": "verify.verify_top1_reachability",
    "error_rank_floor": "verify.verify_error_rank_floor",
    "batch_rank_floor": "verify.batch_rank_floor_suite",
    "update_residual_gap": "verify.verify_update_residual_gap",
}
GROUPS = {
    "corpus.gen": ("corpus.gen_zipf_bigram", "corpus.gen_spamlang"),
    "corpus.io": ("corpus.save_corpus", "corpus.load_corpus", "corpus.write_stats_csv"),
    "model.checkpoint": ("model.save_checkpoint", "model.load_checkpoint"),
}
COUNTING = ("corpus.build_counts", "corpus.batch_counts", "corpus.counts_for_table")
PER_FUNCTION = [  # (function, metrics)
    ("corpus.batch_counts", ("s", "calls")),
    ("corpus.build_counts", ("s", "calls")),
    ("corpus.counts_for_table", ("s",)),
    ("corpus.assumption_stats", ("s",)),
    ("model.train", ("s", "self_s", "calls")),
    ("model.probs_and_loss", ("s", "calls")),
    ("model.loss", ("s",)),
    ("linalg.kernel_basis", ("s", "calls")),
    ("linalg.project_rows_onto_span", ("s", "calls")),
    ("linalg.singular_values", ("s", "calls")),
    ("linalg.qr_rank", ("s", "calls")),
    ("linalg.softmax_rows", ("s",)),
    ("diagnostics.compression_report", ("s", "self_s")),
    ("diagnostics.gradient_rank_curve", ("s",)),
    ("diagnostics.update_efficiency", ("s",)),
    ("diagnostics.coefficient_profile", ("s",)),
    ("diagnostics.kernel_cosine", ("s",)),
    ("cli.run_gen_corpus", ("s",)),
    ("cli.run_train", ("s",)),
    ("cli.run_diagnose", ("s",)),
    ("cli.run_verify", ("s",)),
    ("cli.run_bottleneck_sweep", ("s",)),
    ("svg.line_plot", ("s", "calls")),
]


def referenced_functions():
    names = {fn for fn, _ in PER_FUNCTION} | set(VERIFY_CHECKS.values()) | set(COUNTING)
    for members in GROUPS.values():
        names.update(members)
    return sorted(names)


def layer_metrics(spans, work, verify_checks, traced_wall, untraced_wall):
    """Per-layer metrics of one traced iteration, as {name: (value, unit)}."""
    by_name = tracing.summarize(spans)

    def get(fn, key):
        return by_name.get(fn, {}).get(key, 0)

    m = {}
    for fn, keys in PER_FUNCTION:
        for key in keys:
            m[f"{fn}.{key}"] = (get(fn, key), "count" if key == "calls" else "s")
    for group, members in GROUPS.items():
        m[f"{group}.s"] = (sum(get(fn, "s") for fn in members), "s")
    counting_s = sum(get(fn, "s") for fn in COUNTING)
    tokens = sum(work.get(fn, 0) for fn in COUNTING)
    m["corpus.tokens_per_s"] = (tokens / counting_s if counting_s else 0.0, "tokens/s")
    steps = work.get("model.train", 0)
    m["model.steps"] = (steps, "count")
    m["model.step_ms"] = (1000 * get("model.train", "self_s") / steps if steps else 0.0, "ms")
    for check, fn in VERIFY_CHECKS.items():
        m[f"verify.{check}.s"] = (get(fn, "s"), "s")
    m["verify.instances"] = (sum(c.get("instances", 0) for c in verify_checks.values()),
                             "count")
    brf = verify_checks.get("batch_rank_floor", {})
    useful, draws = brf.get("instances", 0), brf.get("instances", 0) + brf.get("skipped", 0)
    m["verify.batch_rank_floor.useful_frac"] = (useful / draws if draws else 0.0, "ratio")
    selfs = tracing.self_times(spans)
    for module in tracing.MODULES:
        m[f"{module}.self_s"] = (sum(s for span, s in zip(spans, selfs)
                                     if span[0].startswith(module + ".")), "s")
    m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "ratio")
    m["trace.spans"] = (len(spans), "count")
    return m


# --------------------------------------------------------------------------
# measurement and report


def environment(first_child_report, iterations):
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        **first_child_report["versions"],
        "blas_env": BLAS_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "startup_s_median": statistics.median(s for it in iterations for s in it["startup_s"]),
        "cpu_s_per_run": [round(it["cpu_s"], 4) for it in iterations],
    }


def measure(wl, seed, seconds, trace, workdir):
    """Iterations until the next one would end after `seconds`; stops at a failure."""
    start = time.monotonic()
    traced = run_iteration(wl, seed, True, workdir) if trace else None
    iterations = []
    while True:
        iterations.append(run_iteration(wl, seed, False, workdir))
        if "metrics" not in iterations[-1] or not all(ok for _, ok in iterations[-1]["ops"]):
            break
        elapsed = time.monotonic() - start
        if elapsed + max(it["seconds"] for it in iterations) > seconds:
            break
    return traced, iterations


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "headlab" / "cli.py").is_file():
        print(f"error: no headlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    wl = WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        traced, iterations = measure(wl, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = iterations + ([traced] if traced else [])
    ops = [op for it in runs for op in it["ops"]]
    good = [it for it in iterations if "metrics" in it]
    if args.seed == DEFAULT_SEED:
        reference = json.loads((HERE / "reference.json").read_text())
        for it in (it for it in runs if "reference" in it):
            ops += checks.check_reference(it["reference"], reference[args.workload],
                                          reference["rtol"])
    failed = [name for name, ok in ops if not ok]
    if not good or (traced and "metrics" not in traced):
        print(f"error: no iteration of {args.workload} completed; failed: {failed}",
              file=sys.stderr)
        return 1

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={len(good)}")
    print("env " + json.dumps(environment(good[0]["timed"]["report"], good)))
    print("shape " + json.dumps(good[0]["shape"]))
    print("reference values " + json.dumps(good[0]["reference"]))
    print(f"failed_frac {len(failed)}/{len(ops)} = {len(failed) / len(ops):.4g}"
          + (f"  failed: {failed}" if failed else ""))
    medians = {name: statistics.median(it["metrics"][name] for it in good)
               for name in END_TO_END_UNITS}
    if traced:
        names = traced["timed"]["report"]["traced"]
        absent = sorted(set(referenced_functions()) - set(names))
        print(f"traced functions {len(names)}; absent: {absent}")
        metrics = layer_metrics(traced["spans"], traced["work"], traced["verify"],
                                traced["metrics"]["wall_s"], medians["wall_s"])
    else:
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in medians.items()}
        for name in END_TO_END_UNITS:
            values = ", ".join(f"{it['metrics'][name]:.6g}" for it in good)
            print(f"  {name} per iteration: {values}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
