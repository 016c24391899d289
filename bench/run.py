"""The compresslens benchmark.

Usage, from the repository root:

    python3 bench/run.py --workload desk_run|audit_logs|robustness \
        [--seed N] [--seconds S] [--trace 0|1]

Set-up runs three times and its median is `setup_s`. Then whole rounds of
the workload's operations run, each in a fresh interpreter, until --seconds
have passed (at least one round); `wall_s`, `cpu_s` and `peak_rss_mb` are
medians over rounds. With --trace 1, untraced and traced rounds alternate
and the per-layer metrics come from the traced ones. The outputs of every
round must be identical and pass the workload's checks. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import CORRUPTION_KINDS

BENCH = Path(__file__).resolve().parent
SETUP_REPS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROUND_TIMEOUT_S = 170.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "synth.synthesize_ms": "ms",
    "trainer.train_population_s": "s",
    "trainer.step_us": "us",
    "trainer.matmul_floor_us": "us",
    "trainer.step_over_floor": "ratio",
    "trainer.loss_and_gradients_us": "us",
    "trainer.apply_magnitude_mask_ms": "ms",
    "trainer.evaluate_population_ms": "ms",
    "trainer.train_cpu_per_wall": "ratio",
    "trainer.model_steps": "count",
    "trainer.logits_ms": "ms",
    "trainer.load_model_ms": "ms",
    "data_model.write_prediction_log_rows_per_s": "rows/s",
    "data_model.read_prediction_log_rows_per_s": "rows/s",
    "data_model.write_dataset_rows_per_s": "rows/s",
    "data_model.read_dataset_rows_per_s": "rows/s",
    "data_model.log_rows_written": "count",
    "data_model.log_rows_read": "count",
    "stats_audit.audit_classes_ms": "ms",
    "stats_audit.welch_t_test_us": "us",
    "pie_audit.identify_pies_ms": "ms",
    "pie_audit.subset_accuracy_ms": "ms",
    "pie_audit.write_pie_report_ms": "ms",
    "pie_audit.write_attribute_report_ms": "ms",
    **{f"robustness.{kind}_s": "s" for kind in CORRUPTION_KINDS},
    "robustness.corrupt_features_us": "us",
    "robustness.corrupt_features_calls": "count",
    "robustness.report_self_s": "s",
    "pipeline.run_pipeline_self_s": "s",
    "cli.run_s": "s",
    "cli.audit_classes_s": "s",
    "cli.audit_pie_s": "s",
    "cli.report_s": "s",
    "cli.audit_robustness_s": "s",
    "trace.overhead_s": "s",
}


def _child_env(work: Path) -> dict:
    env = dict(os.environ)
    # the program's own defaults decide its parallelism, not the caller's shell
    env.pop("COMPRESSLENS_THREADS", None)
    env["TMPDIR"] = str(work / "tmp")
    return env


def run_child(spec: dict, work: Path, tag: str) -> dict | None:
    """Run child.py on spec; its result dict, or None when it did not finish."""
    spec_path = work / f"{tag}.spec.json"
    result_path = work / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), str(spec_path), str(result_path)],
        env=_child_env(work), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        err += f"\nround killed after {ROUND_TIMEOUT_S:.0f} s"
    except BaseException:  # interrupted or terminated: take the round down too
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0 or not result_path.exists():
        sys.stderr.write(f"bench: {tag} failed (exit {proc.returncode}):\n{err}\n")
        return None
    return json.loads(result_path.read_text())


def matmul_floor_us(reps: int = 5, iters: int = 2000) -> float:
    """Median µs of the five matrix products of one desk-scale training step, numpy alone."""
    import numpy as np
    from compresslens import SynthLongTailSpec, TrainConfig

    cfg, synth = TrainConfig(), SynthLongTailSpec()
    b, d, h, c = cfg.batch_size, synth.dim, cfg.hidden_dims[0], synth.num_classes
    rng = np.random.default_rng(0)
    x, w1, w2 = rng.normal(size=(b, d)), rng.normal(size=(d, h)), rng.normal(size=(h, c))
    delta = rng.normal(size=(b, c))
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(iters):
            hid = x @ w1
            hid @ w2
            hid.T @ delta
            dh = delta @ w2.T
            x.T @ dh
        times.append(1e6 * (time.perf_counter() - t0) / iters)
    return statistics.median(times)


def source_hash(root: Path) -> str:
    """Hash of the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    src = root / "src"
    files = [(str(p.relative_to(src)), p) for p in src.rglob("*.py")]
    files += [(f"bench/{p.name}", p) for p in BENCH.glob("*.py")]
    for name, p in sorted(files):
        h.update(name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def record_digest(out_dir: Path, key: str, digest: str) -> list[str]:
    """Remember the output digest of (workload, seed, source); a later run must match it."""
    path = out_dir / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if known.setdefault(key, digest) != digest:
        return [f"output digest {digest[:12]} differs from an earlier run's {known[key][:12]} ({key})"]
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return []


def measure(wl, args, root: Path, work: Path, out_dir: Path) -> dict:
    import checks

    setup_times = []
    for rep in range(SETUP_REPS):
        inputs = work / f"inputs{rep}"
        if rep:
            shutil.rmtree(work / f"inputs{rep - 1}")
        inputs.mkdir()
        t0 = time.perf_counter()
        spec = wl.setup(inputs, args.seed)
        spec.update(workload=wl.name, src=str(root / "src"), inputs=str(inputs))
        if run_child({**spec, "warmup": True, "trace": False}, work, f"warmup{rep}") is None:
            raise RuntimeError("warm-up interpreter failed")
        setup_times.append(time.perf_counter() - t0)

    rounds = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        out = work / f"round{len(rounds)}"
        result = run_child(
            {**spec, "out": str(out), "trace": traced,
             "trace_path": str(out_dir / f"trace_{wl.name}.json")},
            work, f"round{len(rounds)}",
        )
        rounds.append((out, traced, result))
        elapsed = time.perf_counter() - start
        if result:
            print(f"round {len(rounds) - 1}{' (traced)' if traced else ''}: "
                  f"wall {result['wall_s']:.3f} s, cpu {result['cpu_s']:.3f} s", file=sys.stderr)
        if elapsed >= args.seconds and (not args.trace or traced):
            break

    failed = 0
    good = []
    for out, traced, result in rounds:
        if result is None:
            failed += wl.ops_per_round
            continue
        bad = [o for o in result["ops"] if not o["ok"]]
        for o in bad:
            sys.stderr.write(f"bench: operation failed: {o['error']}\n")
        failed += len(bad)
        if not bad:
            good.append((out, traced, result))

    problems, notes = [], []
    if good:
        digests = {checks.digest_tree(out / wl.digest_dir) for out, _, _ in good}
        if len(digests) > 1:
            problems.append("rounds of one run wrote different outputs")
        first = good[0][0]
        problems += record_digest(
            out_dir, f"{wl.name}:{args.seed}:{source_hash(root)}",
            checks.digest_tree(first / wl.digest_dir),
        )
        try:
            found, notes = wl.check(spec, Path(spec["inputs"]), first)
        except Exception as exc:  # an output the checks cannot even read is wrong
            found = [f"checks could not read the outputs: {exc!r}"]
        problems += found

    plain = [r for _, traced, r in good if not traced]
    if args.trace:
        layers = [r["layers"] for _, traced, r in good if traced]
        metrics = {k: statistics.median(l[k] for l in layers) for k in layers[0]} if layers else {}
        floor = matmul_floor_us()
        metrics["trainer.matmul_floor_us"] = floor
        metrics["trainer.step_over_floor"] = metrics.get("trainer.step_us", 0.0) / floor
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for _, t, r in good if t)
            - statistics.median(r["wall_s"] for r in plain)
            if layers and plain else 0.0
        )
        units = PER_LAYER
    else:
        metrics = {k: statistics.median(r[k] for r in plain) for k in ("wall_s", "cpu_s", "peak_rss_mb")} if plain else {}
        metrics["setup_s"] = statistics.median(setup_times)
        units = END_TO_END
    return {
        "problems": problems,
        "notes": notes,
        "attempted": len(rounds) * wl.ops_per_round,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="compresslens benchmark")
    parser.add_argument("--workload", required=True, choices=("desk_run", "audit_logs", "robustness"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # one BLAS thread per process, here and in every round's interpreter, set
    # before numpy loads: OpenBLAS's spinning helper threads add CPU time and
    # tie the figures to whatever else runs on the machine
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    # on SIGTERM unwind like on Ctrl-C, so the round and the work dir go too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "compresslens" / "__init__.py").is_file():
        print("bench: run from the repository root; ./src/compresslens is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    work = root / ".bench_work" / f"{wl.name}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    try:
        res = measure(wl, args, root, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in res["problems"]:
        print(f"bench: check failed: {p}", file=sys.stderr)
    for note in res["notes"]:
        print(f"seed {args.seed}: {note}")
    for name, m in res["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
