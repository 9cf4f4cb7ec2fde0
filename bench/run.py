"""Benchmark for the projclass CLI.

    python3 bench/run.py --workload {decide,orbit,oracle,all} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the checkout is the directory above this file, and the
program is always imported from its ``src/`` (never an installed copy).

``--trace 0`` is a closed loop with one client: each op of the workload is a
fresh ``python -m projclass.cli`` process, started after the previous one
ended, and the op list is repeated while whole passes fit in ``--seconds``.
It reports the end-to-end metrics named in BENCHMARK.json; a pass is
summarised by each op's median over the passes.  ``--trace 1`` runs the same ops in-process through
``projclass.cli.main``, each op untraced and traced back to back, and
reports the per-layer metrics; the spans and counters of the first traced pass are
written to ``bench/out/trace-<workload>-seed<N>.json``.

Every answer is checked independently (see checks.py).  An op fails on a
traceback, an unexpected exit code or a rejected answer; ``correct`` is false
only when the program printed a wrong answer.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.

Seed 104729 is the hold-out seed: keep it out of tuning and use it to confirm
a gain measured on other seeds.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import harness
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
HOLDOUT_SEED = 104729
SETUP_PER_PASS = 3
MIN_SETUP_SAMPLES = 9
IMPORT_REPEATS = 5
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import projclass.cli; "
    "print(time.perf_counter() - t0)"
)


class BenchError(Exception):
    """The benchmark cannot produce a valid measurement."""


def environment() -> dict:
    return {
        "commit": git_commit(ROOT),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def materialize(ops: list[workloads.Op], where: Path) -> list[list[str]]:
    """Write each distinct family document once; return every op's argv."""
    paths: dict[str, str] = {}
    argvs = []
    for op in ops:
        argv = list(op.argv)
        if op.family is not None:
            text = json.dumps(op.family)
            if text not in paths:
                path = where / f"family-{len(paths)}.json"
                path.write_text(text)
                paths[text] = str(path)
            argv = [paths[text] if a == workloads.FAMILY else a for a in argv]
        argvs.append(argv)
    return argvs


def check_source(env: dict[str, str], scratch: Path) -> None:
    sample = harness.run_child(["-c", "import projclass; print(projclass.__file__)"], env, ROOT, scratch)
    expected = (ROOT / "src" / "projclass" / "__init__.py").resolve()
    if sample.code != 0 or Path(sample.stdout.strip()).resolve() != expected:
        raise BenchError(f"children do not import projclass from {expected.parent}: {sample.stderr.strip()}")


def fits(started: float, last_pass: float, seconds: float) -> bool:
    """Whether one more pass of about last_pass seconds ends within the budget."""
    return time.perf_counter() - started + last_pass <= seconds


# -------------------------------------------------------------- end to end


def end_to_end(ops, argvs, trivial_argv, seconds, scratch: Path, tally: harness.Tally) -> tuple[dict, dict]:
    env = harness.child_env(ROOT)
    check_source(env, scratch)
    samples: list[list[harness.Sample]] = [[] for _ in ops]
    setup: list[float] = []

    def trivial() -> None:
        sample = harness.run_cli(trivial_argv, env, ROOT, scratch)
        status, reason = checks.judge(workloads.TRIVIAL_OP, sample.code, sample.stdout, sample.stderr)
        if status != checks.OK:
            raise BenchError(f"trivial invocation failed: {reason}")
        setup.append(sample.wall_s)

    pass_walls = []
    started = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        for _ in range(SETUP_PER_PASS):  # spread over the run, like the ops
            trivial()
        for op, argv, mine in zip(ops, argvs, samples):
            sample = harness.run_cli(argv, env, ROOT, scratch)
            status, reason = checks.judge(op, sample.code, sample.stdout, sample.stderr)
            tally.add(status, reason, f"{op.label} {op.argv[0]}")
            mine.append(sample)
        pass_walls.append(time.perf_counter() - p0)
        if not fits(started, pass_walls[-1], seconds):
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        trivial()

    # per op, the median over passes; a pass of the op list is their sum
    typical = [
        (op, *(statistics.median(getattr(s, f) for s in mine) for f in ("wall_s", "cpu_s", "rss_mb")))
        for op, mine in zip(ops, samples)
    ]
    small = [s.wall_s for op, mine in zip(ops, samples) if op.kind == workloads.SMALL for s in mine]
    tail = harness.tail_percentile(small)
    if tail is None:
        raise BenchError(f"only {len(small)} small ops: too few for a tail percentile")
    metrics = {
        "wall_s": sum(wall for _, wall, _, _ in typical),
        "cpu_s": sum(cpu for _, _, cpu, _ in typical),
        "small_p50_s": statistics.median(small),
        "small_tail_s": tail[1],
        "stress_s": sum(wall for op, wall, _, _ in typical if op.kind == workloads.STRESS),
        "peak_rss_mb": max(rss for _, _, _, rss in typical),
        "setup_s": statistics.median(setup),
    }
    notes = {"passes": len(pass_walls), "pass_walls_s": pass_walls, "small_ops": len(small),
             "small_tail_percentile": tail[0], "setup_samples": len(setup),
             "ops": [{"kind": op.kind, "label": op.label, "argv": list(op.argv), "wall_s": wall,
                      "cpu_s": cpu, "rss_mb": rss} for op, wall, cpu, rss in typical]}
    return metrics, notes


# --------------------------------------------------------------- per layer


def in_process_op(cli, op, argv, tally) -> tuple[float, float, int]:
    """Run one op through cli.main in this process; (start, end, stdout bytes)."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the program crashed: record it as a failed op
        code, crash = 1, exc
    t1 = time.perf_counter()
    if crash is not None:
        err.write("".join(traceback.format_exception(crash)))
    stdout = out.getvalue()
    status, reason = checks.judge(op, code, stdout, err.getvalue())
    tally.add(status, reason, f"{op.label} {op.argv[0]}")
    return t0, t1, len(stdout.encode())


def import_time(scratch: Path) -> float:
    env = harness.child_env(ROOT)
    times = []
    for _ in range(IMPORT_REPEATS):
        sample = harness.run_child(["-c", IMPORT_PROBE], env, ROOT, scratch)
        if sample.code != 0:
            raise BenchError(f"import failed: {sample.stderr.strip()}")
        times.append(float(sample.stdout))
    return statistics.median(times)


def per_layer(ops, argvs, seconds, scratch: Path, tally, dump: Path) -> tuple[dict, dict]:
    check_source(harness.child_env(ROOT), scratch)
    import_s = import_time(scratch)
    sys.path.insert(0, str(ROOT / "src"))
    import projclass.cli as cli

    if Path(cli.__file__).resolve().parent != (ROOT / "src" / "projclass").resolve():
        raise BenchError(f"imported projclass from {cli.__file__}, not from {ROOT / 'src'}")

    commands = [op.argv[0] for op in ops]
    plain, traced, layers, gaps = [], [], [], []
    first = None
    started = time.perf_counter()
    for op, argv in zip(ops, argvs):  # warm-up: lazy imports and first-call costs
        in_process_op(cli, op, argv, tally)
    while True:
        r0 = time.perf_counter()
        tracer = tracing.Tracer()
        per_op, plain_wall = [], 0.0
        for i, (op, argv) in enumerate(zip(ops, argvs)):
            # each op runs untraced and traced back to back, in alternating
            # order, so that drift in machine speed cancels from the overhead
            traced_first = (i + len(traced)) % 2
            for run_traced in (traced_first, not traced_first):
                if run_traced:
                    tracer.op = i
                    with tracing.installed(tracer):
                        per_op.append(in_process_op(cli, op, argv, tally))
                else:
                    t0, t1, _ = in_process_op(cli, op, argv, tally)
                    plain_wall += t1 - t0
        plain.append(plain_wall)
        traced.append(sum(t1 - t0 for t0, t1, _ in per_op))
        by_op: list[list[tuple[float, float]]] = [[] for _ in ops]
        for _, s, e, _, o in tracer.spans:
            by_op[o].append((s, e))
        shares = [tracing.unattributed(by_op[i], t0, t1) for i, (t0, t1, _) in enumerate(per_op)]
        gaps.append(max(shares))
        values = tracing.layer_metrics(tracer, commands)
        values["cli.emit_bytes"] = sum(b for _, _, b in per_op)
        layers.append(values)
        if first is None:
            first = (tracer, per_op, shares)
        if not fits(started, time.perf_counter() - r0, seconds):
            break

    metrics = {name: statistics.median(run[name] for run in layers) for name in layers[0]}
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced, plain))
    metrics["trace.unattributed_share_max"] = statistics.median(gaps)

    tracer, per_op, shares = first
    base = per_op[0][0]
    names = sorted({span[0] for span in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    dump.write_text(json.dumps({
        "ops": [
            {"argv": list(op.argv), "kind": op.kind, "label": op.label,
             "wall_s": t1 - t0, "unattributed_share": share}
            for op, (t0, t1, _), share in zip(ops, per_op, shares)
        ],
        "span_names": names,
        "span_fields": ["name index", "start us", "end us", "parent span", "op"],
        "spans": [[index[n], round((s - base) * 1e6, 1), round((e - base) * 1e6, 1), p, o]
                  for n, s, e, p, o in tracer.spans],
        "counters": tracer.counters,
        "metrics": metrics,
    }, separators=(",", ":")))
    notes = {"rounds": len(traced), "untraced_wall_s": statistics.median(plain),
             "traced_wall_s": statistics.median(traced), "spans": len(tracer.spans),
             "trace_file": str(dump.relative_to(ROOT))}
    return metrics, notes


# -------------------------------------------------------------------- main


def run_workload(name: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    ops = workloads.build(name, seed)
    tally = harness.Tally()
    info = {"workload": name, "seed": seed, "holdout": seed == HOLDOUT_SEED,
            "trace": int(traced), "seconds": seconds, **environment(),
            "loadavg_start": os.getloadavg()}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        scratch = Path(tmp)
        trivial_argv, *argvs = materialize([workloads.TRIVIAL_OP, *ops], scratch)
        if traced:
            dump = OUT / f"trace-{name}-seed{seed}.json"
            values, notes = per_layer(ops, argvs, seconds, scratch, tally, dump)
        else:
            values, notes = end_to_end(ops, argvs, trivial_argv, seconds, scratch, tally)
    info["loadavg_end"] = os.getloadavg()
    declared = spec["per_layer" if traced else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    info.update(notes, fail_rate=tally.fail_rate, wrong=tally.wrong, failures=tally.reasons)
    (OUT / f"result-{name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps({**info, "result": result}, indent=1))
    report(info, result, traced)
    return result


def report(info: dict, result: dict, traced: bool) -> None:
    load = "{:.2f}->{:.2f}".format(info["loadavg_start"][0], info["loadavg_end"][0])
    print(f"== {info['workload']} seed={info['seed']}{' (hold-out)' if info['holdout'] else ''} "
          f"trace={info['trace']} commit={info['commit']} nproc={info['nproc']} "
          f"python={info['python']} load={load}")
    notes = {
        "small_p50_s": f"{info.get('small_ops')} small ops",
        "small_tail_s": f"p{info.get('small_tail_percentile')} of {info.get('small_ops')} small ops",
        "wall_s": f"sum of per-op medians over {info.get('passes')} passes",
    }
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6f} {m['unit']:<6} {notes.get(name, '') if not traced else ''}")
    print(f"  {'fail_rate':<40} {info['fail_rate']:>14.6f} {'ratio':<6} "
          f"{result['failed']} failed of {result['attempted']} ops, {info['wrong']} wrong answers")
    for reason, count in info["failures"].items():
        print(f"  failed x{count}: {reason[:160]}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "projclass" / "cli.py").is_file():
        print(f"error: no projclass sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    OUT.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, seconds, bool(args.trace), spec) for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
