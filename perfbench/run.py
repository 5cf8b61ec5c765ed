"""Benchmark of spinref: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload queries --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one report

Each workload runs in a fresh single-threaded child process (child.py) as
a closed loop with one client, calling the program only through
``spinref.cli.main(argv)`` and public library functions.  Outputs are
checked from outside the program (workloads.py) and, at the default seed,
against the stdout digests the seed commit produced (pins.json).

The report names every metric with its unit; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
the per-layer ones with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from collections import defaultdict
from math import ceil, factorial
from pathlib import Path

from workloads import WORKLOADS, check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".perfbench_out"
PINS = BENCH / "pins.json"
PIN_HEX = 12          # digest prefix kept per operation
DEFAULT_SEED = 1
SETUP_SAMPLES = 9     # spawns per run whose import time gives setup_s
RUN_BUDGET_S = 170.0  # the whole run, checks included, ends within this
CHECK_RESERVE_S = {"classify-n5": 25.0, "mtau": 5.0, "queries": 5.0}
QUERY_PASS = 1000       # queries requests per pass
QUERY_PINNED = 6000     # queries requests whose digests are pinned (more than a run makes)
PASSES_WRITTEN = 100    # passes of classify / mtau offered to the child; runs stop far sooner
TRACE_TIMEOUT_SCALE = 4.0
REF_KERNEL_S = 0.004    # child.reference_kernel at the reference speed, about the fast mode
CALIB_WINDOW_S = 1.0    # kernel runs this close to an operation set its speed
CALIB_MIN_SAMPLES = 5

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class ChildResult:
    def __init__(self, spawned_at, records, final, killed, stderr):
        self.records = records
        self.final = final
        self.killed = killed
        self.stderr = stderr
        self.setup_s = final["imported_at"] - spawned_at if final else None

    @property
    def span_s(self) -> float:
        """From the start of the first operation to the end of the last."""
        return self.records[-1]["t1"] - self.records[0]["t0"]


def spawn(job: dict | None, stream_text: str, budget_s: float) -> ChildResult:
    """Run child.py (setup only when job is None) and collect its JSON lines.

    The child reads the job header, then operations one per line as it goes;
    it may stop reading early, which communicate() tolerates.
    """
    argv = [sys.executable, str(BENCH / "child.py")] + ([] if job else ["--setup-only"])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    killed = False
    try:
        text = json.dumps(job) + "\n" + stream_text if job else ""
        out, err = proc.communicate(text, timeout=max(budget_s, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    records, final = [], None
    for line in out.splitlines():
        try:
            item = json.loads(line)
        except json.JSONDecodeError:
            continue  # the last line of a killed child may be cut short
        if item.get("final"):
            final = item
        else:
            records.append(item)
    return ChildResult(spawned_at, records, final, killed or proc.returncode != 0, err)


def setup_sample(budget_s: float) -> float | None:
    """Spawn to import of one setup-only child, at the reference speed: the
    child times the reference kernel right after its import (Calibration)."""
    res = spawn(None, "", budget_s)
    return res.setup_s * REF_KERNEL_S / res.final["kernel_s"] if res.final else None


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def pinned_digest(pins: dict, workload: str, seed: int, index: int, op: dict):
    if workload == "queries":
        stream = pins.get("queries", "")
        if seed != pins.get("seed") or index >= len(stream) // PIN_HEX:
            return None
        return stream[index * PIN_HEX:(index + 1) * PIN_HEX]
    return pins.get(workload, {}).get(" ".join(op.get("argv", [])))


class Outcome:
    """Checked records of one child: which operations failed and why."""

    def __init__(self, workload, seed, stream, result: ChildResult, pins, out_path):
        self.result = result
        self.ops = [stream[rec["i"]] for rec in result.records]
        self.failures: list[str] = []
        for rec, op in zip(result.records, self.ops):
            reason = check(op, rec, out_path)
            pin = pinned_digest(pins, workload, seed, rec["i"], op)
            if reason is None and pin and rec["digest"][:PIN_HEX] != pin:
                reason = "stdout differs from the seed commit's pinned digest"
            rec["failed"] = reason
            if reason:
                self.failures.append(f"op {rec['i']} {' '.join(op.get('argv', [op['kind']]))}"
                                     f": {reason}")
        if out_path.exists():
            out_path.unlink()
        self.attempted = len(result.records)
        if result.killed:
            self.attempted += 1  # the operation in flight when the child was stopped
            self.failures.append("child stopped: run budget exhausted or child crashed "
                                 + result.stderr.strip()[-300:])

    @property
    def failed(self) -> int:
        return len(self.failures)

    def members(self) -> int:
        """Refinements listed by the classify operations that passed their checks."""
        return sum(factorial(2 * op["expect"]["n"]) for rec, op in zip(self.result.records, self.ops)
                   if op["kind"] == "classify" and not rec["failed"])


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(ceil(0.99 * len(ordered)) - 1, 0)]


class Calibration:
    """Scales operation times to the host's reference speed.

    The child runs a fixed reference kernel every 0.1 s of CPU time, also
    inside long operations (child.py, ``Sampler``).  On the shared 2-core
    host this benchmark was built on, speed switches by up to 1.5x for tens
    of seconds at a time, and the kernel's time follows the switches of the
    same process: over 5 s windows the spread of an operation's time fell
    from 0.25 to 0.03-0.06 of its median once divided by the kernel's.  (The
    kernel in another process, on the other core, did not follow them.)
    An operation's time is its wall time less the kernel runs inside it,
    times REF_KERNEL_S over the median kernel time within CALIB_WINDOW_S of
    it: the time it would take when the kernel takes REF_KERNEL_S.  A long
    operation is scaled piece by piece, between the kernel runs inside it.
    """

    def __init__(self, samples: list):
        samples = sorted(samples)
        self.starts = [t for t, _ in samples]
        self.durations = [d for _, d in samples]

    def kernel_s(self, t0: float, t1: float) -> float:
        """Median kernel time around [t0, t1], from at least CALIB_MIN_SAMPLES runs."""
        lo = bisect_left(self.starts, t0 - CALIB_WINDOW_S)
        hi = bisect_right(self.starts, t1 + CALIB_WINDOW_S)
        while hi - lo < CALIB_MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        return statistics.median(self.durations[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        """[t0, t1] less the kernel runs inside it, cut at each kernel run so
        that each piece is scaled by the speed around it."""
        lo, hi = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        cuts = [t0] + self.starts[lo:hi] + [t1]
        kernel = [0.0] + self.durations[lo:hi]
        return sum((b - a - d) * REF_KERNEL_S / self.kernel_s(a, b)
                   for a, b, d in zip(cuts, cuts[1:], kernel))


def end_to_end(outcome: Outcome, setups: list[float], pass_len: int) -> tuple[dict, list[str]]:
    """The BENCHMARK.json end-to-end metrics, plus report-only lines.

    Every timing is an operation's time at the reference speed (Calibration),
    and every figure is a median over the run: wall_s over its passes, the
    latency of a request over its repeats (mtau runs each request five times
    a pass), then op_p50_ms and op_p99_ms over the distinct requests.  A pass
    is one request for classify-n5, one round of mtau and 1000 requests for
    queries.  Latency percentiles cover the program's CLI requests; oracle
    certifications count in wall_s and ops_per_s only.
    """
    res = outcome.result
    cal = Calibration(res.final["samples"])
    times = [cal.scaled(rec["t0"], rec["t1"]) for rec in res.records]
    raw = [rec["t1"] - rec["t0"] for rec in res.records]
    walls = [sum(times[k:k + pass_len]) for k in range(0, len(times) - pass_len + 1, pass_len)]
    by_op = defaultdict(list)  # a request object may run more than once
    for op, t in zip(outcome.ops, times):
        by_op[op["kind"], id(op)].append(t * 1000)
    per_op = {key: statistics.median(v) for key, v in by_op.items()}
    cli = [ms for (kind, _), ms in per_op.items() if kind != "certify"]
    passed = sum(not rec["failed"] for rec in res.records)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": res.final["maxrss_kb"] / 1024,
        "ops_per_s": passed / sum(times),
        "op_p50_ms": statistics.median(cli),
        "op_p99_ms": p99(cli),
    }
    extra = [f"operations          {len(res.records)} in {len(walls)} pass(es) of {pass_len}; "
             f"{len(cli)} distinct CLI requests, p99 has "
             f"{len(cli) - ceil(0.99 * len(cli))} beyond it; "
             f"setup_s is the median of {len(setups)} spawns",
             f"host speed          reference kernel {statistics.median(cal.durations) * 1000:.4f} ms"
             f" median over {len(cal.durations)} runs, reference {REF_KERNEL_S * 1000:g} ms; "
             f"unscaled time of the operations {sum(raw):.4f} s, scaled {sum(times):.4f} s",
             f"failed_frac         {outcome.failed / outcome.attempted:.6g}"
             f"  ({outcome.failed} of {outcome.attempted})"]
    by_kind = defaultdict(list)
    for (kind, _), ms in per_op.items():
        by_kind["slopes" if kind == "slopes_bad" else kind].append(ms)
    for kind in ("info", "slopes", "zeta"):
        if by_kind.get(kind):
            extra.append(f"{kind + '_p50_ms':<20}{statistics.median(by_kind[kind]):.4f} ms"
                         f"  ({len(by_kind[kind])} requests)")
    for kind, name in (("mtau", "mtau_s"), ("certify", "certify_s")):
        if by_kind.get(kind):
            extra.append(f"{name:<20}{sum(by_kind[kind]) / 1000:.4f} s  ({len(by_kind[kind])}"
                         " operations, median of each one's runs)")
    return metrics, extra


def per_layer(summary: dict, members: int, gc_stats: tuple, overhead_s: float) -> dict:
    names = summary["names"]

    def calls(*keys):
        return sum(names[k][0] for k in keys if k in names)

    def incl(*keys):
        return sum(names[k][1] for k in keys if k in names)

    own, layer_calls = defaultdict(float), defaultdict(int)
    for name, (c, _, o) in names.items():
        own[name.split(".")[0]] += o
        layer_calls[name.split(".")[0]] += c
    perm_builds = calls("weyl.Perm.__init__")
    ratfunc_ops = [f"ratfunc.RatFunc.{op}" for op in
                   ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__")]
    return {
        "cli.self_s": own["cli"],
        "cli.parse_s": incl("cli.build_parser", "cli.parse_args"),
        "refine.self_s": own["refine"],
        "refine.stratify_s": incl("refine.stratify"),
        "refine.calls": layer_calls["refine"],
        "refine.switch_steps": calls("refine.improve_spin_step"),
        "weyl.self_s": own["weyl"],
        "weyl.perm_builds": perm_builds,
        "weyl.perm_builds_per_member": perm_builds / members if members else 0.0,
        "weyl.coset_calls": calls("weyl.coset_min_rep", "weyl.LeviCoset.of"),
        "weyl.trichotomy_calls": calls("weyl.simple_trichotomy"),
        "hecke.self_s": own["hecke"],
        "hecke.solve_s": incl("hecke.solve_profile_joint"),
        "hecke.solve_calls": calls("hecke.solve_profile_joint"),
        "hecke.alpha_calls": calls("hecke.alpha_U", "hecke.alpha_U_circ"),
        "intertwine.self_s": own["intertwine"],
        "intertwine.expansion_s": incl("intertwine.m_tau_expansion"),
        "intertwine.oracle_s": incl("intertwine.m_tau_expansion_oracle"),
        "ratfunc.self_s": own["ratfunc"],
        "ratfunc.eq_s": incl("ratfunc.RatFunc.__eq__"),
        "ratfunc.eq_calls": calls("ratfunc.RatFunc.__eq__"),
        "ratfunc.arith_calls": calls(*ratfunc_ops),
        "ratfunc.poly_mul_calls": calls("ratfunc.Poly.__mul__"),
        "ratfunc.term_products": summary["term_products"],
        "ratfunc.max_terms": summary["max_terms"],
        "parabolic.self_s": own["parabolic"],
        "rootdata.self_s": own["rootdata"],
        "gc.pause_s": gc_stats[0],
        "gc.collections": gc_stats[1],
        "trace.overhead_s": overhead_s,
    }


def unit_of(name: str) -> str:
    return UNITS[name.split("/")[-1]]  # `--workload all` prefixes names with the workload


def make_stream(workload: str, seed: int) -> tuple[list[dict], str, int]:
    """Operations offered to the child, their stdin text, and the pass length."""
    ops = WORKLOADS[workload](seed)
    if workload == "queries":  # the pool repeats, so a much faster program still has requests
        stream, pass_len = ops * 3, QUERY_PASS
    else:
        stream, pass_len = ops * PASSES_WRITTEN, len(ops)
    lines = [json.dumps({k: v for k, v in op.items() if k != "expect"}) for op in ops]
    return stream, "\n".join(lines * (len(stream) // len(ops))) + "\n", pass_len


def child_job(workload, pass_len, seconds, trace, max_ops, calibrate=False) -> dict:
    return {"seconds": seconds, "trace": trace, "max_ops": max_ops, "pass_len": pass_len,
            "calibrate": calibrate,
            "timeout_scale": TRACE_TIMEOUT_SCALE if trace else 1.0,
            "out_path": str(OUT_DIR / f"{workload}.out"),
            "spans_path": str(OUT_DIR / f"{workload}-spans.json")}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, started: float):
    """One run of one workload: (correct, attempted, failed, metrics, report lines)."""
    stream, text, pass_len = make_stream(workload, seed)
    pins = load_pins()
    out_path = OUT_DIR / f"{workload}.out"
    reserve = CHECK_RESERVE_S[workload]

    def remaining():
        return RUN_BUDGET_S - (time.monotonic() - started)

    def checked(job, budget):
        return Outcome(workload, seed, stream, spawn(job, text, budget), pins, out_path)

    if not trace:
        # Set-up is sampled before and after the workload, so that its median
        # spans the run rather than one moment of a shared host.
        setups = [setup_sample(remaining()) for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
        outcome = checked(child_job(workload, pass_len, seconds, False, None, calibrate=True),
                          remaining() - reserve)
        if outcome.result.final is None or not outcome.result.records:
            return False, outcome.attempted, outcome.failed, None, outcome.failures
        setups += [setup_sample(remaining()) for _ in range(SETUP_SAMPLES // 2)]
        metrics, lines = end_to_end(outcome, [s for s in setups if s is not None], pass_len)
        outcomes = [outcome]
    else:
        # One pass twice, so that counts repeat: untraced for the baseline, then
        # traced.  The baseline may use all but the two checks' reserve, so a
        # slow spell of the host cannot cut it short; the traced pass gets what
        # it leaves (classify-n5: about 120 s less the baseline's 30-55 s).
        base = checked(child_job(workload, pass_len, seconds, False, pass_len),
                       remaining() - 2 * reserve)
        job = child_job(workload, pass_len, seconds, True, pass_len)
        traced = checked(job, remaining() - reserve)
        outcomes = [base, traced]
        final = traced.result.final
        if final is None or base.result.final is None or not traced.result.records:
            return (False, base.attempted + traced.attempted, base.failed + traced.failed,
                    None, base.failures + traced.failures)
        metrics = per_layer(final["trace"], traced.members(),
                            (final["gc_pause_s"], final["gc_collections"]),
                            traced.result.span_s - base.result.span_s)
        lines = [f"traced wall_s {traced.result.span_s:.4f} s, untraced {base.result.span_s:.4f} s"
                 f" ({len(traced.result.records)} operations); spans in "
                 f"{Path(job['spans_path']).relative_to(ROOT)}"]
    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    return not failures, attempted, len(failures), metrics, lines + failures[:20]


def report(workload, seed, seconds, trace, result) -> None:
    correct, attempted, failed, metrics, lines = result
    print(f"== {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    for name, value in (metrics or {}).items():
        print(f"  {name:<30}{value:.6g} {unit_of(name)}")
    for line in lines:
        print(f"  {line}")
    print(f"  correct: {'yes' if correct else 'NO'}  ({failed} of {attempted} operations failed)")


def result_json(correct, attempted, failed, metrics) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": value, "unit": unit_of(name)}
                                   for name, value in metrics.items()}})


def record_pins() -> int:
    """Run every operation once at the default seed and store its stdout digest."""
    OUT_DIR.mkdir(exist_ok=True)
    pins = {"seed": DEFAULT_SEED}
    for workload in WORKLOADS:
        stream, text, pass_len = make_stream(workload, DEFAULT_SEED)
        count = QUERY_PINNED if workload == "queries" else pass_len
        outcome = Outcome(workload, DEFAULT_SEED, stream,
                          spawn(child_job(workload, pass_len, 0, False, count), text, 3600),
                          {}, OUT_DIR / f"{workload}.out")
        if outcome.failures or outcome.attempted != count:
            print("\n".join(outcome.failures[:20]), file=sys.stderr)
            return 1
        digests = [rec["digest"][:PIN_HEX] for rec in outcome.result.records]
        if workload == "queries":
            pins[workload] = "".join(digests)
        else:
            pins[workload] = {" ".join(op["argv"]): d
                              for op, d in zip(stream, digests) if "argv" in op}
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-pins", action="store_true",
                        help="store the stdout digests of this commit as the reference")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spinref" / "cli.py").is_file():
        print(f"error: no spinref sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_pins:
        return record_pins()
    if args.workload is None:
        parser.error("--workload is required")
    OUT_DIR.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct, all_attempted, all_failed, all_metrics = True, 0, 0, {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), time.monotonic())
        report(name, args.seed, args.seconds, args.trace, result)
        correct, attempted, failed, metrics, _ = result
        if metrics is None:
            print(f"error: {name} produced no measurements", file=sys.stderr)
            return 1
        all_correct &= correct
        all_attempted += attempted
        all_failed += failed
        prefix = f"{name}/" if args.workload == "all" else ""
        all_metrics.update({prefix + k: v for k, v in metrics.items()})
    print(result_json(all_correct, all_attempted, all_failed, all_metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
