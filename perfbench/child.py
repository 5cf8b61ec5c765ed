"""Benchmark child process: import spinref, then run operations in a closed loop.

Run by run.py, never by hand.  It reads a job header and then one
operation per line on stdin, and writes one JSON line per operation, then
a final line, to stdout.  Only ``sys`` and ``time`` are imported before ``spinref.cli``, so
the import timestamp on the final line measures interpreter start plus the
program's own import.

With ``--setup-only`` it prints that timestamp and the median time of
SETUP_KERNEL_RUNS runs of the reference kernel (below), and exits.

With ``calibrate`` in the job, a fixed reference kernel runs every
SAMPLE_PERIOD_S of CPU time, from a signal handler, so also in the middle of
a long operation.  Its start times and durations go to the final line; the
parent subtracts them from the operations they interrupted and uses them to
scale every timing to the host's reference speed (run.py, ``Calibration``).
"""

import sys
import time

import spinref.cli  # noqa: E402  (the timed import)

IMPORTED_AT = time.monotonic()

import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

from array import array  # noqa: E402
from fractions import Fraction  # noqa: E402

REAL_STDOUT = sys.stdout
SAMPLE_PERIOD_S = 0.1  # CPU seconds between two runs of the reference kernel
SETUP_KERNEL_RUNS = 5  # after one untimed run
MAX_SAMPLES = 4096     # kernel runs recorded; more than a run of 170 s makes


class OpTimeout(BaseException):
    """Raised by the per-operation alarm; a BaseException so the program cannot catch it."""


def _alarm(signum, frame):
    raise OpTimeout


class HashSink:
    """Stands in for sys.stdout: hashes every byte as it is written.

    The text is also kept (small outputs) or written to a file (large ones),
    so that the parent can check it after the operation.
    """

    encoding = "utf-8"

    def __init__(self, tee=None):
        self.digest = hashlib.sha256()
        self.nbytes = 0
        self.tee = tee
        self.parts = []

    def write(self, text):
        data = text.encode("utf-8")
        self.digest.update(data)
        self.nbytes += len(data)
        if self.tee is not None:
            self.tee.write(data)
        else:
            self.parts.append(text)
        return len(text)

    def flush(self):
        pass


class _Perm:
    __slots__ = ("images",)

    def __init__(self, images):
        self.images = images

    def __mul__(self, other):
        return _Perm(tuple(self.images[i - 1] for i in other.images))


def reference_kernel():
    """A fixed mix of what spinref spends its time on, about 4 ms: integer
    arithmetic, tuple keys in a dict, small and big Fraction sums, big-integer
    products, and small objects composed through a Python method.  It calls
    no spinref code and never changes, so its time follows the host's speed
    alone.  It keeps at most a few dozen objects alive at once, so that it
    adds little to the program's peak RSS."""
    x = 0
    for i in range(20000):
        x = (x * 31 + i) & 0xFFFFF
    counts = {}
    for i in range(600):
        key = tuple((i * k) % 7 for k in range(8))
        counts[key] = counts.get(key, 0) + 1
    f = Fraction(0)
    for i in range(1, 60):
        f += Fraction(i, i + 3)
    g = Fraction(0)  # denominators grow to hundreds of digits, as in exact elimination
    for i in range(1, 160):
        g += Fraction(i * 7 + 1, i * i + 3)
    y, modulus = 3 ** 1000, 7 ** 1100  # each under 512 bytes, so pymalloc holds them
    for i in range(600):
        y = (y * 12345678901) % modulus
    base = p = _Perm((3, 5, 1, 6, 4, 2, 8, 7))
    seen = {}
    for i in range(800):
        p = p * base
        seen[p.images] = i
    return x, f, g, y, len(counts), len(seen)


class Sampler:
    """Runs reference_kernel on SIGVTALRM and records its start and seconds.

    Cyclic GC is off while the kernel runs, so the program's heap does not
    change the kernel's time.  The records go to arrays sized in advance, so
    that storing them allocates nothing while the program runs.
    """

    def __init__(self):
        self.starts = array("d", bytes(8 * MAX_SAMPLES))
        self.durations = array("d", bytes(8 * MAX_SAMPLES))
        self.count = 0

    def _tick(self, signum, frame):
        if self.count == MAX_SAMPLES:
            return
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        try:
            reference_kernel()
        finally:
            self.starts[self.count] = t0
            self.durations[self.count] = time.perf_counter() - t0
            self.count += 1
            if enabled:
                gc.enable()

    def samples(self):
        return list(zip(self.starts[:self.count], self.durations[:self.count]))

    def start(self):
        reference_kernel()  # warm-up, untimed
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)


def _certify(n, composition):
    """Untimed setup and timed body of one oracle certification."""
    from spinref.intertwine import m_tau_expansion, m_tau_expansion_oracle
    from spinref.parabolic import SpinParabolic

    parabolic = SpinParabolic.from_composition(composition)
    expansion, _ = m_tau_expansion(n, parabolic)

    def body():
        oracle = m_tau_expansion_oracle(n, parabolic)
        if set(oracle) != set(expansion):
            return 1
        return 0 if all(expansion[key] == oracle[key] for key in expansion) else 1
    return body


def run_op(op, out_path, timeout_scale):
    record = {"code": None, "error": None}
    tee = open(out_path, "wb") if op.get("to_file") else None
    sink, err = HashSink(tee), io.StringIO()
    t0 = t1 = None
    try:
        body = _certify(op["n"], op["composition"]) if op["kind"] == "certify" else None
        sys.stdout, sys.stderr = sink, err
        signal.setitimer(signal.ITIMER_REAL, op["timeout"] * timeout_scale)
        t0 = time.perf_counter()
        try:
            record["code"] = body() if body else spinref.cli.main(op["argv"])
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        record["error"] = "timeout"
    except SystemExit as exc:
        record["code"] = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception as exc:  # an operation that raises is a failed operation, not a crash
        record["error"] = f"exception {type(exc).__name__}: {exc}"
    finally:
        sys.stdout, sys.stderr = REAL_STDOUT, sys.__stderr__
        if tee is not None:
            tee.close()
    t0 = t0 if t0 is not None else time.perf_counter()
    t1 = t1 if t1 is not None else time.perf_counter()
    record.update(t0=t0, t1=t1, digest=sink.digest.hexdigest(), bytes=sink.nbytes,
                  out="".join(sink.parts), err=err.getvalue())
    return record


def peak_rss_kb():
    """High-water RSS of this process image.

    On Linux, ru_maxrss also counts the memory the spawning process had when
    it forked us, so the kernel's per-image VmHWM is read where it exists.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    if "--setup-only" in sys.argv:
        gc.disable()
        reference_kernel()
        runs = []
        for _ in range(SETUP_KERNEL_RUNS):
            t0 = time.perf_counter()
            reference_kernel()
            runs.append(time.perf_counter() - t0)
        print(json.dumps({"final": True, "imported_at": IMPORTED_AT,
                          "kernel_s": sorted(runs)[len(runs) // 2]}))
        return 0
    # The job header is the first stdin line; operations follow one per line
    # and are read as they are needed, so the input adds nothing to the heap.
    job = json.loads(sys.stdin.readline())
    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _alarm)
    sampler = Sampler() if job["calibrate"] else None
    if sampler:
        sampler.start()
    gc_pause = [0.0, 0, 0.0]  # seconds, collections, start of the current one

    def on_gc(phase, info):
        if phase == "start":
            gc_pause[2] = time.perf_counter()
        else:
            gc_pause[0] += time.perf_counter() - gc_pause[2]
            gc_pause[1] += 1
    gc.callbacks.append(on_gc)

    # Closed loop, one client: the next operation starts when the last ends.
    # Without max_ops, passes over the operation list start until `seconds`
    # have gone by; the pass in flight at the deadline completes.
    start = None
    i = 0
    while job["max_ops"] is None or i < job["max_ops"]:
        if job["max_ops"] is None and start is not None \
                and time.perf_counter() - start >= job["seconds"] \
                and i % job["pass_len"] == 0:
            break
        line = sys.stdin.readline()
        if not line:
            break
        record = run_op(json.loads(line), job["out_path"], job["timeout_scale"])
        record["i"] = i
        if start is None:
            start = record["t0"]
        print(json.dumps(record), file=REAL_STDOUT, flush=True)
        i += 1
    gc.callbacks.remove(on_gc)
    if sampler:
        sampler.stop()
    final = {"final": True, "imported_at": IMPORTED_AT,
             "maxrss_kb": peak_rss_kb(),
             "gc_pause_s": gc_pause[0], "gc_collections": gc_pause[1],
             "samples": sampler.samples() if sampler else None,
             "trace": tracer.summary(job["spans_path"]) if tracer else None}
    print(json.dumps(final), file=REAL_STDOUT, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
