"""One pass of a workload, in a fresh interpreter started by ``run.py``.

    python3 perfbench/child.py [PLAN OUTDIR TRACE KEEP]

The child imports ``stanlab.cli`` and builds its parser (through
``main(["--help"])``), then writes ``ready`` on stdout: the parent times
set-up up to that line.  With no further arguments it then times the
calibration loop, writes its median time on stdout and exits.

Otherwise it checks that every ``lru_cache`` in the package is empty, runs
the plan's commands one after another through ``stanlab.cli.main`` with
stdout sent to one file per command, and writes ``result.json`` to OUTDIR:
the wall time of each command, the median time of the calibration loop
around and during each command, peak resident set, exit codes, stdout
digests and the caches' hit and miss counts.  TRACE=1 installs ``spans.py`` first and
writes the spans out after the pass; KEEP=1 keeps the stdout files for the
oracle.
"""

import gc
import os
import sys
import time

import stanlab.cli

with open(os.devnull, "w", encoding="utf-8") as _null:
    _stdout, sys.stdout = sys.stdout, _null
    try:
        _rc = stanlab.cli.main(["--help"])
    finally:
        sys.stdout = _stdout
if _rc != 0:
    sys.exit(f"stanlab --help exited {_rc}")
os.write(1, b"ready\n")

# The calibration loop: about 3 ms on a 2-vCPU box.  It is timed eight
# times between commands and, from a timer signal, every SAMPLE_EVERY_S
# during them, so a slowdown of the machine in the middle of a long command
# shows in that command's samples.
ARITHMETIC_ITERATIONS = 20_000
DICT_ITERATIONS = 5_000
BRACKET_SAMPLES = 8
SAMPLE_EVERY_S = 0.15


def calibrate() -> float:
    """Seconds for a fixed loop, which tracks how fast the machine runs
    Python right now.

    Half its time is integer arithmetic and half is dict updates with tuple
    keys.  When the host is busy, code that allocates slows more than pure
    arithmetic; on the box this was tuned on, the library's commands slowed
    about as much as this mix and 1.2 times as much (in log) as arithmetic
    alone.  The garbage collector is off while it runs, so its time does not
    depend on the size of the program's heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        s = 0
        for i in range(ARITHMETIC_ITERATIONS):
            s += i * i
        d: dict = {}
        for i in range(DICT_ITERATIONS):
            k = (i & 1023, i >> 10)
            d[k] = d.get(k, 0) + i
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Calibration samples, and the time the timer signal took from the
    command it interrupted."""

    def __init__(self):
        self.samples: list[float] = []
        self.stolen_s = 0.0
        self._busy = False

    def bracket(self) -> None:
        self.samples += [calibrate() for _ in range(BRACKET_SAMPLES)]

    def on_timer(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t = time.perf_counter()
        self.samples.append(calibrate())
        self.stolen_s += time.perf_counter() - t
        self._busy = False


def _caches() -> dict:
    """Every lru_cache in the package, by the qualified name it wraps."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "stanlab"
                                  or name.startswith("stanlab.")):
            continue
        for attr, value in vars(module).items():
            if callable(value) and hasattr(value, "cache_info") \
                    and hasattr(value, "__wrapped__"):
                inner = value.__wrapped__
                out.setdefault(f"{inner.__module__}.{inner.__qualname__}",
                               value)
    return out


def main(plan_path: str, outdir: str, trace: bool, keep: bool) -> None:
    # imported here so that set-up times only what the CLI itself loads
    import hashlib
    import json
    import resource
    import signal
    import statistics

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    caches = _caches()
    warm = {name: fn.cache_info().currsize for name, fn in caches.items()
            if fn.cache_info().currsize}

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    rcs, errors, outputs, times, speeds = [], [], [], [], []
    real_stdout = sys.stdout
    speed = Speed()
    signal.signal(signal.SIGALRM, speed.on_timer)
    speed.bracket()
    for i, cmd in enumerate(plan["commands"]):
        first_sample = len(speed.samples) - BRACKET_SAMPLES
        stolen_before = speed.stolen_s
        # the traced pass takes no samples inside commands: they would add
        # to the self time of whatever span they interrupt
        if not trace:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        tc = time.perf_counter()
        argv = list(cmd["argv"])
        if cmd.get("input_path"):
            argv += ["--in", cmd["input_path"]]
        path = os.path.join(outdir, f"out-{i}.txt")
        outputs.append(path)
        with open(path, "w", encoding="utf-8", newline="") as out:
            sys.stdout = out
            try:
                rcs.append(stanlab.cli.main(argv))
                errors.append(None)
            except Exception as exc:  # a traceback the CLI let through
                rcs.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
            finally:
                sys.stdout = real_stdout
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - tc
        times.append(elapsed - (speed.stolen_s - stolen_before))
        speed.bracket()
        # the samples just before, during and just after the command
        speeds.append(statistics.median(speed.samples[first_sample:]))

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.dump(outdir)

    digests, sizes = [], []
    for path in outputs:
        with open(path, "rb") as fh:
            data = fh.read()
        digests.append(hashlib.sha256(data).hexdigest())
        sizes.append(len(data))
        if not keep:
            os.remove(path)
    result = {
        "command_s": times,
        "calibration_s": speeds,
        "peak_rss_mb": peak_kib / 1024,
        "rcs": rcs,
        "errors": errors,
        "digests": digests,
        "bytes": sizes,
        "warm_caches": warm,
        "caches": {name: list(fn.cache_info()[:2])
                   for name, fn in caches.items()},
        "stanlab_file": stanlab.cli.__file__,
    }
    with open(os.path.join(outdir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if len(sys.argv) == 5:
        main(sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4] == "1")
    else:
        import statistics

        _speed = Speed()
        _speed.bracket()
        os.write(1, f"{statistics.median(_speed.samples)!r}\n".encode())
