"""Child process of one benchmark run: calls ``lindosc.cli.main`` in-process.

Usage: ``python worker.py SPEC.json``, where the spec (written by
``run.py``) names the checkout root, the CLI argv, the seconds to measure,
whether to trace, and the files to write.  The CLI's standard output is
this process's standard output, a pipe that ``run.py`` drains and hashes;
results go to the spec's ``result`` file.

The first call is untimed: it warms the process and its CSV is kept as
the reference that ``run.py`` verifies.  Timed calls follow until the
seconds are spent.  A fixed reference loop of interpreter and numpy work,
independent of lindosc, is timed before every call and once after the
last, so each call can be set against the host speed of its moment.
With tracing off, the import of ``lindosc.cli`` is timed in a fresh
interpreter at even intervals through the run.  With tracing on,
untraced and traced calls alternate, so the difference of their medians
is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

MIN_CALLS = 5
#: Fresh-interpreter imports of lindosc.cli timed through a run without tracing.
SETUP_REPEATS = 12

_IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import lindosc.cli; "
                 "print(time.perf_counter() - t)")


def reference_loop() -> int:
    """Fixed work in the style of the CLI's per-node loop: small numpy arrays,
    a 2x2 determinant and a float rendered at 15 significant digits.  It calls
    no lindosc code, so a change to lindosc cannot move it."""
    import numpy as np

    eye, acc, parts = np.eye(4), 0.0, []
    for i in range(3000):
        acc += float(np.linalg.det((eye * (1.0 + i * 1e-6))[:2, :2]))
        parts.append(format(acc, ".15e"))
    return len(",".join(parts))


def _timed_reference() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


def _timed_import(src: Path) -> float:
    done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(src)],
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"importing lindosc.cli failed:\n{done.stderr.strip()}")
    return float(done.stdout)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _call(cli, argv):
    """Exit code of one CLI call; None when it raised."""
    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return None


def _cache_clearers():
    """``cache_clear`` of every functools cache in the package.

    Each CLI invocation is a fresh process, so no cache outlives one call.
    """
    found = []
    for name, module in list(sys.modules.items()):
        if name == "lindosc" or name.startswith("lindosc."):
            found += [v.cache_clear for v in vars(module).values()
                      if callable(getattr(v, "cache_clear", None))]
    return found


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import lindosc
    from lindosc import cli

    if not Path(lindosc.__file__).resolve().is_relative_to(src.resolve()):
        print(f"lindosc imported from {lindosc.__file__}, not {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracer import Tracer

    argv, out = spec["argv"], spec["out"]
    clearers = _cache_clearers()

    # Reference call: its CSV is verified, and every timed call must repeat it.
    if out:
        ref_rc = _call(cli, argv)
        if os.path.exists(out):
            os.replace(out, spec["capture"])
        else:
            Path(spec["capture"]).write_text("")
    else:
        with open(spec["capture"], "w", encoding="utf-8", newline="") as fh:
            saved, sys.stdout = sys.stdout, fh
            try:
                ref_rc = _call(cli, argv)
            finally:
                sys.stdout = saved
    ref_sha = _sha256(spec["capture"])

    tracer = Tracer() if spec["trace"] else None
    walls, traced, rcs, same_output, refs, setup = [], [], [], [], [], []
    if tracer is None:
        _timed_import(src)  # untimed: warms the file cache and writes the bytecode
    begin = perf_counter()
    deadline = begin + spec["seconds"]
    while True:
        trace_this = tracer is not None and len(rcs) % 2 == 1
        due = begin + len(setup) * spec["seconds"] / SETUP_REPEATS
        if tracer is None and perf_counter() >= due:
            setup.append(_timed_import(src))
        refs.append(_timed_reference())
        for clear in clearers:
            clear()
        if out and os.path.exists(out):
            os.remove(out)
        if trace_this:
            tracer.reset()
            tracer.install()
        start = perf_counter()
        rc = _call(cli, argv)
        wall = perf_counter() - start
        sys.stdout.flush()
        if trace_this:
            tracer.uninstall()
            traced.append({"wall_s": wall, "layers": tracer.totals()})
        else:
            walls.append(wall)
        rcs.append(rc)
        if out:
            same_output.append(os.path.exists(out) and _sha256(out) == ref_sha)
        enough = len(walls) >= MIN_CALLS and (tracer is None or len(traced) >= MIN_CALLS)
        if enough and perf_counter() >= deadline:
            break
    refs.append(_timed_reference())

    if tracer is not None:
        # Spans of the last traced call, written only now that timing is over.
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            for span in tracer.spans_json():
                fh.write(json.dumps(span) + "\n")

    result = {
        "ref_rc": ref_rc,
        "rcs": rcs,
        "same_output": same_output if out else None,
        "wall_s": walls,
        "traced": traced,
        "ref_s": refs,
        "setup_s": setup,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
