"""End-to-end and per-layer benchmark of the lindosc CLI grid workloads.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload deco_surface --seed 0 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``.  A run generates the inputs
from the seed and starts one child process (``worker.py``) that calls
``lindosc.cli.main(argv)`` in-process for ``--seconds`` seconds.  The CSV
is verified outside the timed region, and every timed call must reproduce
it byte for byte.

The speed of a shared host drifts by a quarter and more over minutes,
much alike for all CPU-bound code, so the wall time of a call says as
much about the host as about lindosc.  The child therefore times a fixed
reference loop of interpreter and numpy work before every call and after
the last, and ``wall_per_ref`` is the median over the calls of the call's
wall time divided by the mean of the two reference loops beside it: the
cost of a call in reference loops, from which most of the host's drift
cancels.  The wall time itself is printed beside it.  ``setup_s`` is the
median of the imports of ``lindosc.cli`` timed in fresh interpreters at
even intervals through the run.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics of ``tracer.py``.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit code 0 when a result was printed, 2 when the run could not be made
(for example when ``src/lindosc`` is missing from the checkout).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: The layers' self times must add up to the traced wall time within this share.
ACCOUNTING_SHARE = 0.05
#: Seconds a child may take beyond the measured ones (start, reference call, checks).
CHILD_GRACE_S = 120

class BenchError(Exception):
    """The run could not be made; no result is printed."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _git_commit():
    """Commit of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
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


def _src_digest():
    """SHA-256 over the package sources, so a checkout without git is identified."""
    h = hashlib.sha256()
    for path in sorted((SRC / "lindosc").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "lindosc_commit": _git_commit(),
        "lindosc_src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_child(spec: dict, work: Path):
    """Run worker.py; return its result and the hash and size of its stdout."""
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    digest, size = hashlib.sha256(), [0]

    with open(work / "stderr.txt", "wb") as err:
        proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(spec_path)],
                                stdout=subprocess.PIPE, stderr=err, cwd=ROOT)

        def drain():
            for chunk in iter(lambda: proc.stdout.read(1 << 20), b""):
                digest.update(chunk)
                size[0] += len(chunk)

        reader = threading.Thread(target=drain)
        reader.start()
        try:
            code = proc.wait(timeout=spec["seconds"] + CHILD_GRACE_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            reader.join()
            proc.stdout.close()
    if code != 0:
        tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        raise BenchError(f"worker exited with {code}:\n{tail}")
    return json.loads(Path(spec["result"]).read_text()), digest.hexdigest(), size[0]


def tail_percentile(samples):
    """(p, value, beyond) for the highest percentile with at least ten samples
    above it, using nearest rank; None when there are too few samples."""
    xs = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        value = xs[max(0, math.ceil(p / 100.0 * len(xs)) - 1)]
        beyond = sum(1 for x in xs if x > value)
        if beyond >= 10:
            return p, value, beyond
    return None


def _metric(value, unit):
    return {"value": value, "unit": unit}


def call_ratios(child) -> list[float]:
    """Each untraced call's wall time over the mean of the reference loops
    timed just before and just after it."""
    refs = child["ref_s"]
    return [wall / (0.5 * (refs[i] + refs[i + 1])) for i, wall in enumerate(child["wall_s"])]


def end_to_end(child):
    return {
        "wall_per_ref": _metric(statistics.median(call_ratios(child)), "ratio"),
        "setup_s": _metric(statistics.median(child["setup_s"]), "s"),
        "peak_rss_mib": _metric(child["maxrss_kib"] / 1024.0, "MiB"),
    }


def per_layer(child):
    """Per-layer metrics of the traced calls, and the problems found in them."""
    traced = child["traced"]
    problems = []
    first = traced[0]["layers"]
    for rep in traced[1:]:
        for layer in tracer.LAYERS:
            for key in ("calls", "work"):
                if rep["layers"][layer][key] != first[layer][key]:
                    problems.append(f"{layer}.{key} differs between traced calls")

    def self_s(layer):
        return statistics.median(rep["layers"][layer]["self_s"] for rep in traced)

    metrics = {}
    for layer in tracer.CLI_LAYERS:
        metrics[f"{layer}.self_s"] = _metric(self_s(layer), "s")
    values = first["cli.render"]["work"]
    metrics["cli.render.values"] = _metric(values, "count")
    metrics["cli.render.us_per_value"] = _metric(
        self_s("cli.render") / values * 1e6 if values else 0.0, "us")
    metrics["cli.emit.bytes"] = _metric(first["cli.emit"]["work"], "bytes")
    for layer in tracer.MODULE_LAYERS:
        metrics[f"{layer}.calls"] = _metric(first[layer]["calls"], "count")
        metrics[f"{layer}.self_s"] = _metric(self_s(layer), "s")
    traced_wall = statistics.median(rep["wall_s"] for rep in traced)
    metrics["trace.overhead_s"] = _metric(traced_wall - statistics.median(child["wall_s"]), "s")
    share = statistics.median(
        sum(v["self_s"] for v in rep["layers"].values()) / rep["wall_s"] for rep in traced)
    metrics["trace.accounted_share"] = _metric(share, "share")
    if abs(share - 1.0) > ACCOUNTING_SHARE:
        problems.append(f"layer self times cover {share:.3f} of the traced wall time, "
                        f"outside 1 +/- {ACCOUNTING_SHARE}")
    return metrics, problems


def count_failures(inputs, child, ref_text, stream_sha, stream_bytes):
    """(attempted, failed, problems): a timed call fails when it exits non-zero
    or its CSV differs from the verified reference; all fail when the
    reference is wrong."""
    try:
        problems = workloads.verify(inputs, ref_text)
    except Exception as exc:  # a malformed CSV may trip the library's own checks
        problems = [f"verification raised {exc!r}"]
    if child["ref_rc"] != 0:
        problems.append(f"reference call exited with {child['ref_rc']}")
    rcs = child["rcs"]
    attempted = len(rcs)
    if child["same_output"] is not None:
        same = child["same_output"]
        stream_ok = stream_bytes == 0
    else:
        ref = ref_text.encode()
        expected = hashlib.sha256()
        for _ in rcs:
            expected.update(ref)
        stream_ok = expected.hexdigest() == stream_sha and stream_bytes == len(ref) * attempted
        same = [stream_ok] * attempted
    if not stream_ok:
        problems.append("standard output of the timed calls differs from the reference CSV")
    failed = sum(1 for rc, ok in zip(rcs, same) if rc != 0 or not ok)
    if problems:
        failed = attempted
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _tail_text(samples, unit: str) -> str:
    tail = tail_percentile(samples)
    if tail is None:
        return "no percentile has ten samples beyond it"
    return f"p{tail[0]:g} {tail[1]:.4f}{' ' + unit if unit else ''} with {tail[2]} beyond"


def _human(d: dict, metrics: dict) -> list[str]:
    """Readable lines of one run, from its detail record and metrics."""
    prov, load, refs = d["provenance"], d["loadavg"], d["ref_s"]
    lines = [f"bench {d['workload']} seed={d['seed']} seconds={d['seconds']:g} trace={d['trace']}",
             "  inputs: " + ", ".join(f"{k}={v:.6g}" for k, v in d["params"].items()),
             f"  provenance: python {prov['python']}, numpy {prov['numpy']}, "
             f"lindosc commit {prov['lindosc_commit'] or 'unknown (no .git)'}, "
             f"src sha256 {prov['lindosc_src_sha256'][:16]}, nproc {prov['nproc']}",
             f"  host: loadavg {load[0][0]:.2f} -> {load[1][0]:.2f}, reference loop "
             f"{statistics.median(refs) * 1e3:.2f} ms median, {min(refs) * 1e3:.2f} to "
             f"{max(refs) * 1e3:.2f} ms, n={len(refs)}",
             f"  csv: {d['rows']} rows, sha256 {d['csv_sha256']}"]
    walls = d["wall_s"]
    wall_text = f"{statistics.median(walls):.4f} s median, {_tail_text(walls, 's')}, n={len(walls)}"
    if d["trace"]:
        traced_wall = statistics.median(d["traced_wall_s"])
        lines.append(f"  untraced wall_s {wall_text}; traced wall_s {traced_wall:.4f} s "
                     f"median, n={len(d['traced_wall_s'])}")
        for name, m in metrics.items():
            share = ""
            if name.endswith(".self_s"):
                share = f"  ({m['value'] / traced_wall:6.1%} of traced wall)"
            lines.append(f"  {name:<26} {m['value']:.6g} {m['unit']}{share}")
    else:
        ratios = d["wall_per_ref"]
        lines += [f"  wall_per_ref {metrics['wall_per_ref']['value']:.4f} median, "
                  f"{_tail_text(ratios, '')}, n={len(ratios)}",
                  f"  wall_s       {wall_text}",
                  f"  us_per_row   {statistics.median(walls) / d['rows'] * 1e6:.3f} us",
                  f"  setup_s      {metrics['setup_s']['value']:.4f} s median of "
                  f"{len(d['setup_s'])} imports spread over the run",
                  f"  peak_rss_mib {metrics['peak_rss_mib']['value']:.1f} MiB"]
    lines.append(f"  failed_share {d['failed_share']:.4f} ({d['failed']} of {d['attempted']} calls)")
    lines += [f"  problem: {p}" for p in d["problems"]]
    return lines


def run(args) -> dict:
    if not (SRC / "lindosc" / "cli.py").is_file():
        raise BenchError(f"no lindosc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    load_start = os.getloadavg()
    inputs = workloads.generate(args.workload, args.seed)
    prov = provenance()
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        argv = workloads.write_inputs(inputs, work)
        spans = None
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans = str(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
        spec = {"root": str(ROOT), "argv": argv, "seconds": args.seconds,
                "trace": bool(args.trace), "capture": str(work / "reference.csv"),
                "out": str(work / "out.csv") if workloads.writes_file(inputs) else None,
                "result": str(work / "result.json"), "spans": spans}
        child, stream_sha, stream_bytes = run_child(spec, work)
        ref_text = (work / "reference.csv").read_text()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    attempted, failed, problems = count_failures(inputs, child, ref_text,
                                                 stream_sha, stream_bytes)
    rows = workloads.ROWS[args.workload]
    if args.trace:
        metrics, trace_problems = per_layer(child)
        problems += trace_problems
    else:
        metrics = end_to_end(child)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "params": inputs.params, "provenance": prov,
              "loadavg": [load_start, os.getloadavg()], "ref_s": child["ref_s"],
              "rows": rows, "csv_sha256": hashlib.sha256(ref_text.encode()).hexdigest(),
              "wall_s": child["wall_s"], "traced_wall_s": [r["wall_s"] for r in child["traced"]],
              "wall_per_ref": [] if args.trace else call_ratios(child),
              "setup_s": child["setup_s"], "attempted": attempted, "failed": failed,
              "failed_share": failed / attempted, "problems": problems}
    for line in _human(detail, metrics):
        print(line)
    print(json.dumps({"detail": detail}))
    return {"correct": not problems and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
