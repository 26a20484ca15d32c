"""Closed-loop benchmark of the mfclt verification harness.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ``src/`` of the
same tree, never from an installed copy.  One client runs the workload's
commands through ``mfclt.cli.main`` in this process, the next run starting
only when the previous one has returned.  Every run is checked: each command
must pass its own verdict (exit 0, every manifest check true) and write the
same report and CSV bytes as the first run of the set.  The whole run,
set-up included, ends within about ``--seconds``.

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced runs and prints the per-layer
metrics; traced runs must write the same bytes as untraced ones.  The last
line of standard output is the result object; the line before it, starting
``record``, carries the machine and code record that ``compare.py`` reads.
See README.md in this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from spans import Installed, Tracer, layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MODULES = ("__init__", "cli", "clt_engine", "functionals", "laws", "mean_field",
           "measures", "rng", "stats")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_IMPORTS = 4
MIN_TIMED_RUNS = 3

# Each workload is a list of mfclt command lines; --seed and --out-dir are
# appended.  "tiny" variants keep the same routes at smoke-test sizes.
WORKLOADS: dict[str, dict[str, list[list[str]]]] = {
    # generic replication route: DiscreteMeasure.quantile dominates, and the
    # only place the replication thread pool pays off (2 workers)
    "clt-quantile": {
        "full": [["clt", "run", "--functional", "quantile:0.5", "--law", "normal:0,1",
                  "--n", "10000", "--reps", "2000", "--workers", "2"]],
        "tiny": [["clt", "run", "--functional", "quantile:0.5", "--law", "normal:0,1",
                  "--n", "200", "--reps", "40", "--workers", "2"]],
    },
    # vectorised moment-form route: decompose_many, no quantile, no evaluate
    "clt-moment": {
        "full": [["clt", "scaling", "--functional", "cube-of-second-moment",
                  "--law", "normal:0,1", "--n-grid", "100,316,1000,3162,10000",
                  "--reps", "500"]],
        "tiny": [["clt", "scaling", "--functional", "cube-of-second-moment",
                  "--law", "normal:0,1", "--n-grid", "100,316", "--reps", "20"]],
    },
    # the only mean_field workload: fluctuation replications plus the
    # two-term covariance (term 2 dominates); horizon shortened from the
    # README's (0.5, 1.0) so one run takes seconds, not half a minute
    "meanfield-ou": {
        "full": [["meanfield", "run", "--model", "ou", "--phi", "linear-mean",
                  "--n", "500", "--reps", "500", "--times", "0.1,0.2"]],
        "tiny": [["meanfield", "run", "--model", "ou", "--phi", "linear-mean",
                  "--n", "50", "--reps", "20", "--times", "0.02,0.04"]],
    },
    # derivative calculus and the transport LP; no mean_field, no clt_engine
    "crosscheck": {
        "full": [["derivcheck"], ["metrics", "check"]],
        "tiny": [["derivcheck", "--probes", "2"], ["metrics", "check"]],
    },
}

_CSV_NAME = re.compile(rb'"samples_csv_path": "[^"]*"')


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package source, a failed import)."""


def import_cli():
    """mfclt.cli from this checkout's src/, refusing any other copy."""
    if not (SRC / "mfclt" / "cli.py").is_file():
        raise BenchError(f"no package source at {SRC / 'mfclt'}")
    sys.path.insert(0, str(SRC))
    import mfclt.cli

    if Path(mfclt.cli.__file__).resolve().parent != (SRC / "mfclt").resolve():
        raise BenchError(f"imported mfclt from {mfclt.cli.__file__}, not {SRC}")
    return mfclt.cli


# ---------------------------------------------------------------------------
# one verified run


def digest(out_dir: Path) -> str:
    """sha256 over the report JSON and CSV bytes (manifests excluded, since
    they carry wall time; the samples_csv_path field is blanked)."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name.endswith(".manifest.json"):
            continue
        data = path.read_bytes()
        if path.suffix == ".json":
            data = _CSV_NAME.sub(b'"samples_csv_path": ""', data)
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def verdict(out_dir: Path, codes: list[int]) -> tuple[bool, bool]:
    """(completed, passed): every command reached a finalized verdict, and
    every verdict was a pass."""
    manifests = sorted(out_dir.glob("*.manifest.json"))
    completed = len(manifests) == len(codes) and all(c in (0, 2) for c in codes)
    passed = completed and all(c == 0 for c in codes)
    for path in manifests:
        man = json.loads(path.read_text(encoding="utf-8"))
        checks = list(man["checks"].values())
        if man["status"] not in ("done", "assertion-failure") or not all(
                isinstance(v, bool) for v in checks):
            completed = passed = False
        passed = passed and man["status"] == "done" and all(checks)
    return completed, passed


def run_once(cli, commands: list[list[str]], seed: int, out_dir: Path,
             on_call=contextlib.nullcontext) -> dict:
    """Run a workload's commands once; time from cli.main entry to return."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    argvs = [cmd + ["--seed", str(seed), "--out-dir", str(out_dir)] for cmd in commands]
    gc.collect()
    codes = []
    t0 = time.perf_counter()
    for argv in argvs:
        with on_call():
            try:
                codes.append(cli.main(argv))
            except Exception:  # a crash is a failed run, not a dead benchmark
                traceback.print_exc()
                codes.append(None)
    wall = time.perf_counter() - t0
    completed, passed = verdict(out_dir, codes)
    return {"wall_s": wall, "codes": codes, "completed": completed,
            "passed": passed, "digest": digest(out_dir)}


# ---------------------------------------------------------------------------
# machine and code record


def src_lines() -> dict[str, int]:
    out = {}
    for mod in MODULES:
        text = (SRC / "mfclt" / f"{mod}.py").read_text(encoding="utf-8")
        out[f"{mod.strip('_')}.src_lines"] = text.count("\n")
    out["total.src_lines"] = sum(out.values())
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def machine_record() -> dict:
    """What must match before two results may be compared."""
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def code_record() -> dict:
    src, bench = hashlib.sha256(), hashlib.sha256()
    for mod in MODULES:
        src.update((SRC / "mfclt" / f"{mod}.py").read_bytes())
    for path in sorted(BENCH_DIR.glob("*.py")):
        bench.update(path.read_bytes())
    return {"git_commit": _git_commit(), "src_sha256": src.hexdigest(),
            "bench_sha256": bench.hexdigest(), **src_lines()}


# ---------------------------------------------------------------------------
# end-to-end and traced measurement


def setup_seconds() -> ReferenceScale:
    """Fresh interpreters that only ``import mfclt.cli``, timed one by one."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import mfclt.cli"]
    scale = None
    for _ in range(SETUP_IMPORTS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120, check=False)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"import mfclt.cli failed: {proc.stderr.decode()[-500:]}")
        if scale is None:  # the first import may compile bytecode; dropped
            scale = ReferenceScale()
        else:
            scale.add(elapsed)
    return scale


# Other tenants of a shared machine can slow it by 40 % for minutes at a
# time, and the wall time of a verified run moves with it.  Timings are
# therefore reported at a reference machine speed: each timed interval is
# bracketed by a fixed calibration kernel and scaled by CAL_REF_S over the
# kernel's time around it.  CAL_REF_S is the kernel's time on an idle
# 2-vCPU Intel Xeon (Python 3.11.7, numpy 2.4.6).  Raw times stay in the record.
CAL_REF_S = 0.015
CAL_REPS = 5
_CAL_DATA = np.random.default_rng(0).normal(size=200_000)


def kernel_time() -> float:
    """Median time of the calibration kernel: numpy sorts and a Python loop."""
    times = []
    for _ in range(CAL_REPS):
        t0 = time.perf_counter()
        for _ in range(5):
            np.sort(_CAL_DATA)
        total = 0
        for i in range(200_000):
            total += i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class ReferenceScale:
    """Raw timed intervals, with the kernel time measured between them."""

    def __init__(self):
        self.raw: list[float] = []
        self.kernel: list[float] = [kernel_time()]

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self.kernel.append(kernel_time())

    def scaled(self) -> list[float]:
        return [t * 2 * CAL_REF_S / (before + after) for t, before, after
                in zip(self.raw, self.kernel, self.kernel[1:])]

    def record(self) -> dict:
        return {"raw": self.raw, "scaled": self.scaled(), "kernel_s": self.kernel}


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> dict:
    """One benchmark run; returns the result object plus its record."""
    # stop before a run that would end past the deadline, so the whole
    # benchmark run, set-up and warm-up included, costs about `seconds`
    deadline = time.perf_counter() + seconds
    commands = WORKLOADS[workload][size]
    cli = import_cli()
    setup = None if trace else setup_seconds()

    work = ROOT / ".bench_out" / workload
    shutil.rmtree(work, ignore_errors=True)
    spans_path = work / "spans.jsonl"
    first = run_once(cli, commands, seed, work / "run")  # warm-up, reference bytes
    runs = [first]
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    wall = None if trace else ReferenceScale()
    step = first["wall_s"] * (2 if trace else 1)
    while (time.perf_counter() + step <= deadline
           or len(untraced) < MIN_TIMED_RUNS):
        res = run_once(cli, commands, seed, work / "run")
        runs.append(res)
        untraced.append(res["wall_s"])
        if not trace:
            wall.add(res["wall_s"])
            continue
        tracer = Tracer(f"{workload}-{seed}-{len(runs)}")
        with Installed(tracer):
            root = tracer.open("workload")
            res = run_once(cli, commands, seed, work / "run",
                           on_call=lambda: tracer.span("cli.main"))
            tracer.close(root)
        tracer.write_jsonl(str(spans_path))
        res["counts"] = dict(tracer.counts)
        runs.append(res)
        traced.append(res["wall_s"])
        layers.append(layer_metrics(tracer, root))

    # a run fails if its verdict fails; at a fixed seed the bytes and the
    # work counts must also repeat exactly
    first_counts = next((r["counts"] for r in runs if "counts" in r), None)
    attempted = len(runs)
    failed = sum(not (r["passed"] and r["digest"] == first["digest"]
                      and r.get("counts", first_counts) == first_counts)
                 for r in runs)
    completed_frac = sum(r["completed"] for r in runs) / attempted
    reproduced_frac = sum(r["digest"] == first["digest"] for r in runs) / attempted
    code = code_record()
    if trace:
        values = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
        values["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(untraced))
        values.update((k, v) for k, v in code.items() if k.endswith(".src_lines"))
    else:
        values = {  # times in seconds at reference speed, not clock seconds
            "wall_s": statistics.median(wall.scaled()),
            "setup_s": statistics.median(setup.scaled()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "completed_frac": completed_frac,
            "reproduced_frac": reproduced_frac,
        }
    specs = SPEC["per_layer" if trace else "end_to_end"]
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in specs},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": size, "commands": commands,
        "machine": machine_record(), "code": code,
        "raw_wall_s": {"median": statistics.median(untraced),
                       "p90": _percentile(untraced, 0.9), "samples": untraced},
        "wall_s_scale": wall.record() if wall else None,
        "setup_s_scale": setup.record() if setup else None,
        "failed_frac": failed / attempted,
        "drift_frac": 1.0 - reproduced_frac,
        "digest": first["digest"],
        "reference_digest": reference_digest(workload, seed, size),
    }
    return {"result": result, "record": record}


def reference_digest(workload: str, seed: int, size: str) -> str | None:
    """The seed commit's digest for this workload and seed, if recorded."""
    if size != "full":
        return None
    try:
        table = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))
    except OSError:
        return None
    return table["workloads"].get(workload, {}).get(str(seed))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    rec = out["record"]
    ref = rec["reference_digest"]
    raw = rec["raw_wall_s"]
    print(f"# {args.workload} seed {args.seed}: raw run time median {raw['median']:.4f} s, "
          f"p90 {raw['p90']:.4f} s, n={len(raw['samples'])}; failed_frac {rec['failed_frac']:.2f}; drift_frac {rec['drift_frac']:.2f}; "
          "seed-commit digest "
          + ("not recorded" if ref is None else
             "match" if ref == rec["digest"] else "MISMATCH"))
    print("record " + json.dumps(rec, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
