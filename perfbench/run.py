"""Benchmark of the patchvote retrieval system.

Run from the repository root:

    python3 perfbench/run.py --workload query --seed 0 --seconds 20 --trace 0

Each run builds the index and model (the offline pipeline), writes them
to files and serves queries from those files in a closed loop:
`query` conditions retrieval on the ground-truth category, `query-all`
searches the whole index. With `--trace 0` the last line of standard
output is a JSON object holding the end-to-end metrics; with
`--trace 1` a separate traced run reports the per-layer metrics. The
line before it records the environment, artifact hashes, sample counts
and the result of every output check. BENCHMARK.json names the metrics
and units; README.md in this directory says what each workload and
metric is for.
"""

from __future__ import annotations

import os

# Set before numpy loads. One process and one client: BLAS gets one thread.
# numpy's MADV_HUGEPAGE advice on large arrays is off: whether the kernel
# backs them with 2 MB pages depends on memory fragmentation shared with
# other tenants, and with it on, query latency flipped between two levels
# about 1.5x apart from one process to the next.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"

import argparse
import hashlib
import json
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def git_revision(root: Path) -> str | None:
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_sha256(pkg: Path) -> str:
    """One hash over the package sources, which names the code measured."""
    h = hashlib.sha256()
    for path in sorted(pkg.rglob("*.py")):
        h.update(path.relative_to(pkg).as_posix().encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0))
    return {
        "git_revision": git_revision(ROOT),
        "source_sha256": source_sha256(SRC / "patchvote"),
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"] == "1",
        "load": "closed loop, 1 client, 1 process",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "patchvote" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no patchvote sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import workloads

    env = environment()
    checks = workloads.Checks()
    checks.record("blas_threads_within_nproc", env["blas_threads"] <= env["nproc"])
    out_dir = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    art = workloads.Artifacts(out_dir / "index.p2ci", out_dir / "model.p2cm")
    try:
        fx = workloads.make_fixture()
        if args.trace:
            outcome = workloads.run_traced(args.workload, fx, args.seed, art, checks)
            declared = spec["per_layer"]
        else:
            outcome = workloads.run_untraced(
                args.workload, fx, args.seed, args.seconds, art, checks
            )
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in outcome.metrics]
    if missing:
        print(f"metrics not computed: {missing}", file=sys.stderr)
        return 2
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "checks": checks.results,
        **outcome.info,
    }
    result = {
        "correct": checks.ok,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": float(outcome.metrics[m["name"]]), "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
