"""Benchmark entry point.

    python3 perfbench/run.py --workload mol-export --seed 1 --seconds 25 --trace 0

Run from the repository root. Builds the workload's corpus from the
seed, runs its ``gpgl`` command in-process through ``gpgl.cli.main``
for about ``--seconds`` seconds, checks every output, and prints JSON
lines: the environment, the corpus, any problems found, and last the
result object. ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` runs the command plain, traced and plain again and reports the
per-layer metrics. Each invocation is its own process, so the peak RSS
it reports is that workload's alone. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# One BLAS thread: on a shared 2-core host it gave the steadier step
# times, and it keeps the benchmark within nproc on any host.
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_THREADS = "1"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("mol-export", "dense-layout", "train-cv"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0, help="corpus size factor (smoke tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gpgl" / "cli.py").is_file():
        sys.stderr.write(f"no gpgl sources under {ROOT / 'src'}; run from a repository checkout\n")
        return 2
    os.environ.pop("GPGL_JOBS", None)
    for var in _BLAS_ENV:
        os.environ[var] = _BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))

    import measure

    measure.emit({"environment": measure.environment()})
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = measure.run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, work)
    except RuntimeError as exc:  # set-up failed: no result to report
        sys.stderr.write(f"{exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left only if another run is using it
            work.parent.rmdir()
    measure.emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
