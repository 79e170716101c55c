"""Benchmark of the diffnet command-line pipeline.

Runs one workload (see ``workloads.py``) through the real CLI,
``diffnet.cli.main`` called with an argv list, in this one process with
``DIFFNET_WORKERS=1`` and single-threaded BLAS. Stages run back to back
(a closed loop with one client). The whole pipeline is repeated until
``--seconds`` are used up and each time metric is the median over the
repetitions. Outputs of the first repetition are checked (``checks.py``);
every later repetition must produce byte-identical files.

    python3 perfbench/run.py --workload many-small --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics, the
exact work counts and ``trace.overhead_s``; its spans are written to
``.perfbench_work/traces/``. ``--write-reference`` stores the outputs of
this seed as the reference later runs of the seed are compared with.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when the outputs are correct, 1 when they are not and 2 when the
benchmark could not run.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "DIFFNET_WORKERS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["many-small", "medium-overlap", "hub-stress"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this seed's outputs as the reference")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "diffnet" / "__init__.py").is_file():
        print(f"perfbench: no diffnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in THREAD_VARIABLES:  # before numpy loads its BLAS
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    return harness.run(args, import_s=time.perf_counter() - START, root=ROOT)


if __name__ == "__main__":
    sys.exit(main())
