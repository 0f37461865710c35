"""Set-up probe: a fresh interpreter imports scatterfit.cli and builds a workload's inputs.

    python3 bench/setup_probe.py <workload> <seed> [--tiny]

run.py starts this several times per run and times each process from the
outside; the process itself prints {"import_s": ..., "build_s": ...}, the
time of the package import and of resolving the configs and synthesizing the
first cycle's observations.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    t0 = time.perf_counter()
    import scatterfit.cli  # noqa: F401  (the import is what is timed)

    t1 = time.perf_counter()
    if not Path(scatterfit.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"scatterfit was imported from {scatterfit.cli.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import Workload

    Workload(name, seed, ROOT, tiny="--tiny" in argv[2:])
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
