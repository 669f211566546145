"""List the seeds on which each workload's world cannot be built.

    python3 bench/seeds.py [first] [last]    # default 0 99

`make_world` raises InfeasibleSpec when no construction attempt meets the
spec's margins; `bench/run.py` then measures the next seed up that builds
and names the ones it passed over. This script calls only `make_world`, so
it scans a hundred seeds in seconds.
"""

from __future__ import annotations

import sys

from run import WORKLOADS, buildable, load_package, pin_threads


def infeasible_seeds(cli, settings, seeds) -> list[int]:
    return [seed for seed in seeds if not buildable(cli, settings, seed)]


def main(argv: list[str]) -> int:
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 99)
    pin_threads()
    cli = load_package()
    for name, workload in WORKLOADS.items():
        bad = infeasible_seeds(cli, workload.settings, range(first, last + 1))
        print(f"{name}: seeds {first}-{last}, infeasible: {bad or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
