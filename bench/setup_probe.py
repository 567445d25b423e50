"""Set-up probe: a fresh interpreter that sets up one workload and exits.

    python3 bench/setup_probe.py WORKLOAD SEED SIZES_JSON

Imports ydde from the checkout, loads the workload's scenarios, makes the
first BLAS call and prints ``ready``; the parent times spawn to ``ready``.
"""

import json
import sys

import bootstrap


def main(workload, seed, sizes):
    bootstrap.prepare()
    ydde = bootstrap.import_ydde()
    import harness
    harness.load(ydde, workload, int(seed), harness.Sizes(**json.loads(sizes)))
    print("ready", flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:])
