"""ydde benchmark.

    python3 bench/run.py --workload verify-fbm --seed 1 --seconds 30 --trace 0

Prints a report line (environment, the workload's own figure, samples and,
when traced, the full layer table) and then, as the last line, the result:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
See bench/README.md for the workloads and what each metric should move.
"""

import argparse
import json
import sys

import bootstrap


def main(argv=None):
    try:
        bootstrap.prepare()
        ydde = bootstrap.import_ydde()
    except (bootstrap.CheckoutError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result, report = harness.run(ydde, args.workload, args.seed,
                                 args.seconds, bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
