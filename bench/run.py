"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload stream2d --seed 0 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See bench/README.md.
"""

import sys

if __name__ == "__main__":
    import bootstrap

    bootstrap.prepare()
    import harness

    sys.exit(harness.main(sys.argv[1:]))
