"""Set-up time of one fresh process: import qvpmaps.cli, build its parser and
make a first call.  Prints the seconds on stdout.

Usage: python3 perfbench/probe.py OUTPUT_CSV
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main():
    out = sys.argv[1]
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    from qvpmaps import cli

    cli.build_parser()
    rc = cli.main(["fixed-points", "--alpha", "0", "--tau", "-0.3", "--out", out])
    elapsed = time.perf_counter() - t0
    if rc != 0 or not cli.__file__.startswith(os.path.join(SRC, "qvpmaps")):
        sys.exit(f"set-up probe failed: exit {rc}, qvpmaps from {cli.__file__}")
    print(repr(elapsed))


if __name__ == "__main__":
    main()
