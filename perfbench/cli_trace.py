"""`csoc run all` with every scenario runner timed, for the traced cli-default run.

Run like `python -m csoc.cli` (from a checkout root with PYTHONPATH=src):

    python3 perfbench/cli_trace.py run all --out-dir DIR --seed N

It behaves as the CLI does and exits with its code, then prints one JSON
line: the seconds spent in each scenario runner and in the whole `run`.
"""

import json
import sys
import time

from csoc import cli


def main() -> int:
    scenario_s = {}

    def timed(name, runner):
        def run(cfg):
            t0 = time.perf_counter()
            try:
                return runner(cfg)
            finally:
                scenario_s[name] = scenario_s.get(name, 0.0) + time.perf_counter() - t0
        return run

    for name, runner in list(cli.RUNNERS.items()):
        cli.RUNNERS[name] = timed(name, runner)
    t0 = time.perf_counter()
    code = cli.main(sys.argv[1:])
    run_s = time.perf_counter() - t0
    print(json.dumps({"scenario_s": scenario_s, "run_s": run_s}), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
