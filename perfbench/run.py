#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Builds perfbench/perfbench.exe with dune (the first run in a fresh
checkout compiles the libraries it links), prints the host, then runs the
executable.  Its standard output is passed through; the last line is the
JSON result.  The exit code is the executable's: non-zero on any wrong
output, and non-zero without a result line when the build or the run
cannot happen (for example outside a full checkout).
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["ring-dl1024", "chaos-ecc160", "sharded-dltest64"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_bounded(cmd, timeout, **kwargs):
    """Run cmd in its own process group; on timeout kill the whole group
    and wait for it.  Returns (returncode, stdout) or (None, stdout)."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return None, out


def host_line():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "host: nproc=%d cpu=%s" % (os.cpu_count() or 0, model)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: %s is not a checkout of the repository "
              "(no dune-project or lib/)" % ROOT, file=sys.stderr)
        return 2

    # No shared dune cache: the build stays inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled", PPGR_JOBS="1")
    rc, _ = run_bounded(
        ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
        BUILD_TIMEOUT_S, cwd=ROOT, env=env, stdout=sys.stderr)
    if rc != 0:
        print("perfbench: build failed (%s)" % rc, file=sys.stderr)
        return 3

    print(host_line(), flush=True)
    rc, out = run_bounded(
        [EXE, "--workload", args.workload, "--seed", args.seed,
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        RUN_TIMEOUT_S, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if rc is None:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    return rc


if __name__ == "__main__":
    sys.exit(main())
