#!/usr/bin/env python3
"""Builds the MDCC benchmark from source and runs one workload.

    python3 perfbench/run.py --workload hot-commute --seed 1 --seconds 8 --trace 0

Run it from the repository root. Everything the build and the run
write (Go build cache, binaries, server data directories) stays under
.bench_build/ in the repository root, or under $CARGO_TARGET_DIR when
that is set. The last line of standard output is the result JSON; see
perfbench/README.md.
"""
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    bindir = os.path.join(build, "bin")
    tmp = os.path.join(build, "tmp")
    for d in (bindir, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomod"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    # The benchmark module builds the repository's own packages through
    # a replace directive; without the repository around it the build
    # fails and no result is printed.
    b = subprocess.run(["go", "build", "-o", bindir + os.sep,
                        "./bench", "./server", "mdcc/cmd/mdcc-server"],
                       cwd=HERE, env=env, stdout=sys.stderr)
    if b.returncode != 0:
        print("benchmark: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(bindir, "bench"), "--bin-dir", bindir,
           "--work", os.path.join(build, "work"), "--src", ROOT] + sys.argv[1:]
    # The benchmark and the servers it starts share a new process group,
    # so whatever outlives it is reaped here.
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)

    def forward(sig, _frame):
        p.send_signal(sig)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    rc = p.wait()
    reap(p.pid)
    return rc


def reap(pgid):
    """SIGKILLs what is left of the process group and waits until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


if __name__ == "__main__":
    sys.exit(main())
