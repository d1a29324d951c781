#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

The benchmark is the Go module in this directory. It is built from
source into .bench_build/ under the repository root, with the Go build
cache kept there too, and then run with the arguments given here. The
exit code is the benchmark's. Without the repository's sources around
this directory the build fails and nothing is printed on standard
output.
"""

import os
import shutil
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    for need in ("go.mod", "internal", os.path.join("examples", "scenarios")):
        if not os.path.exists(os.path.join(root, need)):
            sys.stderr.write(f"perfbench: {need} not found under {root}; run from the repository root\n")
            return 2
    go = shutil.which("go") or "/usr/local/go/bin/go"
    build = os.path.join(root, BUILD_DIR)
    home = os.path.join(build, "home")
    os.makedirs(home, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOFLAGS": "",
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run([go, "build", "-buildvcs=false", "-o", binary, "."],
                           cwd=here, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if built.returncode != 0:
        sys.stderr.write(built.stdout.decode(errors="replace"))
        sys.stderr.write("perfbench: build failed\n")
        return 1
    child = subprocess.Popen([binary, "-root", root] + sys.argv[1:], cwd=root)

    def stop(signum, frame):
        child.terminate()

    signal.signal(signal.SIGTERM, stop)
    try:
        return child.wait()
    except KeyboardInterrupt:
        child.terminate()
        return child.wait()


if __name__ == "__main__":
    sys.exit(main())
