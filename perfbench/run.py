#!/usr/bin/env python3
"""Build and run the pvmigrate benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chaos-sweep --seed 1 --seconds 20 --trace 0

The script compiles the Go program in perfbench/ against the checkout's own
sources and runs it with the same arguments. Every build and run artefact
(the Go build cache, temporary files, the benchmark binary, journals and the
per-run result files) stays under the build directory: $CARGO_TARGET_DIR
when set, otherwise .bench_build, relative to the checkout root. The
program prints the workload's report lines and, as its last line, one JSON
object with the run's result. The exit code is the program's, or 2 when the
checkout cannot be built.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.join(ROOT, "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    for need in ("go.mod", os.path.join("internal", "sim"), os.path.join("perfbench", "go.mod")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("run from the root of a pvmigrate checkout (missing %s)" % need)
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
        # The go command keeps telemetry counters under the user config
        # directory; point it into the build directory too.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        fail("build failed")
    proc = subprocess.Popen([binary, "--build-dir", build] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
