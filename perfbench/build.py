#!/usr/bin/env python3
"""Builds the program and the benchmark from source.

    python3 perfbench/build.py [BUILD_DIR]

Run from the repository root. Compiles the repository's `src/main/scala` and
the benchmark's `perfbench/src/main/scala` in one scalac pass into
BUILD_DIR/classes (default: $CARGO_TARGET_DIR/perfbench, else
.bench_build/perfbench). It uses the same jars the repository's build.sbt
compiles against (its `unmanagedBase`, the Spark distribution's jars, which
include the Scala 2.13 compiler), so it needs only `java` and no dependency
resolution. A build is skipped while no source file has changed.
"""

import hashlib
import os
import re
import shutil
import subprocess
import sys

SOURCES = ["src/main/scala", "perfbench/src/main/scala"]
COMPILER_HEAP = "1536m"


def java_bin():
    home = os.environ.get("JAVA_HOME")
    if home and os.path.isfile(os.path.join(home, "bin", "java")):
        return os.path.join(home, "bin", "java")
    found = shutil.which("java")
    if not found:
        raise RuntimeError("java not found: set JAVA_HOME or put java on PATH")
    return found


def jar_dir(root):
    """The directory of jars the repository's build.sbt compiles against."""
    with open(os.path.join(root, "build.sbt")) as fh:
        m = re.search(r'Compile\s*/\s*unmanagedBase\s*:=\s*file\("([^"]+)"\)', fh.read())
    if not m:
        raise RuntimeError("build.sbt sets no Compile / unmanagedBase")
    d = m.group(1)
    if not (os.path.isdir(d) and any(f.startswith("scala-compiler") for f in os.listdir(d))):
        raise RuntimeError(f"{d} (build.sbt's unmanagedBase) holds no Scala compiler jar")
    return d


def source_files(root):
    files = []
    for src in SOURCES:
        for d, _, fs in os.walk(os.path.join(root, src)):
            files += [os.path.join(d, f) for f in fs if f.endswith(".scala")]
    if not files:
        raise RuntimeError(f"no Scala sources under {SOURCES}")
    return sorted(files)


def source_hash(root, files, jars):
    h = hashlib.sha256(jars.encode())
    for f in files:
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def build(root, work, timeout_s):
    """Compiles when a source changed since the last build. Returns
    (runtime classpath, whether it compiled). Raises RuntimeError on failure."""
    java, jars = java_bin(), jar_dir(root)
    files = source_files(root)
    state = source_hash(root, files, jars)
    classes = os.path.join(work, "classes")
    stamp = os.path.join(work, "build.stamp")
    classpath = os.pathsep.join([classes, os.path.join(jars, "*")])
    if os.path.exists(stamp):
        with open(stamp) as fh:
            if fh.read().strip() == state:
                return classpath, False
        os.remove(stamp)
    shutil.rmtree(classes, ignore_errors=True)
    os.makedirs(classes)
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    argfile = os.path.join(work, "sources.txt")
    with open(argfile, "w") as fh:
        fh.write("\n".join(files) + "\n")
    cmd = [java, f"-Xmx{COMPILER_HEAP}", "-Xss8m", f"-Djava.io.tmpdir={tmp}",
           "-cp", os.path.join(jars, "*"), "scala.tools.nsc.Main",
           "-usejavacp", "-deprecation", "-d", classes, "@" + argfile]
    log_path = os.path.join(work, "build.log")
    with open(log_path, "w") as log:
        try:
            code = subprocess.run(cmd, cwd=root, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout_s).returncode
        except subprocess.TimeoutExpired:
            code = None
    if code != 0:
        with open(log_path) as fh:
            sys.stderr.write("".join(fh.readlines()[-40:]))
        raise RuntimeError(f"scalac failed (exit {code}); see {log_path}")
    with open(stamp, "w") as fh:
        fh.write(state + "\n")
    return classpath, True


def default_work(root):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(os.path.join(root, build_dir)), "perfbench")


if __name__ == "__main__":
    root = os.getcwd()
    work = os.path.abspath(sys.argv[1]) if len(sys.argv) > 1 else default_work(root)
    os.makedirs(work, exist_ok=True)
    try:
        cp, compiled = build(root, work, 850)
    except RuntimeError as e:
        print(f"perfbench build: {e}", file=sys.stderr)
        sys.exit(2)
    print(("compiled; " if compiled else "up to date; ") + "classpath " + cp)
