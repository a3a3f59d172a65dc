#!/usr/bin/env python3
"""Runs the EMST / HDBSCAN* benchmark on one workload.

    python3 emstbench/run.py --heap 4g --workload emst-7d-uniform \
        --seed 14 --seconds 20 --trace 0

Run it from the root of a checkout. It builds the program and the
benchmark from source with sbt, unless neither their sources nor their
compiled classes changed since its last build, then runs the workload in
one fresh JVM with the given heap. The
last line of standard output is the JSON result; the line before it
records the host and the configuration. See emstbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
TARGET = HERE / "target"
CLASSPATH = TARGET / "classpath.txt"
STAMP = TARGET / "build-stamp.txt"

# Every input of the two builds: the program's and the benchmark's.
BUILD_INPUTS = [
    (ROOT, ["build.sbt", "project/*.properties", "project/*.sbt", "project/*.scala",
            "src/main/**/*", "jobs/**/*"]),
    (HERE, ["build.sbt", "project/*.properties", "src/**/*"]),
]

# Module opens Spark needs on JDK 17, as the repository's build passes them.
JVM_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
              "sun.util.calendar"]
]

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"emstbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_hash():
    h = hashlib.sha256()
    for base, patterns in BUILD_INPUTS:
        files = sorted({p for pat in patterns for p in base.glob(pat) if p.is_file()})
        for f in files:
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def classes_fingerprint(classpath):
    """Path, size and mtime of every file in the classpath's directories.

    Any other build that writes the same class directories (a root `sbt
    compile` or `sbt test`) changes it, so the stamp no longer matches and
    sbt decides again what is stale.
    """
    h = hashlib.sha256()
    for entry in sorted(classpath.split(os.pathsep)):
        d = pathlib.Path(entry)
        if d.is_dir():
            for f in sorted(p for p in d.rglob("*") if p.is_file()):
                st = f.stat()
                h.update(f"{f}\0{st.st_size}\0{st.st_mtime_ns}\n".encode())
    return h.hexdigest()


def stamp(classpath):
    return source_hash() + "\n" + classes_fingerprint(classpath)


def run_group(cmd, timeout, **kw):
    """Runs `cmd` in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} timed out after {timeout} s")
    return proc.returncode, out


def build():
    """Builds with sbt unless the last build saw the same sources and left
    the same class files."""
    if CLASSPATH.is_file() and STAMP.is_file():
        classpath = CLASSPATH.read_text().strip()
        if STAMP.read_text() == stamp(classpath):
            return classpath
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    tmp = TARGET / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    code, _ = run_group(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         f"-Djava.io.tmpdir={tmp}", "-J-XX:-UsePerfData", "writeClasspath"],
        BUILD_TIMEOUT_S, cwd=HERE, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr)
    if code != 0 or not CLASSPATH.is_file():
        fail(f"sbt build failed (exit {code})")
    classpath = CLASSPATH.read_text().strip()
    STAMP.write_text(stamp(classpath))
    print(f"emstbench: built in {time.time() - t0:.1f} s", file=sys.stderr)
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--heap", required=True, help="JVM heap, e.g. 4g (-Xms = -Xmx)")
    ap.add_argument("--trace-out", help="also write the traced run's spans to this JSON file")
    args = ap.parse_args()

    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no program sources next to {HERE.name}/ (build.sbt, src/main/scala)")
    classpath = build()

    tmp = TARGET / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # A fixed, pre-touched heap and the throughput collector: in probes on a
    # 4-core host, G1 made par runs of emst-7d-uniform ~1.4x slower and
    # every run noisier (README, "JVM settings").
    cmd = ["java", f"-Xms{args.heap}", f"-Xmx{args.heap}", "-XX:+AlwaysPreTouch",
           "-XX:+UseParallelGC", "-XX:-UsePerfData", *JVM_OPENS,
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={HERE / 'log4j2.properties'}",
           "-cp", classpath, "repro.perf.EmstBench",
           "--workload", args.workload, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace_out:
        cmd += ["--trace-out", str(pathlib.Path(args.trace_out).resolve())]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(tmp))
    code, out = run_group(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True)
    if code != 0:
        sys.stderr.write(out)
        fail(f"benchmark JVM exited with {code}")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(out)
        fail("the last output line is not a result")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
