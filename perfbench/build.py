"""Build file of the benchmark package.

Compiles the program's main sources (src/main/scala, plus the resources in
src/main/resources that register the `airphant` data source) together with
the benchmark's own sources (perfbench/src, perfbench/resources) into one jar,
using the Scala compiler that ships with the Spark distribution the project
builds against. No sbt and no dependency resolution. Then it records a
class-data-sharing archive from one self-test run, which cuts JVM and Spark
start-up of every later run by a few seconds. Everything lands in
`.bench_build/perfbench/` of the checkout and is rebuilt only when a source
file changes.

    python3 perfbench/build.py          # build if stale, print the jar
"""

import glob
import hashlib
import os
import re
import shutil
import subprocess
import sys
import time
import zipfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
JAR = os.path.join(BUILD_DIR, "perfbench.jar")
CDS = os.path.join(BUILD_DIR, "perfbench.jsa")
STAMP = os.path.join(BUILD_DIR, "perfbench.sha256")
OUT = os.path.join(BUILD_DIR, "out")

MAIN_SRC = os.path.join(ROOT, "src", "main", "scala")
MAIN_RES = os.path.join(ROOT, "src", "main", "resources")
BENCH_SRC = os.path.join(BENCH_DIR, "src")
BENCH_RES = os.path.join(BENCH_DIR, "resources")


class BuildError(Exception):
    pass


def spark_jars():
    """The directory of Spark jars: $SPARK_HOME/jars, else the project's
    `unmanagedBase` from build.sbt."""
    home = os.environ.get("SPARK_HOME")
    if home and os.path.isdir(os.path.join(home, "jars")):
        return os.path.join(home, "jars")
    sbt = os.path.join(ROOT, "build.sbt")
    if os.path.isfile(sbt):
        with open(sbt, encoding="utf-8") as f:
            m = re.search(r'unmanagedBase\s*:=\s*file\("([^"]+)"\)', f.read())
        if m and os.path.isdir(m.group(1)):
            return m.group(1)
    raise BuildError("no Spark jars: set SPARK_HOME or declare unmanagedBase in build.sbt")


def _files(base, pattern):
    return sorted(glob.glob(os.path.join(base, "**", pattern), recursive=True))


def sources():
    main = _files(MAIN_SRC, "*.scala")
    bench = _files(BENCH_SRC, "*.scala")
    if not main:
        raise BuildError(f"no program sources under {os.path.relpath(MAIN_SRC, ROOT)}")
    if not bench:
        raise BuildError(f"no benchmark sources under {os.path.relpath(BENCH_SRC, ROOT)}")
    return main + bench


def resources():
    """(absolute path, path inside the class dir) of every resource file."""
    out = []
    for base in (MAIN_RES, BENCH_RES):
        for p in _files(base, "*"):
            if os.path.isfile(p):
                out.append((p, os.path.relpath(p, base)))
    return out


def _digest(srcs, res, jars):
    h = hashlib.sha256()
    h.update(jars.encode())
    for p in srcs + [r[0] for r in res]:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


# Spark on Java 17 needs these modules opened (as spark-submit does).
_OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
          "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
          "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
          "sun.util.calendar"]


def java_env():
    """The JVM's environment: Spark's scratch space stays in the checkout."""
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, SPARK_LOCAL_DIRS=tmp)


def java_cmd(jars, main_args, extra=()):
    """The JVM command line of a benchmark run."""
    tmp = os.path.join(OUT, "tmp")
    cmd = ["java", "-Xmx3g", "-XX:-UsePerfData", "-Xlog:disable", "-Xlog:all=warning:stderr",
           f"-Djava.io.tmpdir={tmp}", "-Djdk.reflect.useDirectMethodHandle=false",
           "-Dio.netty.tryReflectionSetAccessible=true"]
    cmd += [f"--add-opens=java.base/{m}=ALL-UNNAMED" for m in _OPENS]
    cmd += list(extra)
    cmd += ["-cp", os.pathsep.join([JAR, os.path.join(jars, "*")]),
            "repro.perfbench.Main", "--out", OUT] + list(main_args)
    return cmd


def _compile(jars, srcs, res, log):
    classes = os.path.join(BUILD_DIR, "classes.tmp")
    shutil.rmtree(classes, ignore_errors=True)
    os.makedirs(classes)
    print(f"[perfbench] compiling {len(srcs)} Scala files ...", file=log, flush=True)
    t0 = time.time()
    cmd = ["java", "-Xss16m", "-Xmx2g", "-XX:-UsePerfData", "-cp", os.path.join(jars, "*"),
           "scala.tools.nsc.Main", "-nowarn", "-d", classes,
           "-classpath", os.path.join(jars, "*")] + srcs
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise BuildError("scalac failed:\n" + proc.stdout[-8000:])
    with zipfile.ZipFile(JAR + ".tmp", "w", zipfile.ZIP_DEFLATED) as z:
        for p in _files(classes, "*"):
            if os.path.isfile(p):
                z.write(p, os.path.relpath(p, classes))
        for src, rel in res:
            z.write(src, rel)
    shutil.rmtree(classes, ignore_errors=True)
    os.replace(JAR + ".tmp", JAR)
    print(f"[perfbench] compiled in {time.time() - t0:.1f} s", file=log, flush=True)


def _record_cds(jars, log):
    """Record the classes one self-test run loads; a failed recording only
    costs start-up time, so it warns and goes on."""
    t0 = time.time()
    tmp = CDS + ".tmp"
    cmd = java_cmd(jars, ["--selftest"], extra=[f"-XX:ArchiveClassesAtExit={tmp}"])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                          timeout=600, env=java_env(), cwd=ROOT)
    if proc.returncode == 0 and os.path.isfile(tmp):
        os.replace(tmp, CDS)
        print(f"[perfbench] class-data archive recorded in {time.time() - t0:.1f} s",
              file=log, flush=True)
    else:
        print("[perfbench] warning: no class-data archive; self-test output:\n"
              + proc.stdout[-4000:], file=log, flush=True)


def ensure_built(log=sys.stderr):
    """Build if any source changed since the last build; return the Spark
    jar directory."""
    jars = spark_jars()
    srcs, res = sources(), resources()
    digest = _digest(srcs, res, jars)
    if os.path.isfile(JAR) and os.path.isfile(STAMP):
        with open(STAMP) as f:
            if f.read().strip() == digest:
                return jars
    os.makedirs(BUILD_DIR, exist_ok=True)
    for p in (STAMP, CDS):
        if os.path.exists(p):
            os.remove(p)
    _compile(jars, srcs, res, log)
    _record_cds(jars, log)
    with open(STAMP, "w") as f:
        f.write(digest + "\n")
    return jars


if __name__ == "__main__":
    try:
        ensure_built()
    except BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
    print(JAR)
