#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench` (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), runs it with FZGPU_THREADS=1 and passes its output
through. One pool thread keeps host timings steady on a small shared host,
where a second thread's wake-ups roughly double the run-to-run spread; the
traced run measures the 2-thread fast path on its own. For an untraced
run it adds `peak_rss_mb`, the benchmark process's peak resident set from
wait4(2), to the JSON result line. The host record (cores, LLC, threads,
rustc, git rev) is printed with every run.
Exits non-zero, printing no result, when the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(1)


def tool_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def llc_mib():
    """Last-level cache in MiB (sysconf, then sysfs; 32 when unknown)."""
    try:
        size = os.sysconf("SC_LEVEL3_CACHE_SIZE")
    except (ValueError, OSError):
        size = 0
    if size and size > 0:
        return size / (1 << 20)
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as f:
            text = f.read().strip()
        scale = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}[text[-1]]
        return float(text[:-1]) * scale
    except (OSError, KeyError, ValueError, IndexError):
        return 32.0


def main():
    args = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("benchmark build failed")
    binary = os.path.join(target, "release", "perfbench")

    rev = tool_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else None
    env.update(
        FZGPU_THREADS="1",
        FZGPU_NATIVE="1",
        PERFBENCH_RUSTC=tool_output(["rustc", "--version"]) or "rustc unknown",
        PERFBENCH_GIT_REV=rev or "unknown (not a git checkout)",
    )
    cmd = [binary, *args, "--llc-mb", f"{llc_mib():g}",
           "--out-dir", os.path.join(target, "perfbench-out")]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.rstrip("\n").split("\n") if out else []
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(f"benchmark exited with {proc.returncode}")
    result = json.loads(lines[-1])
    traced = "--trace" in args[:-1] and args[args.index("--trace") + 1] == "1"
    if not traced:
        # ru_maxrss is KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
