"""oment benchmark: one command, three workloads, every metric by name and unit.

    python3 bench/run.py --workload figures|threshold|bistable --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; oment is imported from ``src/``.
Each run starts fresh single-threaded worker processes (``worker.py``): a
few that only set up, to measure set-up time, and one that sets up and then
runs timed passes for ``--seconds``.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  The line before it records the environment.

Times are scaled to reference machine speed: timed passes by the kernel in
``calibrate.py``, set-up time by a bare interpreter importing numpy.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Same names as workloads.WORKLOADS; this process imports neither numpy nor
# oment, so that its own start-up stays out of the set-up samples.
WORKLOADS = ("figures", "threshold", "bistable")
SETUP_SAMPLES = 11
TINY_SETUP_SAMPLES = 2
# A run must end within 180 s; leave room for set-up and output checks.
DEADLINE_S = 170.0
SINGLE_THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

# Set-up time drifts with the machine too, but not as the calibration kernel
# does: it is mostly interpreter start-up and the numpy import.  So it is
# scaled by a bare interpreter that imports numpy, started next to each
# set-up sample; IMPORT_REFERENCE_S is that probe's typical time on the
# machine the benchmark was written on.
IMPORT_PROBE = [sys.executable, "-c", "import numpy; print('{\"ready\": {}}', flush=True)"]
IMPORT_REFERENCE_S = 0.14

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(SINGLE_THREAD_ENV)
    return env


def _worker_command(args, seconds: float) -> list[str]:
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
        "--out-dir", str(args.out_dir),
    ]
    return command + ["--tiny"] if args.tiny else command


def _spawn(command: list[str], deadline: float) -> tuple[float, dict]:
    """Run one process that prints JSON lines; return the seconds from start
    to its ``ready`` line, and all its messages.  Raises :class:`BenchError`
    if it fails or overruns the deadline."""
    messages: dict = {}
    ready_s = None
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True)
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(timeout=remaining):
                    raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s run deadline")
                line = proc.stdout.readline()
                if not line:
                    break
                message = json.loads(line)
                if "ready" in message:
                    ready_s = time.perf_counter() - start
                messages.update(message)
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None:
        raise BenchError(f"child process {command[1:3]} exited with code {code}")
    return ready_s, messages


def _environment() -> dict:
    sources = sorted((ROOT / "src" / "oment").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    probe = (
        "import json, numpy; c = numpy.show_config(mode='dicts')['Build Dependencies']['blas'];"
        "print(json.dumps({'numpy': numpy.__version__,"
        " 'blas': c.get('name', '') + ' ' + str(c.get('version', ''))}))"
    )
    numpy_info = json.loads(
        subprocess.run(
            [sys.executable, "-c", probe], env=_child_env(), capture_output=True, text=True,
            timeout=60, check=True,
        ).stdout
    )
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **numpy_info,
        "blas_threads": SINGLE_THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def bench(args) -> dict:
    """Run the set-up-only workers and the measuring worker; return the
    measuring worker's result with the set-up figures added."""
    deadline = time.monotonic() + DEADLINE_S
    args.out_dir = ROOT / ".bench_out"
    args.out_dir.mkdir(exist_ok=True)
    setups: list[float] = []
    references: list[float] = []

    def sample(seconds: float) -> dict:
        references.append(_spawn(IMPORT_PROBE, deadline)[0])
        setup_s, messages = _spawn(_worker_command(args, seconds), deadline)
        setups.append(setup_s)
        return messages

    # Set-up samples before and after the measuring worker, so that they
    # span the run's drift in machine speed.
    samples = TINY_SETUP_SAMPLES if args.tiny else SETUP_SAMPLES
    for _ in range((samples - 1) // 2):
        sample(0)
    messages = sample(args.seconds)
    while len(setups) < samples:
        sample(0)
    if "result" not in messages:
        raise BenchError("worker produced no result")
    result = messages["result"]
    raw_setup_s = statistics.median(setups)
    result["setup_s"] = raw_setup_s * IMPORT_REFERENCE_S / statistics.median(references)
    result["raw_setup_s"] = raw_setup_s
    result["setup_samples_s"] = setups
    result["import_probe_s"] = references
    return result


def _metrics(result: dict, trace: int) -> dict:
    if trace:
        return {name: {"value": v, "unit": u} for name, (v, u) in result["layers"].items()}
    return {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few items per workload, for the benchmark's own smoke test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "oment" / "__init__.py").is_file():
        print(f"error: no oment sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = bench(args)
        environment = _environment()
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info = {key: value for key, value in result.items() if key != "layers"}
    info["failed_frac"] = result["failed"] / result["attempted"]
    print(json.dumps({"environment": environment, "run": info}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": _metrics(result, args.trace),
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
