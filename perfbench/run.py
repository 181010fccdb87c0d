"""kgeolab benchmark: one workload per invocation, or all four in turn.

    python3 perfbench/run.py --workload study-canonical --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  The program is not installed: every
kgeolab process gets ``src`` on PYTHONPATH and runs as
``python -m kgeolab.cli``.

Untraced (``--trace 0``): each round times one fresh interpreter that
imports ``kgeolab.cli`` and loads the config (set-up), then one fresh
``kgeolab`` process running the workload, from launch to exit, with its
peak resident memory.  Traced (``--trace 1``): the same command runs in
this process through ``cli.main`` with the layer wrappers of ``layers.py``
installed.  Rounds repeat until ``--seconds`` have passed (at least two,
for the determinism check); the metrics are medians over rounds.  Every
round's artifacts are checked (``checks.py``) and compared byte for byte,
timestamps aside, with the first round's.  The last stdout line is the
JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

from checks import CheckFailed, artifact_digests, make_checks
from workloads import WORKLOADS

WORK_DIR = ".perfbench_work"
MIN_ROUNDS = 2
#: no round starts after this many seconds, so a slow host still ends in time
ROUND_CUTOFF_S = 120.0
#: a process still running this long after the benchmark started is killed
RUN_DEADLINE_S = 170.0
SETUP_PROBE = "import sys\nimport kgeolab.cli as cli\ncli.load_config(sys.argv[1])\n"
IMPORT_PROBE = (
    "import time\nt = time.perf_counter()\nimport kgeolab.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)
KGEOLAB = [sys.executable, "-m", "kgeolab.cli"]
STARTED = time.perf_counter()
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _children(pid: int) -> list:
    kids = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        with contextlib.suppress(OSError, ValueError):
            kids += [int(tok) for tok in (task / "children").read_text().split()]
    return kids


def _hwm_kb(pid: int) -> int:
    with contextlib.suppress(OSError):
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class TreeWatch(threading.Thread):
    """Samples the peak RSS of a process and its descendants; kills them on timeout."""

    def __init__(self, proc: subprocess.Popen, timeout: float):
        super().__init__(daemon=True)
        self.proc = proc
        self.deadline = time.perf_counter() + timeout
        self.done = threading.Event()
        self.main_kb = 0
        self.worker_kb: dict = {}

    def run(self) -> None:
        while not self.done.wait(0.05):
            if time.perf_counter() > self.deadline:
                for pid in [*self.worker_kb, self.proc.pid]:
                    with contextlib.suppress(OSError):
                        os.kill(pid, signal.SIGKILL)
                return
            self.main_kb = max(self.main_kb, _hwm_kb(self.proc.pid))
            todo = _children(self.proc.pid)
            while todo:
                pid = todo.pop()
                self.worker_kb[pid] = max(self.worker_kb.get(pid, 0), _hwm_kb(pid))
                todo += _children(pid)


def _time_left() -> float:
    return max(1.0, RUN_DEADLINE_S - (time.perf_counter() - STARTED))


def run_process(cmd: list, env: dict, log: Path) -> tuple:
    """(wall seconds, exit code, peak RSS in kB of the process and its workers)."""
    with open(log, "ab") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=sink, stderr=subprocess.STDOUT, env=env)
        watch = TreeWatch(proc, _time_left())
        watch.start()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        watch.done.set()
        watch.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak_kb = max(usage.ru_maxrss, watch.main_kb + sum(watch.worker_kb.values()))
    return elapsed, proc.returncode, peak_kb


class Bench:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = WORKLOADS[workload]
        self.work = root / WORK_DIR / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.log = self.work / "kgeolab.log"
        config = self.workload.make_config(root, seed)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        self.checks = make_checks(self.workload.checks, config)
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("KGEOLAB_")}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.first_digests = None

    def cli_argv(self, out_dir: Path, args=None) -> list:
        """kgeolab arguments running the workload (or ``args``) into out_dir."""
        args = self.workload.args if args is None else args
        return [*args, "--config", str(self.config_path), "--out", str(out_dir)]

    def fresh_out(self, label: str) -> Path:
        out = self.work / label
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        return out

    def check(self, out_dir: Path) -> None:
        """Independent checks, then byte-identity with the first round."""
        try:
            for check in self.checks:
                check(out_dir)
        except (OSError, KeyError, ValueError) as exc:  # missing or malformed artifact
            raise CheckFailed(f"unreadable artifact: {exc!r}") from exc
        digests = artifact_digests(out_dir)
        if self.first_digests is None:
            self.first_digests = digests
        elif digests != self.first_digests:
            differ = sorted(set(digests.items()) ^ set(self.first_digests.items()))
            raise CheckFailed(f"artifacts differ between repetitions: {sorted({n for n, _ in differ})}")
        shutil.rmtree(out_dir)

    def check_thread_twin(self) -> None:
        """verify at one thread must give the rows the threaded rounds gave."""
        out = self.fresh_out("single_thread")
        _, rc, _ = run_process(KGEOLAB + self.cli_argv(out, self.workload.thread_twin), self.env, self.log)
        if rc != 0:
            raise CheckFailed(f"single-thread verify exited {rc}")
        names = ("verify_results.csv", "verify_report.json")
        twin = artifact_digests(out, names)
        if twin != {n: self.first_digests[n] for n in names}:
            raise CheckFailed("verify results depend on the thread count")
        shutil.rmtree(out)

    def rounds(self, seconds: float, one_round) -> tuple:
        """Whole rounds until the time is up, or until a check fails.

        ``one_round(i)`` returns (metrics, output directory), with metrics
        None when the kgeolab command failed.  Returns (attempted, failed,
        samples, check failure message or None).
        """
        attempted = failed = 0
        samples = []
        start = time.perf_counter()
        while attempted < MIN_ROUNDS or (
            time.perf_counter() - start < min(seconds, ROUND_CUTOFF_S)
        ):
            attempted += 1
            sample, out = one_round(attempted)
            if sample is None:
                failed += 1
                continue
            samples.append(sample)
            try:
                self.check(out)
            except CheckFailed as exc:
                return attempted, failed, samples, str(exc)
        return attempted, failed, samples, None

    def untraced(self, seconds: float) -> tuple:
        # untimed: compiles the bytecode cache on a fresh checkout
        self.setup_probe()

        def one_round(i):
            setup_s = self.setup_probe()
            out = self.fresh_out(f"round{i}")
            run_s, rc, peak_kb = run_process(KGEOLAB + self.cli_argv(out), self.env, self.log)
            if rc != 0:
                print(f"perfbench: round {i} exited {rc}; see {self.log}", file=sys.stderr)
                return None, out
            return {"run_s": run_s, "setup_s": setup_s, "peak_rss_mb": peak_kb / 1024.0}, out

        return self.rounds(seconds, one_round)

    def setup_probe(self) -> float:
        elapsed, rc, _ = run_process([sys.executable, "-c", SETUP_PROBE, str(self.config_path)], self.env, self.log)
        if rc != 0:
            raise RuntimeError(f"set-up probe exited {rc}; see {self.log}")
        return elapsed

    def import_probe(self) -> float:
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=self.env, capture_output=True, text=True,
            timeout=_time_left(), check=True,
        )
        return float(done.stdout.split()[-1])

    def traced(self, seconds: float) -> tuple:
        sys.path.insert(0, str(self.root / "src"))
        import kgeolab.cli as cli
        from layers import METRICS, Tracer, install

        tracer = Tracer()
        install(tracer)
        walls = []
        self.import_probe()  # untimed, as in untraced(): fills the bytecode cache

        def one_round(i):
            import_s = self.import_probe()
            out = self.fresh_out(f"round{i}")
            tracer.reset()
            cpu0, wall0 = time.process_time(), time.perf_counter()
            with open(self.log, "a") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(self.cli_argv(out))
            cpu_s, wall = time.process_time() - cpu0, time.perf_counter() - wall0
            if rc != 0:
                print(f"perfbench: round {i} exited {rc}; see {self.log}", file=sys.stderr)
                return None, out
            walls.append(wall)
            sample = tracer.snapshot()
            sample.update({"cli.import_s": import_s, "cli.cpu_s": cpu_s})
            return sample, out

        attempted, failed, samples, problem = self.rounds(seconds, one_round)
        varying = [
            name for name, unit in METRICS
            if unit != "s" and len({s.get(name, 0.0) for s in samples}) > 1
        ]
        if problem is None and varying:
            problem = f"solver counts differ between repetitions: {varying}"
        if walls:
            print(f"perfbench: traced cli.main wall time, median {statistics.median(walls):.4f} s",
                  file=sys.stderr)
        return attempted, failed, samples, problem


def run_workload(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "kgeolab" / "cli.py").is_file():
        print("perfbench: src/kgeolab not found; run from the repository root", file=sys.stderr)
        return 2
    bench = Bench(root, args.workload, args.seed)
    if args.trace:
        from layers import METRICS as names
        attempted, failed, samples, problem = bench.traced(args.seconds)
    else:
        names = END_TO_END
        attempted, failed, samples, problem = bench.untraced(args.seconds)
    if problem is None and bench.workload.thread_twin and bench.first_digests is not None:
        try:
            bench.check_thread_twin()
        except CheckFailed as exc:
            problem = str(exc)
    if problem is not None:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if not samples:
        print("perfbench: no round succeeded", file=sys.stderr)
        return 1
    metrics = {
        name: {"value": statistics.median(s.get(name, 0.0) for s in samples), "unit": unit}
        for name, unit in names
    }
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} rounds: {attempted} attempted, {failed} failed; "
          f"outputs {'correct' if problem is None else 'WRONG'}")
    result = {"correct": problem is None, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table of the end-to-end metrics."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"{name}: exited {done.returncode}")
            results[name] = None
            continue
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
