#!/usr/bin/env python3
"""Benchmark of gkm jobs: end-to-end job times, or per-layer trace metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload graphs --seed 0 --seconds 10 --trace 0

The workloads, their jobs and the seed rule are in ``perfbench/spec.json``;
the metric names and units are in ``BENCHMARK.json``.  Jobs run back to
back in this process (a closed loop with one caller) against the package
under ``src/`` of the checkout.  Every job is checked: exit code 0, every
CHECK line PASS, and the sha256 of its stdout equal to the digest recorded
in ``perfbench/references.json``; iterated-family jobs must equal
``basis_family`` (computed in a child process) entry by entry, and
their printed values must match the recorded digest.  Checks run after
a job's clocks stop and outside the trace.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics;
any failed job makes the exit code 1.

``--trace 0`` sets up the workload several times in fresh processes
(``setup_s`` is their median) and then times whole passes over the jobs
until ``--seconds`` is used up, reporting medians over passes.  Times
are normalised by the host speed sampled while they ran (see
``HostSpeed``); the raw times are printed beside them.
``--trace 1`` runs one untraced pass and two traced passes, checks that
every call count repeats exactly, writes the spans of the first traced
pass to ``.bench_out/`` and reports the per-layer metrics.

``--smoke`` runs the rank-2 versions of the jobs; ``--record`` rewrites
the reference digests from the current code; ``perfbench/selftest.py``
exercises both modes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = json.loads((HERE / "spec.json").read_text())
WORKLOADS = list(SPEC["workloads"])
COUNT_SUFFIXES = (".calls", ".builds", ".eval_attempts", ".recheck_calls")


# One host-speed sample: a fixed stdlib-only Fraction loop that never
# imports gkmflag, timed by the CPU time of the thread that runs it.
CALIB_ITERS = 300
SAMPLE_PERIOD_S = 0.25
# Cost of one sample on the reference host; normalised times are seconds there.
REFERENCE_SAMPLE_S = 0.0025
# A job with fewer samples inside it uses this many samples nearest to it.
MIN_SAMPLES = 5


def calib_sample() -> float:
    c0 = time.thread_time()
    for i in range(1, CALIB_ITERS + 1):
        Fraction(i, i + 1) * Fraction(i + 2, i + 3) - Fraction(1, i)
    return time.thread_time() - c0


class HostSpeed:
    """Samples the speed of the host while jobs run.

    On a host shared with other tenants one core's speed swings by up to
    1.8x, in phases of seconds to minutes, so raw job times of the same
    work spread by 0.3 over ten runs.  A daemon thread takes a sample
    every SAMPLE_PERIOD_S; the sample slows with the same contention as
    the job it interrupts.  A job's time times REFERENCE_SAMPLE_S over the
    median sample cost while it ran is its time on the reference host.
    The sampler holds the GIL for about 1% of a job's time.
    """

    def __init__(self):
        self.samples = []  # (perf_counter when taken, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self.samples.append((time.perf_counter(), calib_sample()))
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.samples.append((time.perf_counter(), calib_sample()))

    def _run(self):
        while not self._stop.wait(SAMPLE_PERIOD_S):
            self.samples.append((time.perf_counter(), calib_sample()))

    def factor(self, t0: float, t1: float) -> float:
        """Reference over measured speed while [t0, t1] ran."""
        costs = [c for t, c in self.samples if t0 <= t <= t1]
        if len(costs) < MIN_SAMPLES:
            mid = (t0 + t1) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
            costs = [c for _, c in nearest]
        return REFERENCE_SAMPLE_S / statistics.median(costs)

    def median_s(self) -> float:
        return statistics.median(c for _, c in self.samples)


# ----------------------------------------------------------------------
# jobs


class OutputSink(io.TextIOBase):
    """Stands in for a job's stdout: hashes and counts what is written and
    keeps only the CHECK lines that do not read PASS, so that the benchmark
    never holds a job's output."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.nbytes = 0
        self.failed_checks = []
        self._tail = ""  # text after the last newline

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        for i in range(0, len(s), 1 << 16):
            data = s[i:i + (1 << 16)].encode()
            self.digest.update(data)
            self.nbytes += len(data)
        text = self._tail + s if self._tail else s
        start = 0
        while (nl := text.find("\n", start)) >= 0:
            if text.startswith("CHECK ", start) and not text.endswith(": PASS", start, nl):
                self.failed_checks.append(text[start:nl])
            start = nl + 1
        self._tail = text[start:]
        return len(s)


def family_digests(items) -> dict:
    """repr(index) -> sha256 of the printed values of one family entry."""
    return {repr(index): hashlib.sha256("\n".join(map(str, values)).encode()).hexdigest()
            for index, values in items}


def family_digest(digests: dict) -> str:
    """One digest of a whole family, recorded in references.json."""
    lines = "".join(f"{index} {digests[index]}\n" for index in sorted(digests))
    return hashlib.sha256(lines.encode()).hexdigest()


def basis_family_digests(kind: str, rank: int) -> dict:
    """Per-entry digests of ``basis_family``, which iterated families must equal."""
    from gkmflag import invbases
    from gkmflag.rootsys import RootSystem

    ref = invbases.basis_family(RootSystem(kind, rank))
    return family_digests(zip(ref.indices, (c.values for c in ref.classes)))


class Job:
    """One gkm command line or library call, with the key of its reference."""

    def __init__(self, template: dict, seed: int, files: dict):
        self.library = template.get("library")
        self.reference = None  # basis_family_digests(), for iterated-family jobs
        self.command = template.get("run")  # the same for every job seed
        if self.library:
            if self.library != "iterated_family":
                raise ValueError(f"unknown library job {self.library}")
            self.kind, self.rank = template["type"], template["rank"]
            self.key = self.command = f"{self.library} --type {self.kind} --rank {self.rank}"
            self.argv = None
        else:
            text = template["run"].replace("{S}", str(seed))
            self.key = text
            for name, path in files.items():
                text = text.replace("{%s}" % name, str(path))
            self.argv = text.split()

    def run(self):
        """Run the program's part of the job only; return (start, end, result)."""
        if self.library:
            from gkmflag import invbases
            from gkmflag.rootsys import RootSystem

            t0 = time.perf_counter()
            family = invbases.iterated_family(RootSystem(self.kind, self.rank))
            return t0, time.perf_counter(), family
        from gkmflag import cli

        sink = OutputSink()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            rc = cli.main(self.argv)
        return t0, time.perf_counter(), (rc, sink)

    def verify(self, result) -> tuple:
        """(failure or None, sha256 of the result) for a job's result."""
        if self.library:
            got = family_digests((i, cls.values) for i, cls in result.items())
            if got.keys() != self.reference.keys():
                return "iterated family has other indices than basis_family", None
            for index, digest in self.reference.items():
                if got[index] != digest:
                    return f"iterated family differs from basis_family at {index}", None
            return None, family_digest(got)
        rc, sink = result
        if rc != 0:
            return f"exit code {rc}", None
        if sink.failed_checks:
            return f"check failed: {sink.failed_checks[0]}", None
        return None, sink.digest.hexdigest()

    def check(self, result, references: dict):
        """Failure message for a job's result, or None if it is correct."""
        failure, digest = self.verify(result)
        if failure is None:
            failure = reference_mismatch(references, self.key, digest)
        return failure


def reference_mismatch(references: dict, key: str, digest: str):
    want = references.get(key)
    if want is None:
        return "no reference digest recorded"
    if digest != want:
        return f"sha256 {digest} differs from reference {want}"
    return None


def job_seeds(template: dict, seed: int) -> list:
    """Job seeds of a template for the workload seed; see spec.json "seeds"."""
    k = template.get("seeds", 1)
    return [(k * seed + j) % SPEC["seeds"]["job_seeds"] for j in range(k)]


def expand(workload: str, seed: int, smoke: bool, files: dict) -> list:
    prefix = "smoke_" if smoke else ""
    return [Job(t, s, files) for t in SPEC["workloads"][workload][prefix + "jobs"]
            for s in job_seeds(t, seed)]


# ----------------------------------------------------------------------
# set-up


def inputs(workload: str, smoke: bool) -> dict:
    """Input name -> gkm command line that writes it with --out."""
    return SPEC["workloads"][workload][("smoke_" if smoke else "") + "inputs"]


def input_key(name: str, argv: str) -> str:
    return f"{argv} --out {{{name}}}"


def file_sha256(path: Path) -> str:
    """Digest read in small chunks, so that hashing does not raise the peak RSS."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def make_inputs(workload: str, smoke: bool, outdir: Path) -> dict:
    """Import gkmflag and write the workload's input files into outdir."""
    from gkmflag import cli

    files = {}
    for name, argv in inputs(workload, smoke).items():
        path = outdir / f"{name}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv.split() + ["--out", str(path)])
        if rc != 0:
            raise RuntimeError(f"input {name}: gkm {argv} exited {rc}")
        files[name] = path
    return files


def setup(workload: str, smoke: bool, repeats: int, outdir: Path):
    """Set up in fresh processes; return the median normalised and raw
    seconds and the input files.

    Each child samples the host speed while it works and prints the
    median sample cost, which normalises its time.
    """
    times, raw = [], []
    for _ in range(repeats):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
               "--workload", workload, "--out-dir", str(outdir)] + (["--smoke"] if smoke else [])
        t0 = time.perf_counter()
        # no timeout: with one, wait() polls in sleeps of up to 50 ms, which
        # would quantize set-up times of a fraction of a second
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
        raw.append(time.perf_counter() - t0)
        times.append(raw[-1] * REFERENCE_SAMPLE_S / float(out))
    files = {name: outdir / f"{name}.json" for name in inputs(workload, smoke)}
    return statistics.median(times), statistics.median(raw), files


def reference_families(workload: str, smoke: bool) -> dict:
    """Job key -> basis_family_digests of the workload's iterated-family jobs.

    Computed in a child process, so that neither the clocks nor the peak
    RSS of this process include the reference.
    """
    templates = SPEC["workloads"][workload][("smoke_" if smoke else "") + "jobs"]
    if not any("library" in t for t in templates):
        return {}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--reference-child",
           "--workload", workload] + (["--smoke"] if smoke else [])
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out)


# ----------------------------------------------------------------------
# passes


class Gate:
    """Counts attempted and failed checks against the reference digests."""

    def __init__(self, references: dict):
        self.references = references
        self.attempted = 0
        self.failed = 0

    def count(self, what: str, failure):
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            print(f"FAIL {what}: {failure}", file=sys.stderr)


def run_pass(jobs: list, gate: Gate, host: HostSpeed, tracer=None) -> dict:
    """Run every job once; return wall, cpu, slowest job (normalised by
    the host speed, and raw) and stdout bytes.

    Only the program's part of a job is timed (and traced); its check
    runs after the clocks stop, with the tracer paused.  CPU time is that
    of the main thread, which runs the jobs, so the sampler is left out.
    The slowest job is the command with the highest mean over its job
    seeds, so that it does not hinge on the costliest of a few random inputs.
    """
    nbytes = 0
    timed = []  # (command, start, end, cpu seconds)
    for job in jobs:
        gc.collect()
        failure = None
        c0 = time.thread_time()
        try:
            t0, t1, result = job.run()
        except Exception:  # a crashing job is a failed job, not a crashed benchmark
            t0 = t1 = time.perf_counter()
            result, failure = None, traceback.format_exc()
        timed.append((job.command, t0, t1, time.thread_time() - c0))
        print(f"job {t1 - t0:.3f} s {job.key}", flush=True)
        with tracer.paused() if tracer else contextlib.nullcontext():
            if failure is None:
                failure = job.check(result, gate.references)
                if job.argv:
                    nbytes += result[1].nbytes
            del result
        gate.count(job.key, failure)
    out = {"stdout_bytes": nbytes}
    for prefix, factor in (("", host.factor), ("raw.", lambda t0, t1: 1.0)):
        times = {}  # command -> job times
        wall = cpu = 0.0
        for command, t0, t1, c in timed:
            f = factor(t0, t1)
            times.setdefault(command, []).append((t1 - t0) * f)
            wall += (t1 - t0) * f
            cpu += c * f
        out[prefix + "wall_s"] = wall
        out[prefix + "cpu_s"] = cpu
        out[prefix + "slowest_job_s"] = max(statistics.fmean(ts) for ts in times.values())
    return out


def timed_passes(jobs: list, gate: Gate, host: HostSpeed, seconds: float) -> tuple:
    """Whole passes while the next one is expected to end within ``seconds``;
    returns the passes and the peak RSS in MB.

    The peak RSS is read after the first pass, so that it does not depend
    on how many passes fit.
    """
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, gate, host))
        if len(passes) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        typical = statistics.median(p["raw.wall_s"] for p in passes)
        if time.perf_counter() - t0 + typical > seconds:
            return passes, peak_rss_mb


def traced_pass(jobs: list, gate: Gate, host: HostSpeed):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        result = run_pass(jobs, gate, host, tracer)
    finally:
        tracer.uninstall()
    return tracer, result


def layer_metrics(names: list, tracer, stdout_bytes: int) -> dict:
    """Per-layer metrics read off one traced pass, by metric name."""
    from tracer import LAYERS

    special = {
        "parabolic.CosetGraph.builds": lambda: tracer.count("parabolic.CosetGraph.__init__"),
        "parabolic.coset_cache_hit_ratio": lambda: 1 - (
            tracer.count("parabolic.CosetGraph.__init__")
            / max(1, tracer.count("parabolic.build_coset_graph"))),
        "gkmgraph.coh_failure.recheck_calls": tracer.recheck_calls,
        "invbases.verify_basis.eval_attempts": lambda: tracer.count_under(
            "linalg.det_fraction", ancestor="invbases.verify_basis"),
        "cli.stdout_bytes": lambda: stdout_bytes,
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]()
        elif name.endswith(".calls"):
            out[name] = tracer.count(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            base = name[: -len(".self_s")]
            out[name] = tracer.layer_self_s(base) if base in LAYERS else tracer.self_s(base)
    return out


# ----------------------------------------------------------------------
# modes


def measure(args, bench: dict, jobs: list, gate: Gate, host: HostSpeed, setup_s: tuple) -> dict:
    """End-to-end metrics, normalised by the host speed; the raw times are
    printed beside them."""
    passes, peak_rss_mb = timed_passes(jobs, gate, host, args.seconds)
    values = {"setup_s": setup_s[0], "raw.setup_s": setup_s[1], "peak_rss_mb": peak_rss_mb}
    for name in ("wall_s", "slowest_job_s", "cpu_s"):
        for prefix in ("", "raw."):
            values[prefix + name] = statistics.median(p[prefix + name] for p in passes)
    print(f"{len(passes)} passes")
    for name in ("setup_s", "wall_s", "slowest_job_s", "cpu_s"):
        print(f"raw.{name} {values['raw.' + name]} s")
    print(f"host.calib_s {host.median_s()} s")
    return {m["name"]: values[m["name"]] for m in bench["end_to_end"]}


def trace(args, bench: dict, jobs: list, gate: Gate, host: HostSpeed) -> dict:
    plain = run_pass(jobs, gate, host)
    first, r1 = traced_pass(jobs, gate, host)
    path = OUT / f"trace-{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
    first.write(path)
    print(f"{first.nspans()} spans recorded; totals and spans of 1 ms or more "
          f"written to {path.relative_to(ROOT)}")
    names = [m["name"] for m in bench["per_layer"]]
    m1 = layer_metrics(names, first, r1["stdout_bytes"])
    calls1 = dict(zip(first.names, first.calls))
    del first  # frees the spans before the second traced pass
    second, r2 = traced_pass(jobs, gate, host)
    m2 = layer_metrics(names, second, r2["stdout_bytes"])
    moved = [f"{n} {calls1[n]} then {c}" for n, c in zip(second.names, second.calls) if calls1[n] != c]
    moved += [f"{n} {m1[n]} then {m2[n]}" for n in names if n.endswith(COUNT_SUFFIXES) and m1[n] != m2[n]]
    gate.count("call counts repeat across two traced passes",
               f"counts differ: {'; '.join(moved)}" if moved else None)
    values = {}
    for name in names:
        if name.endswith(".self_s"):
            values[name] = statistics.median([m1[name], m2[name]])
        elif name in m1:
            values[name] = m1[name]
    values["trace.overhead_ratio"] = statistics.median([r1["wall_s"], r2["wall_s"]]) / plain["wall_s"]
    values["host.calib_s"] = host.median_s()
    return {name: values[name] for name in names}


def record(args, workdir: Path):
    """Run every job of every workload for every job seed; write the digests."""
    refs = {}
    for smoke in (False, True):
        for workload in WORKLOADS:
            files = make_inputs(workload, smoke, workdir)
            for name, argv in inputs(workload, smoke).items():
                refs[input_key(name, argv)] = file_sha256(files[name])
            prefix = "smoke_" if smoke else ""
            for template in SPEC["workloads"][workload][prefix + "jobs"]:
                seeds = range(SPEC["seeds"]["job_seeds"]) if "{S}" in template.get("run", "") else [0]
                for s in seeds:
                    job = Job(template, s, files)
                    if job.library:
                        job.reference = basis_family_digests(job.kind, job.rank)
                    t0, t1, result = job.run()
                    failure, refs[job.key] = job.verify(result)
                    if failure is not None:
                        raise SystemExit(f"{job.key}: {failure}")
                    print(f"{t1 - t0:8.3f}s  {job.key}", flush=True)
    Path(args.references).write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=SPEC["seeds"]["default"])
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="rank-2 versions of the jobs")
    p.add_argument("--references", default=str(HERE / "references.json"))
    p.add_argument("--record", action="store_true", help="rewrite the reference digests")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--reference-child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--out-dir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "gkmflag" / "__init__.py").is_file():
        print(f"error: no gkmflag package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    if args.setup_child:
        with HostSpeed() as host:
            make_inputs(args.workload, args.smoke, Path(args.out_dir))
        print(host.median_s())
        return 0
    if args.reference_child:
        jobs = expand(args.workload, args.seed, args.smoke, {})
        print(json.dumps({job.key: basis_family_digests(job.kind, job.rank)
                          for job in jobs if job.library}))
        return 0
    if args.workload is None and not args.record:
        p.error("--workload is required")
    workdir = OUT / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.record:
            record(args, workdir)
            return 0
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        gate = Gate(json.loads(Path(args.references).read_text()))
        repeats = 1 if args.trace else SPEC["workloads"][args.workload]["setup_repeats"]
        *setup_s, files = setup(args.workload, args.smoke, repeats, workdir)
        for name, argv in inputs(args.workload, args.smoke).items():
            key = input_key(name, argv)
            gate.count(key, reference_mismatch(gate.references, key, file_sha256(files[name])))
        import gkmflag.cli  # noqa: F401  (so that no job pays for the import)

        jobs = expand(args.workload, args.seed, args.smoke, files)
        references = reference_families(args.workload, args.smoke)
        for job in jobs:
            job.reference = references.get(job.key)
        with HostSpeed() as host:
            if args.trace:
                metrics = trace(args, bench, jobs, gate, host)
            else:
                metrics = measure(args, bench, jobs, gate, host, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"failed_ratio {gate.failed / max(1, gate.attempted)} ratio")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
