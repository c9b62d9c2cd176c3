"""p3pshare benchmark: one single-threaded, closed-loop process per run.

    python3 perfbench/run.py --workload solve_random --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout. ``--trace 0`` measures the end-to-end metrics
untraced. ``--trace 1`` measures half of ``--seconds`` untraced and half
with every wrapped layer traced, and reports the per-layer metrics and the
tracing overhead. ``--smoke`` runs a reduced input set for the
benchmark's own tests. The last line of standard output is one JSON
object; the lines before it are a readable report. Details, counts and
spans go to ``.bench_out/`` in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools to one thread before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import p3pshare; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="reduced inputs that finish in seconds")
    return p.parse_args(argv)


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# host reference
#
# The shared host switches for seconds to minutes between full speed and
# about two thirds of it, and every kind of code slows together. Each op is
# therefore timed next to a fixed reference kernel, and its time is scaled
# to the kernel's full-speed time: t * REF_NOMINAL_S / t_kernel.

REF_A = np.array([[2.0, 1.0], [1.0, 3.0]])
REF_B = np.array([1.0, 2.0])
REF_M = np.array([[1.0, 0.2, -0.5, 0.3, 0.1, 0.7],
                  [0.4, -1.0, 0.2, 0.9, -0.3, 0.2]])
#: (x - 0.5)(x - 2)(x^2 + x + 1), low order first
REF_QUARTIC = np.array([1.0, -1.5, -0.5, -1.5, 1.0])
#: the reference kernel's warm time on the host where the benchmark was
#: tuned (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4) at full speed
REF_NOMINAL_S = 40e-6


def ref_kernel() -> float:
    """Quartic roots, a small SVD and solve, and Python float arithmetic:
    the same mix of numpy calls and interpreted code as the library's
    per-scene work, but fixed, so that library changes do not move it."""
    s = float(np.linalg.svd(REF_M, compute_uv=False)[1])
    r = float(np.abs(np.linalg.solve(REF_A, REF_B)).max())
    for z in np.polynomial.polynomial.polyroots(REF_QUARTIC):
        if abs(z.imag) < 1e-5:
            s += math.sqrt(abs(z.real) + r)
    for i in range(12):
        s += math.sqrt(i * 1.5 + r)
    return s


def ref_seconds() -> float:
    """The reference kernel's time, the fastest of three back-to-back runs.

    The first run after a long op finds cold caches; the later ones time
    the host's speed rather than what the op left in the caches.
    """
    best = math.inf
    for _ in range(3):
        t = time.perf_counter()
        ref_kernel()
        best = min(best, time.perf_counter() - t)
    return best


def ref_median(n: int = 25) -> float:
    return statistics.median(ref_seconds() for _ in range(n))


def host_reference() -> dict:
    """The reference kernel's rate over 0.2 s: median and best."""
    samples = []
    end = time.perf_counter() + 0.2
    while time.perf_counter() < end:
        samples.append(ref_seconds())
    return {"ref_kernels_per_s_median": 1.0 / statistics.median(samples),
            "ref_kernels_per_s_best": 1.0 / min(samples)}


def host_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the config layout differs across numpy versions
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "cpu": cpu, "nproc": len(os.sched_getaffinity(0))}


def child_import_seconds() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, timeout=120,
                         check=True, cwd=ROOT)
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# measurement

class Segment:
    """Per-op samples and per-item times of one measured stretch."""

    def __init__(self):
        self.calls = 0
        self.item_raw: dict[str, list[float]] = {}    # call seconds
        self.item_norm: dict[str, list[float]] = {}   # scaled to full speed
        self.item_units: dict[str, int] = {}
        self.busy = 0.0
        self.units = 0
        self.item_failed: dict[str, int] = {}   # failed units, first pass
        self.reasons: list[str] = []   # why ops failed
        self.passes = 0
        self.first_counts: dict[str, dict] = {}   # item key -> counts
        self.repeat_mismatch: list[str] = []
        self.layer_passes: list[dict] = []

    def costs(self, raw: bool = False) -> dict[str, float]:
        """Each item's median call time over its repeats."""
        times = self.item_raw if raw else self.item_norm
        return {k: statistics.median(v) for k, v in times.items()}

    def groups(self, items, raw: bool = False) -> dict[str, tuple[int, float]]:
        """{group: (op units, summed item costs in seconds)}."""
        cost = self.costs(raw)
        out: dict[str, tuple[int, float]] = {}
        for it in items:
            units, secs = out.get(it.group or it.key, (0, 0.0))
            out[it.group or it.key] = (units + self.item_units[it.key],
                                       secs + cost[it.key])
        return out

    def unit_latencies_us(self, items, raw: bool = False) -> list[float]:
        """Cost per op unit of each group: one latency sample each."""
        return [1e6 * secs / units
                for units, secs in self.groups(items, raw).values()]

    def checked(self, items) -> tuple[int, int]:
        """(attempted, failed) op units over the distinct inputs.

        Each input is checked on every pass, and its outputs must repeat
        (``repeat_mismatch``), so it is counted once: counting it per pass
        would scale its failures by the number of passes, which follows the
        host's speed rather than the program.
        """
        return (sum(self.item_units[it.key] for it in items),
                sum(self.item_failed[it.key] for it in items))

    def ops_per_s(self, items, raw: bool = False) -> float:
        return (sum(self.item_units[it.key] for it in items)
                / sum(self.costs(raw).values()))


def measure(wl, items, seconds: float, tracer=None) -> Segment:
    """Closed loop over full passes of the items until the time is up.

    The first pass always completes; later passes stop at the deadline.
    Only the op call is timed; checks run between ops.
    """
    seg = Segment()
    deadline = time.perf_counter() + seconds
    clock = time.perf_counter
    done = False
    ref_before = ref_seconds()
    while not done:
        layer_start = tracer.snapshot() if tracer else None
        for n, item in enumerate(items):
            if tracer:
                tracer.context = wl.context(item)
                tracer.begin_op()
            t0 = clock()
            try:
                out = wl.run(item)
                err = None
            except Exception as exc:  # an op that raises is a failed op
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = clock() - t0
            if tracer:
                tracer.end_op()
            ref_after = ref_seconds()
            scale = 2.0 * REF_NOMINAL_S / (ref_before + ref_after)
            ref_before = ref_after
            verdict = wl.check(item, out) if err is None else None
            units = verdict.units if verdict else 1
            seg.busy += dt
            seg.units += units
            seg.calls += 1
            seg.item_raw.setdefault(item.key, []).append(dt)
            seg.item_norm.setdefault(item.key, []).append(dt * scale)
            seg.item_units[item.key] = units
            if verdict is None:
                seg.item_failed.setdefault(item.key, 1)
                seg.reasons.append(f"{item.key}: {err}")
                counts = {"raised": 1}
            else:
                seg.item_failed.setdefault(item.key, verdict.failed)
                if verdict.reason:
                    seg.reasons.append(f"{item.key}: {verdict.reason}")
                counts = {**verdict.counts, "failed": verdict.failed}
            first = seg.first_counts.setdefault(item.key, counts)
            if first != counts:
                seg.repeat_mismatch.append(item.key)
            if n < len(items) - 1 and seg.passes and clock() >= deadline:
                done = True
                break
        else:
            seg.passes += 1
            if tracer:
                seg.layer_passes.append(_delta(layer_start, tracer.snapshot()))
            done = clock() >= deadline
    return seg


def _delta(a: dict, b: dict) -> dict:
    return {part: {k: v - a[part].get(k, 0) for k, v in b[part].items()}
            for part in b}


def total_counts(seg: Segment) -> dict:
    """Deterministic output counts over one full pass of the inputs."""
    tot: dict[str, int] = {}
    for counts in seg.first_counts.values():
        for k, v in counts.items():
            tot[k] = tot.get(k, 0) + v
    return dict(sorted(tot.items()))


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, as numpy's default method."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# per-layer metrics from a traced segment

def layer_metrics(tr, seg: Segment, untraced: Segment, wl, items,
                  counts: dict) -> dict:
    """Every per-layer metric; layers the workload bypasses read 0.

    Span times are scaled to full host speed by the traced segment's mean
    scale (normalized over raw op time).
    """
    from workloads import CAMPAIGNS
    campaign_ids = [tid for tid, _, _ in CAMPAIGNS]
    ops = max(seg.units, 1)
    scale = (sum(map(sum, seg.item_norm.values()))
             / sum(map(sum, seg.item_raw.values())))
    us = lambda name: 1e6 * scale * tr.total.get(name, 0.0) / ops  # noqa: E731
    calls = lambda name: tr.calls.get(name, 0) / ops  # noqa: E731
    c = tr.counts
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    m = {
        "conics.build_conics.us_per_op": (us("conics.build_conics"), "us"),
        "conics.intersect_conics.self_us_per_op": (1e6 * scale * tr.self_time.get(
            "conics.intersect_conics", 0.0) / ops, "us"),
        "conics.resultant_in_u.us_per_op": (us("conics.resultant_in_u"), "us"),
        "conics.newton_polish.calls_per_op": (
            calls("conics.newton_polish"), "count"),
        "conics.newton_polish.us_per_op": (us("conics.newton_polish"), "us"),
        "conics.points_per_op": (c["points"] / ops, "count"),
        "conics.multiplicity2_per_op": (c["multiplicity2"] / ops, "count"),
        "conics.newton_per_point": (ratio(tr.edge_calls.get(
            ("conics.intersect_conics", "conics.newton_polish"), 0),
            c["points"]), "ratio"),
        "solver.solve.us_per_op": (us("solver.solve"), "us"),
        "solver.solve.self_us_per_op": (
            1e6 * scale * tr.self_time.get("solver.solve", 0.0) / ops, "us"),
        "solver.triplet_from_ratio.calls_per_op": (
            calls("solver.triplet_from_ratio"), "count"),
        "solver.solutions_per_op": (c["solutions"] / ops, "count"),
        "solver.repeated_per_op": (c["repeated"] / ops, "count"),
        "solver.kept_ratio": (ratio(c["solutions"], c["points_in_solve"]),
                              "ratio"),
        "sharing.classify_solution_set.us_per_op": (
            us("sharing.classify_solution_set"), "us"),
        "sharing.sharing_residual.calls_per_op": (
            calls("sharing.sharing_residual"), "count"),
        "sharing.companion_check.us_per_op": (
            us("sharing.companion_check"), "us"),
        "sharing.pairs_per_op": (c["pairs"] / ops, "count"),
        "sceneio.parse_scene.us_per_op": (us("sceneio.parse_scene"), "us"),
        "geometry.view_angles_from_center.us_per_op": (
            us("geometry.view_angles_from_center"), "us"),
        "scenes.random_scene.calls_per_op": (
            calls("scenes.random_scene"), "count"),
        "scenes.random_scene.us_per_op": (us("scenes.random_scene"), "us"),
        "loci.sample_locus.calls_per_op": (calls("loci.sample_locus"), "count"),
        "loci.sample_locus.us_per_op": (us("loci.sample_locus"), "us"),
        "loci.cylinder_membership.calls_per_op": (
            calls("loci.cylinder_membership"), "count"),
        "loci.plane_membership.calls_per_op": (
            calls("loci.plane_membership"), "count"),
        "loci.skewed_membership.calls_per_op": (
            calls("loci.skewed_membership"), "count"),
        "solver.recover_centers.calls_per_op": (
            calls("solver.recover_centers"), "count"),
        "scenes.brute_force_solutions.us_per_op": (
            us("scenes.brute_force_solutions"), "us"),
        "scenes.oracle.newton_per_scene": (ratio(tr.edge_calls.get(
            ("scenes.brute_force_solutions", "conics.newton_polish"), 0),
            tr.calls.get("scenes.brute_force_solutions", 0)), "count"),
        "loci.skew_mesh.us": (1e6 * scale * ratio(
            tr.total.get("loci.skew_mesh", 0.0),
            tr.calls.get("loci.skew_mesh", 0)), "us"),
        "loci.skew_mesh.vertices": (ratio(c["mesh_vertices"],
                                          tr.calls.get("loci.skew_mesh", 0)),
                                    "count"),
        "loci.skew_mesh.faces": (ratio(c["mesh_faces"],
                                       tr.calls.get("loci.skew_mesh", 0)),
                                 "count"),
    }
    for tid in campaign_ids:
        trials = sum(it.args[1] for it in items if it.group == tid)
        skip = ratio(counts.get(f"{tid}.skipped", 0), trials)
        share = ratio(tr.in_context.get((tid, "solver.solve"), 0.0),
                      tr.in_context.get((tid, "scenes.verify_theorem"), 0.0))
        m[f"scenes.verify_theorem.{tid}.skip_frac"] = (skip, "ratio")
        m[f"scenes.verify_theorem.{tid}.solve_share"] = (share, "ratio")
    # workload-specific end-to-end figures, from the untraced half
    extra = wl.extra_metrics(untraced.groups(items))
    for tid in campaign_ids:
        key = f"verify.{tid}.trials_per_s"
        m[key] = extra.get(key, (0.0, "1/s"))
    m["oracle_ms_per_scene"] = extra.get("oracle_ms_per_scene", (0.0, "ms"))
    m["mesh_ms"] = extra.get("mesh_ms", (0.0, "ms"))
    traced_t = sum(seg.costs().values())
    plain_t = sum(untraced.costs().values())
    m["trace.overhead_pct"] = (100.0 * (traced_t / plain_t - 1.0), "%")
    m["trace.spans_per_op"] = (tr.n_spans / ops, "count")
    return m


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "p3pshare" / "__init__.py").is_file():
        return fail(f"no p3pshare sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import p3pshare
    if Path(p3pshare.__file__).resolve().parent != SRC / "p3pshare":
        return fail(f"imported p3pshare from {p3pshare.__file__}")
    import workloads
    from spans import Tracer
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    host_before = host_reference()
    wl = workloads.WORKLOADS[args.workload]()

    # set-up: import in a fresh interpreter, generate inputs, warm up; the
    # median of several repeats is reported, scaled to full host speed by
    # the reference kernel timed before and after each repeat
    setup_raw, setup_samples = [], []
    digests = set()
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        ref = ref_median()
        imp = child_import_seconds()
        t = time.perf_counter()
        items = wl.generate(args.seed, args.smoke)
        for item in items[: max(1, len(items) // 20)]:
            wl.run(item)
        raw = imp + time.perf_counter() - t
        setup_raw.append(raw)
        setup_samples.append(raw * 2.0 * REF_NOMINAL_S / (ref + ref_median()))
        digests.add(workloads.digest(items))
    if len(digests) != 1:
        return fail("input generation is not deterministic under one seed")

    if args.trace == 0:
        seg = measure(wl, items, args.seconds)
        traced = tracer = None
    else:
        seg = measure(wl, items, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(wl, items, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    host_after = host_reference()

    counts = total_counts(seg)
    e2e = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (seg.ops_per_s(items), "1/s"),
        "op_p50_us": (quantile(seg.unit_latencies_us(items), 0.50), "us"),
        "op_p99_us": (quantile(seg.unit_latencies_us(items), 0.99), "us"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    extra = wl.extra_metrics(seg.groups(items))
    raw_lat = seg.unit_latencies_us(items, raw=True)
    raw = {"setup_s": statistics.median(setup_raw),
           "ops_per_s": seg.ops_per_s(items, raw=True),
           "op_p50_us": quantile(raw_lat, 0.50),
           "op_p99_us": quantile(raw_lat, 0.99)}

    problems = seg.reasons + (traced.reasons if traced else [])
    problems = list(dict.fromkeys(problems))   # each item fails every pass
    mismatch = list(seg.repeat_mismatch)
    if traced is not None:
        mismatch += traced.repeat_mismatch
        if total_counts(traced) != counts:
            mismatch.append("traced pass counts")
        lp = traced.layer_passes
        if any(p != lp[0] for p in lp[1:]):
            mismatch.append("per-pass layer calls")
    attempted, failed = seg.checked(items)

    # counts must repeat between runs on one seed; compare with the last run
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    counts_file = OUT / f"counts-{tag}.json"
    prev = json.loads(counts_file.read_text()) if counts_file.exists() else None
    counts_repeat = prev is None or prev == counts
    counts_file.write_text(json.dumps(counts, indent=1) + "\n")

    # a failed input is counted in `failed`; the run is incorrect when its
    # checks cannot be trusted: outputs, failures included, did not repeat
    correct = not mismatch
    if args.trace == 0:
        metrics = e2e
    else:
        metrics = layer_metrics(tracer, traced, seg, wl, items, counts)

    info = host_info()
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g}"
          f" trace {args.trace}{' smoke' if args.smoke else ''}")
    print(f"# host {info}")
    print(f"# host reference before {host_before} after {host_after}")
    print(f"# inputs {len(items)} items, digest {digests.pop()}; "
          f"setup samples {[round(s, 4) for s in setup_samples]} "
          f"(raw {[round(s, 4) for s in setup_raw]})")
    print(f"# untraced: {seg.units} ops in {seg.passes} full passes, "
          f"{seg.calls} calls over {len(items)} items, busy {seg.busy:.3f} s")
    if traced is not None:
        print(f"# traced: {traced.units} ops in {traced.passes} full passes, "
              f"{tracer.n_spans} spans, absent wrapped names: "
              f"{tracer.absent or 'none'}")
    print(f"# fail_frac {failed / max(attempted, 1):.6g} "
          f"(failed {failed} of attempted {attempted}, each input once)")
    for line in problems[:10]:
        print(f"# failed: {line}")
    print(f"# deterministic counts per pass: {counts}")
    if mismatch:
        print(f"# COUNTS DID NOT REPEAT within the run: {mismatch[:10]}")
    if not counts_repeat:
        print(f"# COUNTS DIFFER from the previous run on this seed: {prev}")
    print("# as measured, without scaling to full host speed: "
          + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    shown = {**e2e, **extra}
    if args.trace:
        shown.update(metrics)
    for name, (value, unit) in shown.items():
        print(f"# {name} = {value:.6g} {unit}")

    detail = {"args": vars(args), "host": info, "host_reference": {
        "before": host_before, "after": host_after},
        "setup_samples_s": setup_samples, "counts": counts,
        "counts_repeat_within_run": not mismatch,
        "counts_repeat_across_runs": counts_repeat,
        "failures": problems[:100], "attempted": attempted, "failed": failed,
        "end_to_end": {k: v[0] for k, v in {**e2e, **extra}.items()},
        "end_to_end_unscaled": raw,
        "calls": seg.calls, "items": len(items)}
    if tracer is not None:
        detail["per_layer"] = {k: v[0] for k, v in metrics.items()}
        detail["absent"] = tracer.absent
        detail["spans_kept"] = len(tracer.spans)
        detail["spans"] = tracer.spans
    (OUT / f"run-{tag}-trace{args.trace}.json").write_text(
        json.dumps(detail, default=str) + "\n")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
