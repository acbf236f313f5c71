"""The workloads of the distnewton benchmark.

Each workload is a closed loop in one process: synchronous rounds, the next
round starting only after the previous one has finished.  The program is
driven only through `run_experiment` (with a `round_observer`) and
`server_round`, on inputs generated here from the run's seed.

- train_m8 / train_m1: the mnist_tanh preset (784-32-10 tanh MLP on the
  5,000-sample digit surrogate) at m = 8 and m = 1 workers.
- server_300k_m16: `server_round` alone at n = 300,000, m = 16, on reports
  generated from a seeded quadratic outside the timed call.

`run(name, ...)` returns a Result whose metrics are the end-to-end metrics
(untraced run) or the per-layer metrics (traced run).
"""

from __future__ import annotations

import dataclasses
import math
import resource
import statistics
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from distnewton import WorkerReport, harness, linalg, load_config, operator, run_experiment
from distnewton.objectives import Batch, MlpObjective, MlpSpec

from spans import Tracer, by_name, self_time_in_windows, self_times

PRESET = "configs/mnist_tanh.cfg"

# The layer spans must cover at least this share of the traced rounds'
# wall time; the rest is loop code between the calls.  Above 1 means
# spans overlap, which would be a tracing bug.
COVERAGE_MIN = 0.9
COVERAGE_MAX = 1.01

# Each run needs this many warm rounds so that ten lie beyond p90.
MIN_WARM_ROUNDS = 100

# Per-layer metrics computed from array shapes, not measured traffic.
COMPUTED = ("data.gather_bytes", "operator.center_bytes", "linalg.gram_gflops")


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)  # name -> value
    info: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # traced runs only

    def passed(self, count: int):
        """Count operations that completed without a failure."""
        self.attempted += count

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def derive(seed: int, *keys: int) -> int:
    """An independent 31-bit seed for one use of the run's seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0] & 0x7FFFFFFF)


def percentiles_ms(seconds: list) -> tuple[float, float]:
    p50, p90 = np.percentile(np.asarray(seconds) * 1e3, [50, 90])
    return float(p50), float(p90)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def layer_tracer() -> Tracer:
    """Spans around each layer's public functions, where their callers look them up."""
    t = Tracer()
    t.add(harness, "synthetic_blobs", "data.generate")
    t.add(harness, "shard", "data.shard")
    t.add(harness._WorkerFeed, "batch", "data.gather")
    t.add(MlpObjective, "gradient", "objectives.grad")
    t.add(MlpObjective, "value", "objectives.eval")
    t.add(harness, "worker_round", "harness.worker")
    t.add(harness, "server_round", "harness.server")
    t.add(harness, "center_reports", "operator.center")
    t.add(harness, "build_operator", "operator.build")
    t.add(operator, "apply", "operator.apply")
    t.add(operator, "thin_svd_via_gram", "linalg.thin_svd")
    t.add(linalg, "gram", "linalg.gram")
    t.add(linalg, "sym_eig", "linalg.eig")
    return t


def peak_alloc_mn(reports, server_args) -> float:
    """tracemalloc peak of one server_round, in units of 8*m*n bytes."""
    n, m = reports[0].theta.shape[0], len(reports)
    tracemalloc.start()
    try:
        harness.server_round(reports, *server_args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8.0 * m * n)


def layer_metrics(spans, rounds: int, epochs: int, samples: int, n: int, m: int) -> dict:
    """Per-layer times per round (per epoch for shard and eval), from spans.

    Byte counts and GFLOP/s are computed from array shapes, not measured
    traffic.
    """
    t = by_name(spans, self_times(spans))

    def total(name):
        return t.get(name, {}).get("total_s", 0.0)

    def own(name):
        return t.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    def per_round_ms(seconds):
        return 1e3 * seconds / rounds

    def per_epoch_ms(seconds):
        return 1e3 * seconds / epochs if epochs else 0.0

    gram_s = total("linalg.gram")
    return {
        "data.gather_ms": per_round_ms(total("data.gather")),
        "data.gather_calls": calls("data.gather") / rounds,
        "data.shard_ms": per_epoch_ms(total("data.shard")),
        "objectives.grad_ms": per_round_ms(total("objectives.grad")),
        "objectives.grad_calls": calls("objectives.grad") / rounds,
        "objectives.grad_us_per_sample": 1e6 * total("objectives.grad") / samples if samples else 0.0,
        "objectives.eval_ms": per_epoch_ms(total("objectives.eval")),
        "harness.worker_self_ms": per_round_ms(own("harness.worker")),
        "harness.worker_calls": calls("harness.worker") / rounds,
        "harness.server_ms": per_round_ms(total("harness.server")),
        "harness.loop_self_ms": per_round_ms(own("harness.loop")),
        "operator.center_ms": per_round_ms(total("operator.center")),
        # reads the 2m report vectors, writes two centered n x m matrices and two means
        "operator.center_bytes": 8.0 * (4 * m * n + 2 * n),
        "operator.build_self_ms": per_round_ms(own("operator.build")),
        "operator.apply_ms": per_round_ms(total("operator.apply")),
        "linalg.gram_ms": per_round_ms(gram_s),
        # G'G computed as a full (m x n)(n x m) product: 2 n m^2 flops per call
        "linalg.gram_gflops": 2.0 * n * m * m * calls("linalg.gram") / gram_s / 1e9 if gram_s else 0.0,
        "linalg.eig_ms": per_round_ms(total("linalg.eig")),
        "linalg.eig_calls": calls("linalg.eig") / rounds,
        "linalg.left_vectors_ms": per_round_ms(own("linalg.thin_svd")),
    }


def coverage(spans, windows, skip: str | None) -> float:
    """Share of the windows' wall time covered by layer self times."""
    wall = sum(end - start for start, end in windows)
    return self_time_in_windows(spans, self_times(spans), windows, skip) / wall


def check_coverage(res: Result, share: float):
    res.info["trace_coverage"] = share
    res.check(
        COVERAGE_MIN <= share <= COVERAGE_MAX,
        f"layer self times cover {share:.3f} of the round wall time, outside [{COVERAGE_MIN}, {COVERAGE_MAX}]",
    )


def overhead(untraced: dict, traced: dict) -> dict:
    """Traced minus untraced, absolute and as a share of the untraced value."""
    return {
        key: {
            "untraced": untraced[key],
            "traced": traced[key],
            "change": traced[key] - untraced[key],
            "change_share": (traced[key] - untraced[key]) / untraced[key],
        }
        for key in untraced
    }


# --------------------------------------------------------------------------
# Training workloads


@dataclass(frozen=True)
class TrainSpec:
    m: int
    target_nll: float  # full-train NLL that time_to_target_s waits for
    subseeds: int  # harness seeds (init, shard order, jitter) per run; the data is the preset's


TRAIN = {
    "train_m8": TrainSpec(m=8, target_nll=0.5, subseeds=6),
    "train_m1": TrainSpec(m=1, target_nll=0.5, subseeds=24),
}
TRAIN_SETUPS = 7


@dataclass
class Experiment:
    subseed: int
    status: str
    epochs: int
    wall_s: float
    rounds: int
    samples: int
    warm_round_s: list  # rounds after the first of each epoch
    windows: list  # (start, end) of those rounds
    epoch_s: list  # last round of one epoch to the last of the next: eval, shard, rounds
    epochs_to_target: float  # nan when the target was not reached
    init_nll: float
    final_nll: float
    js: list


class TrainRun:
    def __init__(self, spec: TrainSpec, root, seed: int, res: Result):
        self.spec = spec
        self.res = res
        self.preset = root / PRESET
        self.seed = seed
        self.finals: dict = {}  # subseed -> first final NLL seen
        self.last_reports: list = []  # reports of the latest round

    def setup(self) -> float:
        """Config and dataset for the run; returns the seconds it took."""
        self.dataset = None
        t0 = perf_counter()
        cfg = dataclasses.replace(load_config(self.preset), m=self.spec.m)
        self.dataset = harness.load_dataset(cfg)
        self.objective = MlpObjective(MlpSpec(tuple(cfg.mlp_layers), cfg.activation))
        took = perf_counter() - t0
        self.cfgs = [dataclasses.replace(cfg, seed=derive(self.seed, i)) for i in range(self.spec.subseeds)]
        return took

    def initial_nlls(self):
        full = Batch(self.dataset.inputs, self.dataset.labels)
        self.init = [
            self.objective.value(harness.initial_theta(cfg, self.objective), full) for cfg in self.cfgs
        ]

    def cold_first_round_ms(self) -> float:
        """A one-epoch run; its first round is the process's cold round."""
        stamps = []
        t0 = perf_counter()
        hist = run_experiment(
            dataclasses.replace(self.cfgs[0], epochs=1),
            dataset=self.dataset,
            round_observer=lambda *_: stamps.append(perf_counter()),
        )
        self.res.check(hist.status == harness.STATUS_COMPLETED, "warm-up run diverged")
        self.res.passed(len(stamps))
        return 1e3 * (stamps[0] - t0)

    def experiment(self, subseed: int, threads: int = 1, tracer: Tracer | None = None) -> Experiment:
        cfg = self.cfgs[subseed]
        stamps, js = [], []

        def observer(epoch, rnd, theta_read, reports, theta_new, stats):
            stamps.append((epoch, perf_counter()))
            js.append(stats.j)
            self.last_reports = reports

        installed = tracer.installed() if tracer else nullcontext()
        root = tracer.span("harness.loop") if tracer else nullcontext()
        t0 = perf_counter()
        with installed, root:
            hist = run_experiment(cfg, dataset=self.dataset, threads=threads, round_observer=observer)
        wall = perf_counter() - t0

        pairs = [(a[1], b[1]) for a, b in zip(stamps, stamps[1:]) if a[0] == b[0]]
        epoch_end = {epoch: t for epoch, t in stamps}
        ends = [epoch_end[e] for e in sorted(epoch_end)]
        to_target = math.nan
        prev_v, target = self.init[subseed], self.spec.target_nll
        for done, rec in enumerate(hist.records, start=1):
            if rec.train_nll <= target:
                # linear between the two evaluations that bracket the target
                to_target = done - 1 + (prev_v - target) / (prev_v - rec.train_nll)
                break
            prev_v = rec.train_nll
        exp = Experiment(
            subseed=subseed,
            status=hist.status,
            epochs=len(hist.records),
            wall_s=wall,
            rounds=len(stamps),
            samples=len(stamps) * cfg.global_batch * (cfg.local_steps + 1),
            warm_round_s=[b - a for a, b in pairs],
            windows=pairs,
            epoch_s=[b - a for a, b in zip(ends, ends[1:])],
            epochs_to_target=to_target,
            init_nll=self.init[subseed],
            final_nll=hist.final_nll,
            js=js,
        )
        self._check(exp)
        return exp

    def _check(self, exp: Experiment):
        res = self.res
        res.passed(exp.rounds)
        tag = f"subseed {exp.subseed}"
        res.check(exp.status == harness.STATUS_COMPLETED, f"{tag}: run {exp.status}")
        res.check(
            math.isfinite(exp.final_nll) and exp.final_nll < exp.init_nll,
            f"{tag}: final NLL {exp.final_nll} not finite and below the initial {exp.init_nll}",
        )
        res.check(math.isfinite(exp.epochs_to_target), f"{tag}: NLL target {self.spec.target_nll} not reached")
        first = self.finals.setdefault(exp.subseed, exp.final_nll)
        res.check(
            exp.final_nll == first or (math.isnan(first) and math.isnan(exp.final_nll)),
            f"{tag}: repeat gave final NLL {exp.final_nll!r}, first run gave {first!r}",
        )

    def phase(self, subseeds, seconds: float, min_runs: int, threads=1, tracer=None) -> list:
        """Experiments cycling through `subseeds` for `seconds`, at least `min_runs`."""
        exps = []
        t0 = perf_counter()
        while len(exps) < min_runs or perf_counter() - t0 < seconds:
            exps.append(self.experiment(subseeds[len(exps) % len(subseeds)], threads, tracer))
        return exps


def throughput(exps) -> dict:
    """Median over experiments of samples per wall second, and p50 round time."""
    warm = [s for e in exps for s in e.warm_round_s]
    p50, _ = percentiles_ms(warm)
    return {"samples_per_s": statistics.median(e.samples / e.wall_s for e in exps), "round_ms_p50": p50}


def run_train(name: str, root, seed: int, seconds: float, trace: bool) -> Result:
    spec = TRAIN[name]
    res = Result()
    run = TrainRun(spec, root, seed, res)
    setup_tracer = layer_tracer()
    setups = []
    for _ in range(TRAIN_SETUPS):
        with setup_tracer.installed() if trace else nullcontext():
            setups.append(run.setup())
    run.initial_nlls()
    ds = run.dataset
    cfg = run.cfgs[0]
    res.info.update(
        setup_s_each=setups,
        target_nll=spec.target_nll,
        subseeds=spec.subseeds,
        array_bytes={
            "dataset_inputs": ds.inputs.nbytes,
            "dataset_labels": ds.labels.nbytes,
            "theta": 8 * run.objective.dim,
            "report_matrix_n_by_m": 8 * run.objective.dim * spec.m,
        },
    )
    cold_ms = run.cold_first_round_ms()
    res.info["cold_first_round_ms"] = cold_ms
    n, m = run.objective.dim, spec.m

    if not trace:
        exps = run.phase(list(range(spec.subseeds)), seconds, min_runs=spec.subseeds + 1)
        warm = [s for e in exps for s in e.warm_round_s]
        p50, p90 = percentiles_ms(warm)
        # Epochs to target are deterministic per harness seed; wall time
        # enters as the median epoch, so one slow stretch cannot shift it.
        to_target = [next(e.epochs_to_target for e in exps if e.subseed == i) for i in range(spec.subseeds)]
        epoch_s = statistics.median(s for e in exps for s in e.epoch_s)
        res.metrics = {
            "setup_s": statistics.median(setups),
            "samples_per_s": throughput(exps)["samples_per_s"],
            "round_ms_p50": p50,
            "round_ms_p90": p90,
            "time_to_target_s": statistics.fmean(to_target) * epoch_s,
            "final_nll": statistics.fmean(run.finals[i] for i in range(spec.subseeds)),
            "peak_rss_mb": peak_rss_mb(),
        }
        res.info.update(
            experiments=len(exps),
            warm_rounds=len(warm),
            final_nll_each=[run.finals[i] for i in range(spec.subseeds)],
            epochs_to_target_each=to_target,
            epoch_s_median=epoch_s,
        )
        return res

    # Traced run: untraced at threads=1 and 2, then traced at threads=1,
    # all on the first harness seed so the phases do identical work.
    quarter = seconds / 4.0
    base = run.phase([0], quarter, min_runs=1, threads=1)
    pooled = run.phase([0], quarter, min_runs=1, threads=2)
    tracer = layer_tracer()
    traced = run.phase([0], 2 * quarter, min_runs=1, threads=1, tracer=tracer)
    rounds = sum(e.rounds for e in traced)
    epochs = sum(e.epochs for e in traced)
    samples = sum(e.samples for e in traced)
    metrics = layer_metrics(tracer.spans, rounds, epochs, samples, n, m)
    features = run.dataset.feature_count
    generate = [end - start for name, start, end, _ in setup_tracer.spans if name == "data.generate"]
    metrics.update(
        {
            # inputs (features float64) and labels (int64) of every gathered sample
            "data.gather_bytes": (features + 1) * 8.0 * cfg.global_batch * (cfg.local_steps + 1),
            "data.generate_s": statistics.median(generate),
            "harness.first_round_ms": cold_ms,
            "harness.pool_speedup": throughput(pooled)["samples_per_s"] / throughput(base)["samples_per_s"],
            "operator.j_mean": statistics.fmean(j for e in traced for j in e.js),
            "operator.peak_alloc_mn": peak_alloc_mn(
                run.last_reports, (cfg.lam, cfg.server_tau, cfg.use_lr_cap, cfg.aggregator)
            ),
        }
    )
    res.metrics = metrics
    res.info["computed_from_shapes"] = COMPUTED
    check_coverage(res, coverage(tracer.spans, [w for e in traced for w in e.windows], skip="harness.loop"))
    res.info.update(
        tracing_overhead=overhead(throughput(base), throughput(traced)),
        traced_rounds=rounds,
        phase_experiments={"untraced_1": len(base), "untraced_2": len(pooled), "traced_1": len(traced)},
    )
    res.spans = tracer.spans
    return res


# --------------------------------------------------------------------------
# Server workload


@dataclass(frozen=True)
class ServerSpec:
    n: int = 300_000
    m: int = 16
    lam: float = 0.1
    tau: float = 1.0
    rounds: int = 25  # rounds of one descent from theta0
    target_share: float = 0.03  # time_to_target_s: objective at this share of its start
    curvature_min: float = 0.01  # D is log-spaced over [curvature_min, 1]
    spectrum_ratio: float = 0.7  # designed singular values of centered G: ratio**k
    noise: float = 1e-6  # gradient noise per entry, far below the spectrum's gaps


SERVER = {"server_300k_m16": ServerSpec()}
SERVER_SETUPS = 5
# theta_new of one round must match the np.linalg.svd reference to this
# share of the step length ||theta_ref - theta_bar||.  The Gram route
# squares the condition number of the retained directions (at most
# 1/lambda^2 = 100), so its error is near 100 eps; 1e-8 leaves room for
# a less exact eigensolver without hiding a wrong operator.
REFERENCE_RTOL = 1e-8


class QuadraticReports:
    """m worker reports on f(theta) = 0.5 (theta - theta*)' D (theta - theta*).

    Worker k reports theta_k = theta + d_k and grad_k = D (theta_k -
    theta*) + noise_k.  The displacements are chosen so that D d_k are the
    columns of L diag(sigma) W', with L (n x m-1) and W (m x m-1)
    orthonormal and W orthogonal to the ones vector: the reports are
    centered around theta and the centered gradients have the designed
    spectrum sigma.  So the operator's rank j is known in advance.
    """

    def __init__(self, spec: ServerSpec, seed: int):
        rng = np.random.default_rng(derive(seed, 2))
        n, m = spec.n, spec.m
        self.m = m
        self.curvature = np.geomspace(1.0, spec.curvature_min, n)[rng.permutation(n)]
        self.theta_star = rng.standard_normal(n)
        self.theta0 = self.theta_star + rng.standard_normal(n)
        self.sigma = spec.spectrum_ratio ** np.arange(m - 1)
        left = np.linalg.qr(rng.standard_normal((n, m - 1)))[0]
        mixing = rng.standard_normal((m, m - 1))
        right = np.linalg.qr(mixing - mixing.mean(axis=0))[0]
        spread = np.asfortranarray((left * self.sigma) @ right.T)
        del left
        self.displacement = spread / self.curvature[:, None]
        spread += spec.noise * rng.standard_normal((n, m))
        self.grad_offset = spread
        self.j_expected = int(np.sum(self.sigma >= spec.lam * self.sigma[0]))

    def reports(self, theta) -> list:
        g = self.curvature * (theta - self.theta_star)
        return [
            WorkerReport(theta + self.displacement[:, k], g + self.grad_offset[:, k]) for k in range(self.m)
        ]

    def value(self, theta) -> float:
        e = theta - self.theta_star
        return 0.5 * float(e @ (self.curvature * e))


def reference_step(thetas, grads, lam: float, tau: float):
    """The server step rebuilt from np.linalg.svd of the centered G; the
    n x m report matrices are centered in place."""
    theta_bar, g_bar = thetas.mean(axis=1), grads.mean(axis=1)
    thetas -= theta_bar[:, None]
    grads -= g_bar[:, None]
    u, s, vt = np.linalg.svd(grads, full_matrices=False)
    j = int(np.sum(s >= lam * s[0])) if s[0] > 0 else 0
    ys = thetas @ vt[:j].T
    alpha = u[:, :j].T @ g_bar
    step = g_bar - u[:, :j] @ alpha + ys @ (alpha / s[:j])
    return theta_bar - tau * step, theta_bar, j


@dataclass
class Descent:
    round_s: list
    windows: list
    js: list
    rounds_to_target: float  # nan when the target was not reached


class ServerRun:
    def __init__(self, spec: ServerSpec, seed: int, res: Result):
        self.spec = spec
        self.seed = seed
        self.res = res
        self.finals: list = []

    def setup(self) -> float:
        self.gen = None
        t0 = perf_counter()
        self.gen = QuadraticReports(self.spec, self.seed)
        return perf_counter() - t0

    def server_args(self):
        return (self.spec.lam, self.spec.tau, False, "distnewton")

    def cold_round_and_reference(self) -> float:
        """Time the process's first server_round, then check it against the
        np.linalg.svd reference.  Drops the generator, so that the check
        needs less memory than a round; call setup() again after it."""
        j_expected = self.gen.j_expected
        reports = self.gen.reports(self.gen.theta0)
        t0 = perf_counter()
        theta_new, stats = harness.server_round(reports, *self.server_args())
        cold = perf_counter() - t0
        thetas = np.column_stack([r.theta for r in reports])
        grads = np.column_stack([r.grad for r in reports])
        del reports
        self.gen = None
        ref, theta_bar, j_ref = reference_step(thetas, grads, self.spec.lam, self.spec.tau)
        err = float(np.linalg.norm(theta_new - ref) / np.linalg.norm(ref - theta_bar))
        self.res.info["reference"] = {"relative_error": err, "rtol": REFERENCE_RTOL, "j_svd": j_ref}
        self.res.check(err <= REFERENCE_RTOL, f"theta_new differs from the SVD reference by {err:.3e} of the step")
        self.res.check(
            stats.j == j_ref == j_expected,
            f"reference round: j = {stats.j}, SVD j = {j_ref}, designed j = {j_expected}",
        )
        return 1e3 * cold

    def descent(self, tracer: Tracer | None = None) -> Descent:
        gen, spec, res = self.gen, self.spec, self.res
        theta = gen.theta0
        f0 = gen.value(theta)
        target = spec.target_share * f0
        times, windows, js = [], [], []
        prev_f, to_target = f0, math.nan
        with tracer.installed() if tracer else nullcontext():
            for done in range(1, spec.rounds + 1):
                reports = None  # one round's reports alive at a time, as in the server
                reports = gen.reports(theta)
                t0 = perf_counter()
                theta_new, stats = harness.server_round(reports, *self.server_args())
                t1 = perf_counter()
                times.append(t1 - t0)
                windows.append((t0, t1))
                js.append(stats.j)
                res.check(
                    bool(np.all(np.isfinite(theta_new))) and stats.j == gen.j_expected,
                    f"round gave j = {stats.j} (designed {gen.j_expected}) or non-finite theta",
                )
                theta = theta_new
                f = gen.value(theta)
                if math.isnan(to_target) and f <= target:
                    # linear between the two rounds that bracket the target
                    to_target = done - 1 + (prev_f - target) / (prev_f - f)
                prev_f = f
        res.check(math.isfinite(to_target), f"objective target {spec.target_share} of start not reached")
        final = gen.value(theta)
        first = self.finals[0] if self.finals else final
        self.finals.append(final)
        res.check(final == first, f"repeat descent ended at {final!r}, first at {first!r}")
        return Descent(times, windows, js, to_target)

    def phase(self, seconds: float, min_rounds: int, tracer=None) -> list:
        out = []
        t0 = perf_counter()
        while sum(len(d.round_s) for d in out) < min_rounds or perf_counter() - t0 < seconds:
            out.append(self.descent(tracer))
        return out


def server_throughput(descents, m: int) -> dict:
    """Median over descents of reports absorbed per server second, and p50 round time."""
    times = [t for d in descents for t in d.round_s]
    return {
        "samples_per_s": statistics.median(m * len(d.round_s) / sum(d.round_s) for d in descents),
        "round_ms_p50": percentiles_ms(times)[0],
    }


def run_server(name: str, seed: int, seconds: float, trace: bool) -> Result:
    spec = SERVER[name]
    res = Result()
    run = ServerRun(spec, seed, res)
    setups = [run.setup()]
    cold_ms = run.cold_round_and_reference()
    setups += [run.setup() for _ in range(SERVER_SETUPS - 1)]
    n, m = spec.n, spec.m
    res.info.update(
        setup_s_each=setups,
        designed_sigma=run.gen.sigma.tolist(),
        j_expected=run.gen.j_expected,
        target_share=spec.target_share,
        array_bytes={"theta": 8 * n, "report_matrix_n_by_m": 8 * n * m, "generator_state": 8 * n * (2 * m + 3)},
    )
    res.info["cold_first_round_ms"] = cold_ms

    if not trace:
        descents = run.phase(seconds, MIN_WARM_ROUNDS)
        times = [t for d in descents for t in d.round_s]
        p50, p90 = percentiles_ms(times)
        res.metrics = {
            "setup_s": statistics.median(setups),
            "samples_per_s": server_throughput(descents, m)["samples_per_s"],
            "round_ms_p50": p50,
            "round_ms_p90": p90,
            # rounds to target are deterministic; wall time enters as the median round
            "time_to_target_s": descents[0].rounds_to_target * statistics.median(times),
            "final_nll": run.finals[0],
            "peak_rss_mb": peak_rss_mb(),
        }
        res.info.update(descents=len(descents), warm_rounds=len(times), rounds_to_target=descents[0].rounds_to_target)
        return res

    base = run.phase(seconds / 3.0, 1)
    tracer = layer_tracer()
    traced = run.phase(2.0 * seconds / 3.0, 1, tracer)
    rounds = sum(len(d.round_s) for d in traced)
    metrics = layer_metrics(tracer.spans, rounds, 0, 0, n, m)
    metrics.update(
        {
            "data.gather_bytes": 0.0,
            "data.generate_s": 0.0,
            "harness.first_round_ms": cold_ms,
            "harness.pool_speedup": 0.0,
            "operator.j_mean": statistics.fmean(j for d in traced for j in d.js),
            "operator.peak_alloc_mn": peak_alloc_mn(run.gen.reports(run.gen.theta0), run.server_args()),
        }
    )
    res.metrics = metrics
    res.info["computed_from_shapes"] = COMPUTED
    check_coverage(res, coverage(tracer.spans, [w for d in traced for w in d.windows], skip=None))
    res.info.update(
        tracing_overhead=overhead(server_throughput(base, m), server_throughput(traced, m)),
        traced_rounds=rounds,
    )
    res.spans = tracer.spans
    return res


def run(name: str, root, seed: int, seconds: float, trace: bool) -> Result:
    if name in TRAIN:
        return run_train(name, root, seed, seconds, trace)
    return run_server(name, seed, seconds, trace)
