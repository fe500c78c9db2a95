"""Benchmark of streetinv, one workload per process.

    python3 bench/run.py --workload district_5km --seed 1 --seconds 55 --trace 0

Runs from the root of a source checkout and imports `streetinv` from its
`src/`. The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of BENCHMARK.json with `--trace 1`.
See bench/README.md for the workloads and how the timings are kept steady.
"""

import os

# One thread per BLAS pool, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Set-ups spread over a run's measuring time: one when a run starts and
# another before a scene whenever this share of the time has passed since
# the last one began.
SETUP_SHARE = 1 / 6
# Successive rounds start this many scenes further on, so each scene is
# timed at different positions in the loop.
ROUND_ROTATION = 7
# The paper's decimeter-level localization claim, m.
LOC_ERR_LIMIT_M = 0.1
# estimate_center's iteration cap; a return at the cap is a cap hit.
ITERATION_CAP = 200


def import_program():
    """Import streetinv from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "streetinv", "__init__.py")):
        raise SystemExit(f"error: no streetinv sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import streetinv

    if not os.path.abspath(streetinv.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: streetinv imported from {streetinv.__file__}, not {SRC}")


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")


class SetUps:
    """Timed set-ups of a workload; the scenes run are the latest one's.

    A set-up makes the workload's inputs afresh in a directory of its own
    and runs the program once on a tiny scene. Inputs depend on the seed
    alone, so every set-up makes the same ones.
    """

    def __init__(self, workload, seed, workdir, interval_s=None):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.interval_s = interval_s
        self.times: list[float] = []
        self.scenes = None
        self._dir = None
        self.last_start = 0.0

    def make(self) -> None:
        from workloads import warm_up

        self.scenes = None
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
        self._dir = os.path.join(self.workdir, f"setup{len(self.times)}")
        os.makedirs(self._dir)
        gc.collect()
        self.last_start = t0 = time.perf_counter()
        self.scenes = self.workload.setup(self.seed, self._dir)
        warm_up(self._dir)
        self.times.append(time.perf_counter() - t0)

    def make_if_due(self) -> None:
        if self.interval_s is not None and time.perf_counter() - self.last_start >= self.interval_s:
            self.make()


class Outputs:
    """Checks each scene's first output fully and later ones for equality.

    Any failure to read or check an output is recorded, never raised.
    """

    def __init__(self, workload, n_scenes):
        self.workload = workload
        self.quality = [None] * n_scenes
        self.errors: list[str] = []
        self._digest = [None] * n_scenes

    def __call__(self, i, scene, output):
        from checks import CheckFailed
        from workloads import check_scene

        try:
            records, report = self.workload.read(scene, output)
            digest = hashlib.sha256(
                json.dumps([records, report], sort_keys=True, default=float).encode()
            ).hexdigest()
            if self._digest[i] is None:
                self._digest[i] = digest
                check_scene(scene, records, report)
                self.quality[i] = report
            elif digest != self._digest[i]:
                raise CheckFailed("output differs between rounds")
        except Exception as exc:
            self.errors.append(f"{scene.name}: {type(exc).__name__}: {exc}")


def timed_rounds(run, setups, budget_s, on_output, rounds=None):
    """Whole rounds over every scene, one at a time.

    Stops after `rounds` rounds when given, otherwise before the round that
    would end past `budget_s`, counted from the start of the last set-up
    made before the first round (always at least one round). Set-ups that
    fall due are made between scenes, inside the time. Returns each scene's
    wall times, the operations attempted and failed, and the rounds run.
    """
    n = len(setups.scenes)
    durations = [[] for _ in range(n)]
    attempted = failed = done = 0
    start = setups.last_start
    while True:
        round_start = time.perf_counter()
        offset = (done * ROUND_ROTATION) % n
        for i in list(range(offset, n)) + list(range(offset)):
            setups.make_if_due()
            gc.collect()
            attempted += 1
            t0 = time.perf_counter()
            try:
                output = run(setups.scenes[i])
            except Exception:
                failed += 1
                traceback.print_exc()
                continue
            durations[i].append(time.perf_counter() - t0)
            on_output(i, setups.scenes[i], output)
            # Hold nothing of this set-up's while the next one is made.
            output = None
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
            continue
        now = time.perf_counter()
        if now - start + (now - round_start) > budget_s:
            break
    return durations, attempted, failed, done


def run_seconds(durations) -> float:
    """Sum over scenes of each scene's mean wall time over the rounds.

    The host's speed swings in stretches of seconds to minutes,
    independently of the program; the mean uses all the measured time.
    """
    return sum(statistics.fmean(d) for d in durations if d)


def quality_metrics(quality) -> dict:
    """Mean quality over the scenes with a checked output; None if none."""
    reports = [q for q in quality if q is not None]
    if not reports:
        return dict.fromkeys(("f1_mat", "v_measure", "f1_idf", "loc_err_m"))
    located = [q["loc_err"] for q in reports if q["loc_err"] is not None]
    return {
        "f1_mat": statistics.fmean(q["f1_mat"] for q in reports),
        "v_measure": statistics.fmean(q["v_measure"] for q in reports),
        "f1_idf": statistics.fmean(q["f1_idf"] for q in reports),
        "loc_err_m": statistics.fmean(located) if located else None,
    }


def install_tracer(tracer, rss, peaks):
    import streetinv.cli as C
    import streetinv.io as I
    import streetinv.pipeline as P
    import streetinv.refinement as R

    def on_center(t, args, est):
        iterations = getattr(est, "iterations", 0)
        t.counters["triangulation.iterations"] += iterations
        t.counters["triangulation.returns"] += 1
        t.counters["triangulation.cap_hits"] += iterations >= ITERATION_CAP

    def on_associate(t, args, result):
        matches, clusters = result
        t.counters["association.matches"] += len(matches)
        t.counters["association.initial_clusters"] += len(clusters)

    def on_split(t, args, result):
        t.counters["refinement.rays_freed"] += (
            sum(c.size == 1 for c in result) - sum(c.size == 1 for c in args[0])
        )

    def on_merge(t, args, result):
        multi_in = {c.cluster_id: c.size for c in args[0] if c.size >= 2}
        known = {c.cluster_id for c in args[0]}
        t.counters["refinement.singletons_absorbed"] += sum(
            c.size - multi_in[c.cluster_id] for c in result if c.cluster_id in multi_in
        )
        t.counters["refinement.pairs_merged"] += sum(c.cluster_id not in known for c in result)

    def on_records(t, args, result):
        t.counters["io.records_read"] += len(result)

    def on_truth(t, args, truth):
        t.counters["io.records_read"] += len(truth.objects) + len(truth.obs_ids)

    def pipeline_exit():
        peaks.append(rss.stop())

    run_edges = {"on_enter": rss.start, "on_exit": pipeline_exit}
    tracer.wrap(C, "main", "cli.main")
    tracer.wrap(C, "run_pipeline", "pipeline.run_pipeline", **run_edges)
    tracer.wrap(P, "run_pipeline", "pipeline.run_pipeline", **run_edges)
    tracer.wrap(P, "associate", "pipeline.associate", observe=on_associate)
    tracer.wrap(P, "build_score_matrix", "association.build_score_matrix")
    tracer.wrap(P, "assign_pairs", "association.assign_pairs")
    tracer.wrap(P, "transitive_cluster", "association.transitive_cluster")
    tracer.wrap(P, "estimate_center", "triangulation.estimate_center", observe=on_center)
    tracer.wrap(R, "estimate_center", "triangulation.estimate_center", observe=on_center)
    tracer.wrap(P, "refine", "refinement.refine")
    tracer.wrap(R, "split_overmatched", "refinement.split_overmatched", observe=on_split)
    tracer.wrap(R, "merge_undermatched", "refinement.merge_undermatched", observe=on_merge)
    tracer.wrap(P, "build_report", "metrics.build_report")
    tracer.wrap(I, "ingest", "io.ingest")
    tracer.wrap(I, "read_poses", "io.read_poses", observe=on_records)
    tracer.wrap(I, "read_detections", "io.read_detections", observe=on_records)
    tracer.wrap(I, "build_observation", "geometry.build_observation")
    tracer.wrap(I, "read_score_triplets", "io.read_score_triplets", observe=on_records)
    tracer.wrap(I, "read_truth", "io.read_truth", observe=on_truth)
    tracer.wrap(I, "write_jsonl", "io.write_jsonl")


def associate_peak_mb(scenes) -> float:
    """Largest tracemalloc peak of one `pipeline.associate` call, in MB.

    Calls associate on each scene's program inputs with allocation tracing
    on, apart from the timed passes because tracing allocations slows the
    program about fivefold.
    """
    import streetinv.pipeline
    from workloads import associate_inputs

    peak = 0
    for scene in scenes:
        observations, cfg = associate_inputs(scene)
        gc.collect()
        tracemalloc.start()
        try:
            streetinv.pipeline.associate(observations, cfg)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


def refinement_gains(workload, scenes, outputs) -> dict:
    """Refined minus `no_refine` quality per scene, untraced."""
    from workloads import check_scene

    f1_gain, v_gain, worse = [], [], 0
    for scene, refined in zip(scenes, outputs.quality):
        try:
            output = workload.run(scene, no_refine=True)
            records, report = workload.read(scene, output)
            check_scene(scene, records, report, refined=False)
        except Exception as exc:
            outputs.errors.append(f"{scene.name} (no_refine): {type(exc).__name__}: {exc}")
            continue
        if refined is None:
            continue
        f1_gain.append(refined["f1_idf"] - report["f1_idf"])
        v_gain.append(refined["v_measure"] - report["v_measure"])
        worse += refined["v_measure"] < report["v_measure"]
    return {
        "refinement.f1_idf_gain": statistics.fmean(f1_gain) if f1_gain else 0.0,
        "refinement.v_measure_gain": statistics.fmean(v_gain) if v_gain else 0.0,
        "refinement.scenes_worse": worse,
    }


def layer_metrics(tracer, rounds, setup_tracer) -> dict:
    self_s = {k: v / rounds for k, v in tracer.self_times().items()}
    self_s.update(setup_tracer.self_times())
    calls = {k: v / rounds for k, v in tracer.calls().items()}
    counters = {k: v / rounds for k, v in tracer.counters.items()}
    out = {}
    for name, value in self_s.items():
        out[f"{name}.self_s"] = value
    for name, value in calls.items():
        out[f"{name}.calls"] = value
    out.update(counters)
    returns = counters.get("triangulation.returns", 0)
    out["triangulation.iterations_mean"] = (
        counters.get("triangulation.iterations", 0) / returns if returns else 0.0
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="workload seed, 0 or more")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Terminated runs still remove their generated inputs.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be 0 or more and --seconds positive")

    spec = load_spec()
    import_program()
    from spans import RssPeak, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    results_dir = os.path.join(BENCH_DIR, "results")
    workdir = os.path.join(BENCH_DIR, "work", f"{args.workload}-{os.getpid()}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(results_dir, exist_ok=True)
    rss = None
    try:
        if args.trace:
            setups = SetUps(workload, args.seed, workdir)
            setup_tracer = Tracer()
            import streetinv.simulator as S

            for fn in ("default_scene_spec", "generate_scene", "export_scene"):
                setup_tracer.wrap(S, fn, f"simulator.{fn}")
            try:
                setups.make()
            finally:
                setup_tracer.unwrap_all()
        else:
            setups = SetUps(workload, args.seed, workdir, args.seconds * SETUP_SHARE)
            setups.make()

        outputs = Outputs(workload, len(setups.scenes))
        budget = args.seconds / 2 if args.trace else args.seconds
        durations, attempted, failed, rounds = timed_rounds(workload.run, setups, budget, outputs)
        untraced_s = run_seconds(durations)

        if args.trace:
            tracer, peaks, rss = Tracer(), [], RssPeak()
            install_tracer(tracer, rss, peaks)
            try:
                traced, t_attempted, t_failed, _ = timed_rounds(
                    workload.run, setups, budget, outputs, rounds=rounds
                )
            finally:
                tracer.unwrap_all()
            attempted += t_attempted
            failed += t_failed
            metrics = layer_metrics(tracer, rounds, setup_tracer)
            metrics["trace.overhead_s"] = run_seconds(traced) - untraced_s
            metrics["pipeline.run_pipeline.peak_mb"] = max(peaks, default=0.0)
            metrics["pipeline.associate.peak_mb"] = associate_peak_mb(setups.scenes)
            metrics.update(refinement_gains(workload, setups.scenes, outputs))
            with open(os.path.join(results_dir, f"trace-{tag}.json"), "w") as handle:
                json.dump({"rounds": rounds, "spans": tracer.spans,
                           "counters": dict(tracer.counters),
                           "setup_spans": setup_tracer.spans}, handle)
            wanted = spec["per_layer"]
        else:
            metrics = quality_metrics(outputs.quality)
            if metrics["f1_mat"] is None:
                outputs.errors.append("no scene has a checked output")
            print(f"{rounds} round(s) of {len(setups.scenes)} scene(s), "
                  f"{len(setups.times)} set-up(s)", file=sys.stderr)
            metrics["setup_s"] = statistics.median(setups.times)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if metrics["loc_err_m"] is None or not metrics["loc_err_m"] < LOC_ERR_LIMIT_M:
                outputs.errors.append(
                    f"loc_err_m {metrics['loc_err_m']} is not below {LOC_ERR_LIMIT_M} m"
                )
            metrics = {k: 0.0 if v is None else v for k, v in metrics.items()}
            metrics["run_s"] = untraced_s
            wanted = spec["end_to_end"]
    finally:
        if rss is not None:
            rss.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    for error in outputs.errors:
        print(f"check failed: {error}", file=sys.stderr)
    correct = not outputs.errors

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted},
    }
    line = json.dumps(result, allow_nan=False)
    with open(os.path.join(results_dir, f"{tag}.json"), "w") as handle:
        handle.write(line + "\n")
    for name, value in result["metrics"].items():
        print(f"{name:45s} {value['value']:.6g} {value['unit']}", file=sys.stderr)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
