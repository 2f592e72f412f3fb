"""Gate the Python call counts recorded in ``BENCH_COUNTS.json``.

Each entry is the number of Python calls (cProfile ``total_calls``,
the same from run to run and under any ``PYTHONHASHSEED``) that one
run makes after a warm-up run of the same kind:

* ``run_perf/<model>/<engine>``: one ``run_perf`` model at its
  ``--quick`` length, in the scalar or the block engine;
* ``refine_l2/job`` and ``adsl_fig1/job``: one perfbench job on the
  benchmark's seed-1 inputs;
* ``<model>/verify_model`` and ``<model>/elaborate``: the static
  pre-flight and the elaboration of the first ``rc-sweep`` campaign
  point (its build and metrics linted as extra code, as the campaign
  runner does) and of the seed-1 ``adsl_fig1`` model, without the
  model's build.

Each group of runs is measured in a fresh interpreter, since what a
process has imported changes some counts (``inspect`` walks
``sys.modules`` while the verifier lints).  A count fails above its
entry's ``ceiling``, and also more than 10% below its entry's
``count``: a change that makes a run cheaper lowers the entry in the
same commit.  Counts depend on the interpreter and on the libraries
the runs call into, so the script refuses to gate under versions
other than the ones the file records.

Usage::

    python benchmarks/perf/check_counts.py            # gate every entry
    python benchmarks/perf/check_counts.py GROUP      # print one group

Exit status: 0 when every count is in its band, 1 when one is not, 2
when the versions differ from the file's.
"""

import cProfile
import gc
import json
import os
import pstats
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
COUNTS_FILE = os.path.join(ROOT, "BENCH_COUNTS.json")

#: the groups of runs, each measured in its own interpreter
GROUPS = ("run_perf", "refine_l2", "adsl_fig1", "preflight")

#: a count this far below its entry fails: the entry is stale
STALE_FRACTION = 0.10


def _count(func, *args, **kwargs) -> int:
    """Python calls of ``func(*args, **kwargs)``.  Garbage left by the
    runs before is collected first: a DE thread process that the
    collector closes is one more call of its generator, wherever the
    collection falls."""
    gc.collect()
    profile = cProfile.Profile()
    profile.runcall(func, *args, **kwargs)
    return pstats.Stats(profile).total_calls


def _run_perf_counts(models):
    import run_perf

    for name, (builder, _full_us, quick_us) in models.MODELS.items():
        for block in (False, True):
            engine = "block" if block else "scalar"
            run_perf.run_model(builder, quick_us, block=block)
            yield f"run_perf/{name}/{engine}", _count(
                run_perf.run_model, builder, quick_us, block=block)


def _job_counts(group, models, rng):
    from repro.core import SimTime

    if group == "refine_l2":
        build, duration_us = models.build_refine, models.REFINE_SAMPLES
        inputs = models.refine_inputs(rng)
    else:
        build, duration_us = models.build_adsl, models.ADSL_DURATION_US
        inputs = models.adsl_inputs(rng)

    def job():
        build(inputs).run(SimTime(duration_us, "us"))

    job()
    yield f"{group}/job", _count(job)


def _preflight_counts(models, rng):
    from repro.campaign import resolve_spec_ref
    from repro.campaign.runner import plan_records
    from repro.verify import verify_model

    campaign = resolve_spec_ref("perfbench/spec.py::rc-sweep")
    params = plan_records(campaign)[0].params
    extra_code = [(f"{campaign.name}.build", campaign.build),
                  (f"{campaign.name}.metrics", campaign.metrics)]
    adsl = models.adsl_inputs(rng)
    for name, make, code in (
            ("rc-sweep", lambda: campaign.build(dict(params)), extra_code),
            ("adsl_fig1", lambda: models.build_adsl(adsl), None)):
        verify_model(make().top, extra_code=code)
        make().elaborate()
        yield f"{name}/verify_model", _count(verify_model, make().top,
                                             extra_code=code)
        yield f"{name}/elaborate", _count(make().elaborate)


def measure(group: str):
    """Yield ``(entry name, count)`` for the runs of ``group``, each
    after a warm-up run of its kind."""
    models_dir = HERE if group == "run_perf" \
        else os.path.join(ROOT, "perfbench")
    sys.path[:0] = [os.path.join(ROOT, "src"), models_dir]
    import numpy as np

    import models

    if group == "run_perf":
        return _run_perf_counts(models)
    rng = np.random.default_rng([1, 0])
    if group == "preflight":
        return _preflight_counts(models, rng)
    return _job_counts(group, models, rng)


def version_mismatch(recorded: dict) -> list:
    """``"<library> <running> (counts measured with <recorded>)"`` for
    every version that differs from the file's."""
    import platform
    from importlib.metadata import version

    running = {"python": platform.python_version()}
    running.update((library, version(library))
                   for library in ("numpy", "scipy", "networkx"))
    return [f"{library} {found} (counts measured with "
            f"{recorded[library]})"
            for library, found in running.items()
            if found != recorded[library]]


def _measured(group: str) -> dict:
    """``{entry name: count}`` of ``group``, from a fresh interpreter."""
    import subprocess

    done = subprocess.run([sys.executable, __file__, group], cwd=ROOT,
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def main(argv) -> int:
    if argv:
        print(json.dumps(dict(measure(argv[0]))))
        return 0
    with open(COUNTS_FILE) as handle:
        recorded = json.load(handle)
    mismatch = version_mismatch(recorded["versions"])
    if mismatch:
        print("refusing to gate call counts under", ", ".join(mismatch))
        return 2
    entries = recorded["counts"]
    failed = []
    measured: set = set()
    for group in GROUPS:
        for name, count in _measured(group).items():
            measured.add(name)
            entry = entries[name]
            verdict = "ok"
            if count > entry["ceiling"]:
                verdict = "OVER its ceiling"
            elif count < entry["count"] * (1.0 - STALE_FRACTION):
                verdict = "more than 10% under its count: lower the entry"
            if verdict != "ok":
                failed.append(name)
            print(f"{name}: {count} Python calls (entry {entry['count']}, "
                  f"ceiling {entry['ceiling']}) {verdict}", flush=True)
    unmeasured = sorted(set(entries) - measured)
    if unmeasured:
        print("entries no run measures:", ", ".join(unmeasured))
    if failed:
        print("out of band:", ", ".join(failed))
    return 1 if failed or unmeasured else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
