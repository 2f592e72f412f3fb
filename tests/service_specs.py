"""Campaign spec file submitted to the service under test.

Loaded by reference (``service_specs.py::name``) through
``repro.campaign.loader`` — both by the in-test service process and by
its forked pool workers — so everything here must be module-level and
self-contained.  ``code_version`` is pinned on every campaign: cache
keys must not depend on this file's content hash while the tests
evolve it.
"""

import os
import random
import time
from pathlib import Path

from repro.campaign import Campaign, FixedPoints, Sweep
from repro.core import Module, Simulator
from repro.core.time import SimTime
from repro.tdf import TdfModule, TdfOut


def _quick_run(params):
    return {"y": params["x"] * 2.0, "noise": (params["seed"] % 9973) * 1e-9}


QUICK = Campaign(
    name="quick",
    space=Sweep({"x": [0, 1, 2, 3, 4, 5, 6, 7]}),
    run=_quick_run,
    root_seed=101,
    code_version="svc-quick-1",
)


def _slow_run(params):
    # deliberately slow, to give cancel/backpressure tests a window
    time.sleep(params.get("delay", 0.05))  # verify: allow[CODE002]
    return {"y": params["x"] * 3.0}


SLOW = Campaign(
    name="slow",
    space=Sweep({"x": list(range(8)), "delay": [0.05]}),
    run=_slow_run,
    root_seed=202,
    code_version="svc-slow-1",
)

SLOW_SMALL = Campaign(
    name="slow-small",
    space=Sweep({"x": [100, 101], "delay": [0.05]}),
    run=_slow_run,
    root_seed=203,
    code_version="svc-slow-1",
)


def _flaky_run(params):
    """Fails exactly once per point: first attempt drops a marker file
    and raises; the retry sees the marker and succeeds."""
    marker_dir = os.environ["REPRO_TEST_FLAKY_DIR"]  # verify: allow[CODE005]
    marker = Path(marker_dir) / f"attempted_{params['x']}"
    if not marker.exists():
        marker.write_text("1")
        raise RuntimeError("transient flake")
    return {"x2": params["x"] * 2.0}


FLAKY = Campaign(
    name="flaky",
    space=Sweep({"x": [0, 1]}),
    run=_flaky_run,
    root_seed=303,
    code_version="svc-flaky-1",
)


def _crashy_run(params):
    """Kills its worker process on point ``x == 1``'s first attempt
    (after dropping a marker file); the retry sees the marker and
    succeeds."""
    marker_dir = os.environ["REPRO_TEST_FLAKY_DIR"]  # verify: allow[CODE005]
    marker = Path(marker_dir) / f"crashed_{params['x']}"
    if params["x"] == 1 and not marker.exists():
        marker.write_text("1")
        os._exit(1)
    return {"y": params["x"] * 2.0}


CRASHY = Campaign(
    name="crashy",
    space=Sweep({"x": [0, 1, 2, 3]}),
    run=_crashy_run,
    root_seed=606,
    code_version="svc-crashy-1",
)


def _dup_run(params):
    return {"y": params["x"] * 2.0}


# no seed is planned into the params, so the two x == 1 points share a
# cache key: the job dedups against itself
DUP = Campaign(
    name="dup",
    space=FixedPoints([{"x": 1}, {"x": 1}, {"x": 2}]),
    run=_dup_run,
    seed_key=None,
    code_version="svc-dup-1",
)


class _UnboundSrc(TdfModule):
    """TDF source whose output port is never bound — the static
    verifier rejects the model (TDF unbound-port rule)."""

    def __init__(self, name, parent=None):
        super().__init__(name, parent)
        self.out = TdfOut("out", rate=1)

    def set_attributes(self):
        self.set_timestep(SimTime(1, "us"))

    def processing(self):
        self.out.write(0.0)


def _broken_build(params):
    top = Module("top")
    _UnboundSrc("src", top)
    return Simulator(top)


BROKEN = Campaign(
    name="broken",
    space=Sweep({"x": [0, 1]}),
    build=_broken_build,
    duration=SimTime(5, "us"),
    metrics=lambda top: {"x": 0.0},
    root_seed=404,
    code_version="svc-broken-1",
)


class _NoisySrc(TdfModule):
    """TDF source whose ``processing`` draws from the process-global
    random state — the behavioral lint (CODE001) rejects the model at
    submit time."""

    def __init__(self, name, parent=None):
        super().__init__(name, parent)
        self.out = TdfOut("out", rate=1)

    def set_attributes(self):
        self.set_timestep(SimTime(1, "us"))

    def processing(self):
        self.out.write(random.random())


def _noisy_build(params):
    top = Module("top")
    _NoisySrc("src", top)
    return Simulator(top)


NOISY = Campaign(
    name="noisy",
    space=Sweep({"x": [0, 1]}),
    build=_noisy_build,
    duration=SimTime(5, "us"),
    metrics=lambda top: {"x": 0.0},
    root_seed=505,
    code_version="svc-noisy-1",
)
