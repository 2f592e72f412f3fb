"""TDF cluster discovery, rate analysis, timestep propagation, static
scheduling, and runtime execution.

A *cluster* is a maximal set of TDF modules connected through TDF
signals.  Elaboration performs, in order:

1. **Rate analysis** — the SDF balance equations over port rates yield
   each module's repetition count per cluster period.
2. **Timestep propagation** — user-requested module/port timesteps are
   converted into cluster-period constraints (``period = repetitions *
   module_timestep``; ``module_timestep = rate * port_timestep``); all
   constraints must agree, and every derived timestep must be an integer
   number of time ticks.
3. **Static scheduling** — a PASS is constructed by symbolic execution
   honouring port delays as initial tokens; failure means deadlock.
4. **Consistent initialization** — signals are primed with delay
   samples and every module's ``initialize`` hook runs before time 0.

At runtime each cluster is one kernel thread waking once per cluster
period: it samples the DE converter inputs, executes a full schedule
iteration (modules may run *ahead* of kernel time within the period),
flushes converter outputs (replayed at exact sample times), and sleeps.

**Block execution** (the default) compiles the static schedule into
run-length-encoded entries — consecutive activations of one module fuse
into a single ``processing_block(n)`` call when the module opts in —
and, for clusters with no DE coupling at all, batches up to
``tdf_batch`` periods into one super-iteration per wake-up.  Both
transformations are observationally identical to scalar execution:
dataflow determinism makes the sample streams independent of firing
order, and batching is clamped to the current ``run()`` boundary so the
number of executed periods matches the scalar wake-up count exactly.
"""

from __future__ import annotations

import time as _time
from fractions import Fraction
from math import gcd
from typing import Optional

from ..core.errors import (
    ElaborationError,
    SchedulingError,
    SynchronizationError,
)
from ..core.process import THREAD, Process
from ..core.time import SimTime
from .module import TdfDeIn, TdfDeOut, TdfModule


class TdfRegistry:
    """Collects TDF modules during elaboration; builds clusters at the end."""

    def __init__(self):
        self.modules: list[TdfModule] = []
        self.clusters: list[TdfCluster] = []

    def add_module(self, module: TdfModule) -> None:
        self.modules.append(module)

    def finalize(self, simulator) -> None:
        for module in self.modules:
            module.set_attributes()
        clusters = _discover_clusters(self.modules)
        for k, members in enumerate(clusters):
            cluster = TdfCluster(
                f"cluster{k}", members,
                block_mode=simulator.tdf_block,
                batch=simulator.tdf_batch,
                compact_every=simulator.tdf_compact_every,
                telemetry=simulator.telemetry,
            )
            cluster.elaborate()
            cluster.install(simulator.kernel)
            self.clusters.append(cluster)


def _discover_clusters(modules: list[TdfModule]) -> list[list[TdfModule]]:
    """Union-find over modules sharing TDF signals."""
    parent: dict[int, int] = {id(m): id(m) for m in modules}
    by_id = {id(m): m for m in modules}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    signals = {}
    for module in modules:
        for port in module.tdf_ports():
            if port.signal is not None:
                signals.setdefault(id(port.signal), []).append(module)
    for members in signals.values():
        for other in members[1:]:
            union(id(members[0]), id(other))
    groups: dict[int, list[TdfModule]] = {}
    for module in modules:
        groups.setdefault(find(id(module)), []).append(module)
    return list(groups.values())


class TdfCluster:
    """One synchronized group of TDF modules."""

    def __init__(self, name: str, modules: list[TdfModule],
                 block_mode: bool = True, batch: int = 16,
                 compact_every: int = 64, telemetry=None):
        self.name = name
        self.modules = modules
        #: Telemetry hub (:mod:`repro.observe`); metrics are pre-bound
        #: here so the wake-up hot path never resolves names.  ``None``
        #: keeps ``execute_periods`` on a single ``is None`` test.
        self.telemetry = telemetry
        if telemetry is not None:
            metrics = telemetry.metrics
            self._m_seconds = metrics.counter("moc.tdf.seconds")
            self._m_periods = metrics.counter("tdf.periods", cluster=name)
            self._m_activations = metrics.counter(
                "tdf.activations", cluster=name)
            self._m_batch = metrics.histogram(
                "tdf.batch_periods", cluster=name)
            self._m_occupancy = metrics.histogram(
                "tdf.buffer_occupancy", cluster=name)
            self._m_sync_in = metrics.counter("sync.de_to_tdf.samples")
            self._m_sync_out = metrics.counter("sync.tdf_to_de.samples")
            #: wall time inside each module's schedule entries
            self._m_module_seconds = {
                module: metrics.counter("tdf.module_seconds",
                                        module=module.full_name())
                for module in modules}
        self.period: Optional[SimTime] = None
        self.repetitions: dict[int, int] = {}
        self.schedule: list[TdfModule] = []
        self.epoch_ticks = 0
        self.period_count = 0
        self.block_mode = block_mode
        self.batch = max(1, int(batch)) if block_mode else 1
        self.compact_every = max(1, int(compact_every))
        self._next_compact = self.compact_every
        #: compiled schedules: periods-per-iteration -> RLE entry list.
        self._entry_cache: dict[int, list] = {}
        #: decided during elaborate(): may this cluster batch periods?
        self._batch_safe = False
        #: the kernel this cluster was installed on (set by install()).
        self._kernel = None
        self._signals: list = []
        self._de_inputs: list[TdfDeIn] = []
        self._de_outputs: list[TdfDeOut] = []
        #: set by restore_state(): the period at checkpoint time already
        #: executed before the snapshot, so the resumed driver must sleep
        #: one period before its first execute_period().
        self._skip_first_period = False

    # -- elaboration ------------------------------------------------------------

    def elaborate(self) -> None:
        self._collect_endpoints()
        self._check_bindings()
        self._solve_rates()
        self._propagate_timesteps()
        self._build_schedule()
        self._batch_safe = (
            self.batch > 1
            and not self._de_inputs
            and not self._de_outputs
            and not any(m.batch_unsafe or m.de_coupled()
                        for m in self.modules)
        )
        for signal in self._signals:
            signal.prime()
        for module in self.modules:
            module._cluster = self
            module._telemetry = self.telemetry
        for module in self.modules:
            module.initialize()

    def _collect_endpoints(self) -> None:
        seen: set[int] = set()
        for module in self.modules:
            for port in module.tdf_ports():
                if port.signal is not None and id(port.signal) not in seen:
                    seen.add(id(port.signal))
                    self._signals.append(port.signal)
            for converter in module.converter_ports():
                if isinstance(converter, TdfDeIn):
                    self._de_inputs.append(converter)
                else:
                    self._de_outputs.append(converter)

    def _check_bindings(self) -> None:
        for module in self.modules:
            for port in module.tdf_ports():
                port._check_bound()
        for signal in self._signals:
            if signal.writer is None:
                raise ElaborationError(
                    f"TDF signal {signal.name!r} has no writer"
                )

    def _edges(self):
        """(writer_module, w_rate, reader_module, r_rate, initial_tokens)."""
        for signal in self._signals:
            writer = signal.writer
            for reader in signal.readers:
                yield (writer.module, writer.rate, reader.module,
                       reader.rate, writer.delay + reader.delay,
                       writer, reader)

    def _solve_rates(self) -> None:
        ratio: dict[int, Optional[Fraction]] = {
            id(m): None for m in self.modules
        }
        adjacency: dict[int, list[tuple[int, Fraction]]] = {
            id(m): [] for m in self.modules
        }
        for w_mod, w_rate, r_mod, r_rate, _d, _wp, _rp in self._edges():
            factor = Fraction(w_rate, r_rate)
            adjacency[id(w_mod)].append((id(r_mod), factor))
            adjacency[id(r_mod)].append((id(w_mod), 1 / factor))
        names = {id(m): m.full_name() for m in self.modules}
        for module in self.modules:
            if ratio[id(module)] is not None:
                continue
            ratio[id(module)] = Fraction(1)
            stack = [id(module)]
            while stack:
                node = stack.pop()
                for neighbor, factor in adjacency[node]:
                    implied = ratio[node] * factor
                    if ratio[neighbor] is None:
                        ratio[neighbor] = implied
                        stack.append(neighbor)
                    elif ratio[neighbor] != implied:
                        raise SchedulingError(
                            f"TDF cluster {self.name!r} is "
                            f"rate-inconsistent at {names[neighbor]!r}"
                        )
        lcm = 1
        for value in ratio.values():
            lcm = lcm * value.denominator // gcd(lcm, value.denominator)
        counts = {key: int(r * lcm) for key, r in ratio.items()}
        overall = 0
        for count in counts.values():
            overall = gcd(overall, count)
        self.repetitions = {key: c // overall for key, c in counts.items()}

    def _propagate_timesteps(self) -> None:
        period_ticks: Optional[int] = None
        origin = ""
        for module in self.modules:
            constraints: list[tuple[int, str]] = []
            if module.requested_timestep is not None:
                constraints.append((
                    module.requested_timestep.ticks,
                    module.full_name(),
                ))
            for port in module.tdf_ports():
                if port.requested_timestep is not None:
                    constraints.append((
                        port.requested_timestep.ticks * port.rate,
                        port.full_name(),
                    ))
            for module_ticks, name in constraints:
                candidate = module_ticks * self.repetitions[id(module)]
                if period_ticks is None:
                    period_ticks, origin = candidate, name
                elif period_ticks != candidate:
                    raise ElaborationError(
                        f"inconsistent timesteps in cluster {self.name!r}: "
                        f"{origin!r} implies period "
                        f"{SimTime.from_ticks(period_ticks)}, {name!r} "
                        f"implies {SimTime.from_ticks(candidate)}"
                    )
        if period_ticks is None:
            raise ElaborationError(
                f"no timestep assigned anywhere in TDF cluster "
                f"{self.name!r}; call set_timestep() on at least one "
                "module or port"
            )
        self.period = SimTime.from_ticks(period_ticks)
        for module in self.modules:
            reps = self.repetitions[id(module)]
            if period_ticks % reps:
                raise ElaborationError(
                    f"cluster period {self.period} is not divisible by "
                    f"{module.full_name()!r}'s {reps} activations"
                )
            module.timestep = SimTime.from_ticks(period_ticks // reps)
            for port in module.tdf_ports():
                if module.timestep.ticks % port.rate:
                    raise ElaborationError(
                        f"module timestep {module.timestep} of "
                        f"{module.full_name()!r} is not divisible by "
                        f"port rate {port.rate}"
                    )
                port.timestep = SimTime.from_ticks(
                    module.timestep.ticks // port.rate
                )

    def _simulate_schedule(self, periods: int) -> list:
        """Token-simulate ``periods`` cluster periods into an RLE PASS.

        Returns ``[(module, run_length), ...]``: the greedy simulation
        fires each module as many consecutive times as its input tokens
        allow, so consecutive activations fuse naturally — for a simple
        chain every module appears once with ``run_length ==
        repetitions * periods``.  Raises on deadlock.
        """
        edges = list(self._edges())
        tokens = {
            (id(wp), id(rp)): d for _w, _wr, _r, _rr, d, wp, rp in edges
        }
        remaining = {
            id(m): self.repetitions[id(m)] * periods for m in self.modules
        }
        inputs_of = {id(m): [] for m in self.modules}
        outputs_of = {id(m): [] for m in self.modules}
        for w_mod, w_rate, r_mod, r_rate, _d, wp, rp in edges:
            key = (id(wp), id(rp))
            inputs_of[id(r_mod)].append((key, r_rate))
            outputs_of[id(w_mod)].append((key, w_rate))
        entries: list[tuple[TdfModule, int, bool]] = []
        progress = True
        while progress and any(remaining.values()):
            progress = False
            for module in self.modules:
                # Token counts before the run: a fused block call reads
                # its whole input up front, which is only legal when
                # every input edge already holds the run's full demand
                # (feedback loops through the module itself interleave
                # production with consumption and must stay scalar).
                before = [tokens[key]
                          for key, _need in inputs_of[id(module)]]
                fired = 0
                while remaining[id(module)] > 0 and all(
                    tokens[key] >= need
                    for key, need in inputs_of[id(module)]
                ):
                    for key, need in inputs_of[id(module)]:
                        tokens[key] -= need
                    for key, produced in outputs_of[id(module)]:
                        tokens[key] += produced
                    remaining[id(module)] -= 1
                    fired += 1
                if fired:
                    progress = True
                    fusable = all(
                        have >= fired * need
                        for have, (_key, need) in zip(
                            before, inputs_of[id(module)])
                    )
                    if entries and entries[-1][0] is module:
                        prev = entries[-1]
                        entries[-1] = (module, prev[1] + fired, False)
                    else:
                        entries.append((module, fired, fusable))
        if any(remaining.values()):
            stuck = [m.full_name() for m in self.modules
                     if remaining[id(m)] > 0]
            raise SchedulingError(
                f"TDF cluster {self.name!r} deadlocks (insufficient "
                f"delays on a feedback loop); stuck modules: {stuck}"
            )
        return entries

    def _build_schedule(self) -> None:
        runs = self._simulate_schedule(1)
        self.schedule = [m for m, count, _ok in runs
                         for _ in range(count)]

    def _entries_for(self, periods: int) -> list:
        """Compiled schedule for ``periods``: (module, count, use_block).

        ``use_block`` routes the run through ``processing_block``; runs
        of modules that do not opt in (or single activations, where the
        scalar call is cheaper, or runs whose inputs are not fully
        available up front) execute sample-at-a-time.
        """
        cached = self._entry_cache.get(periods)
        if cached is None:
            cached = [
                (module, count,
                 self.block_mode and count > 1 and fusable
                 and module.supports_block())
                for module, count, fusable
                in self._simulate_schedule(periods)
            ]
            self._entry_cache[periods] = cached
        return cached

    # -- runtime ----------------------------------------------------------------

    def install(self, kernel) -> None:
        """Register the cluster driver thread and converter writers."""
        self._kernel = kernel
        for converter in self._de_outputs:
            converter.make_writer_thread(kernel)
        process = Process(
            f"tdf.{self.name}.driver", THREAD, self._drive,
        )
        kernel.register_process(process)

    def _drive(self):
        assert self.period is not None
        if self._skip_first_period:
            self._skip_first_period = False
            # Resume from a checkpoint: period_count periods already ran
            # before the snapshot, so sleep until the next period start.
            resume = self.period_count * self.period.ticks
            yield SimTime.from_ticks(
                max(resume - self._kernel.now_ticks, 0)
            )
        while True:
            n = self._periods_this_wake()
            self.execute_periods(n)
            yield SimTime.from_ticks(n * self.period.ticks)

    def _periods_this_wake(self) -> int:
        """How many periods to batch into the current wake-up.

        Batching runs the cluster *ahead* of kernel time, which is only
        observationally safe with zero DE coupling; the count is clamped
        to the run() boundary so exactly as many periods execute per
        run as with scalar one-period-per-wake pacing (a wake landing
        exactly on the boundary still executes, hence the ``+ 1``).
        """
        if not self._batch_safe:
            return 1
        limit = self._kernel.run_limit_ticks
        if limit is None:
            return 1  # unbounded run: pace period-by-period
        avail = (limit - self._kernel.now_ticks) // self.period.ticks + 1
        # Never batch across a compaction boundary: compacting at the
        # exact same period counts as scalar mode keeps checkpoint
        # snapshots (sample buffers + offsets) bit-identical.
        avail = min(avail, self._next_compact - self.period_count)
        return max(1, min(self.batch, avail))

    def execute_period(self) -> None:
        """Run exactly one cluster period (one full static schedule)."""
        self.execute_periods(1)

    def execute_periods(self, n: int) -> None:
        """Run ``n`` cluster periods through the compiled schedule."""
        telemetry = self.telemetry
        if telemetry is not None:
            start = _time.perf_counter()
        for converter in self._de_inputs:
            converter.sample()
        base = self.period_count * self.period.ticks
        self.epoch_ticks = 0  # local time is measured from t=0
        if telemetry is None:
            for module, count, use_block in self._entries_for(n):
                if use_block:
                    module._activate_block(count)
                else:
                    for _ in range(count):
                        module._activate()
        else:
            module_seconds = self._m_module_seconds
            for module, count, use_block in self._entries_for(n):
                entry_start = _time.perf_counter()
                if use_block:
                    module._activate_block(count)
                else:
                    for _ in range(count):
                        module._activate()
                module_seconds[module].inc(
                    _time.perf_counter() - entry_start)
        if telemetry is not None and self._de_outputs:
            self._m_sync_out.inc(
                sum(len(c._queue) for c in self._de_outputs))
        for converter in self._de_outputs:
            converter.flush(base, base + n * self.period.ticks)
        self.period_count += n
        if telemetry is not None:
            elapsed = _time.perf_counter() - start
            self._m_seconds.inc(elapsed)
            self._m_periods.inc(n)
            self._m_activations.inc(n * len(self.schedule))
            self._m_batch.observe(n)
            if self._de_inputs:
                self._m_sync_in.inc(len(self._de_inputs))
            tracer = telemetry.tracer
            if tracer.enabled:
                tracer.complete(
                    "cluster.activate", start, elapsed,
                    track=f"tdf.{self.name}",
                    attrs={"moc": "tdf", "periods": n,
                           "t_ticks": base})
        # Amortized housekeeping: dropping consumed samples every period
        # would dominate the per-sample cost; compacting every
        # ``compact_every`` periods keeps the buffers bounded at
        # negligible overhead.
        if self.period_count >= self._next_compact:
            self._compact()
            self._next_compact = self.compact_every * (
                self.period_count // self.compact_every + 1
            )

    def stats(self) -> dict:
        """Periods run and module activations under their
        ``metrics_snapshot`` names."""
        return {"tdf.periods": self.period_count,
                "tdf.activations": sum(module.activation_count
                                       for module in self.modules)}

    def _compact(self) -> None:
        if self.telemetry is not None:
            for signal in self._signals:
                self._m_occupancy.observe(
                    signal.write_head - signal._offset)
        for signal in self._signals:
            if signal.readers:
                needed = min(r.next_needed() for r in signal.readers)
                signal.compact(needed)
            else:
                signal.compact(signal.write_head)

    # -- checkpoint support ------------------------------------------------------

    def checkpoint_state(self) -> dict:
        """Picklable snapshot of the cluster's runtime state."""
        return {
            "name": self.name,
            "period_count": self.period_count,
            "signals": [signal.snapshot() for signal in self._signals],
            "modules": [
                {
                    "name": module.full_name(),
                    "activation_index": module._activation_index,
                    "activation_count": module.activation_count,
                    "extra": module.checkpoint_state(),
                }
                for module in self.modules
            ],
        }

    def restore_state(self, data: dict) -> None:
        """Reinstall a :meth:`checkpoint_state` snapshot.

        The receiving cluster must be freshly elaborated from the same
        model factory: signals and modules are matched positionally (the
        elaboration order is deterministic) with module names checked.
        """
        if (len(data["signals"]) != len(self._signals)
                or len(data["modules"]) != len(self.modules)):
            raise SynchronizationError(
                f"checkpoint does not match cluster {self.name!r} "
                "(different signal/module counts — was the model "
                "rebuilt from the same factory?)"
            )
        self.period_count = int(data["period_count"])
        self._next_compact = self.compact_every * (
            self.period_count // self.compact_every + 1
        )
        for signal, snap in zip(self._signals, data["signals"]):
            signal.restore(snap)
        for module, snap in zip(self.modules, data["modules"]):
            if module.full_name() != snap["name"]:
                raise SynchronizationError(
                    f"checkpoint module {snap['name']!r} does not match "
                    f"{module.full_name()!r} in cluster {self.name!r}"
                )
            module._activation_index = int(snap["activation_index"])
            module.activation_count = int(snap["activation_count"])
            module.restore_state(snap["extra"])
        self._skip_first_period = True
