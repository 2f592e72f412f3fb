"""Behavioral code lint (CODE0xx): per-rule fabricated failing models,
suppression accounting, code fingerprinting and the cache-key tie-in.

Every CODE rule gets a file-backed model that provably violates it,
asserted down to the exact rule id and source line; the repro.lib block
library and the seed example models are regression-checked to lint
clean.  Fingerprint tests pin the cache-key contract: keys change iff
the *executed function body* changes (not its file position, comments,
or docstrings).  Index tests pin that a cached and an uncached
verification agree, that replaced code is re-indexed, and that index
entries die with their functions.
"""

import gc
import importlib.util
import json
import sys
import threading
import textwrap
from pathlib import Path

import pytest

from repro.campaign import Campaign, CampaignRunner, Sweep
from repro.campaign.cache import cache_key
from repro.campaign.spec import code_version_for
from repro.core import Module, SimTime
from repro.tdf import TdfModule, TdfOut
from repro.verify import code_fingerprint, verify, verify_callables
from repro.verify.__main__ import main as verify_main, resolve_targets
from repro.verify.code import scan as code_scan

EXAMPLES = Path(__file__).parent.parent / "examples"
BENCHMARKS = Path(__file__).parent.parent / "benchmarks"

#: shared prelude for every fabricated model file.
PRELUDE = textwrap.dedent("""\
    import os
    import random
    import sys
    import time

    import numpy as np

    from repro.core.time import SimTime
    from repro.tdf import TdfIn, TdfModule, TdfOut

""")


def _write_model(tmp_path, body, stem="model"):
    model = tmp_path / f"{stem}.py"
    model.write_text(PRELUDE + textwrap.dedent(body))
    return model


def _lint(capsys, model, *extra):
    """Run the CLI on ``model`` with ``--select CODE --json`` and return
    (exit_code, payload)."""
    argv = [str(model), "--select", "CODE", "--json", *extra]
    exit_code = verify_main(argv)
    payload = json.loads(capsys.readouterr().out)
    return exit_code, payload


def _diagnostics(payload):
    return [d for report in payload["reports"]
            for d in report["diagnostics"]]


def _bad_line(model):
    """1-based line of the ``# BAD`` marker in a model file."""
    for number, line in enumerate(model.read_text().splitlines(), 1):
        if "# BAD" in line:
            return number
    raise AssertionError("no # BAD marker in model")


# ---------------------------------------------------------------------------
# one fabricated failing model per rule
# ---------------------------------------------------------------------------

RULE_MODELS = {
    "CODE001": ("error", """\
        class UnseededRandom(TdfModule):
            def __init__(self, name="bad", parent=None):
                super().__init__(name, parent)
                self.out = TdfOut("out")

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                self.out.write(random.random())  # BAD
        """),
    "CODE002": ("error", """\
        class WallClock(TdfModule):
            def __init__(self, name="bad", parent=None):
                super().__init__(name, parent)
                self.out = TdfOut("out")

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                self.out.write(time.time())  # BAD
        """),
    "CODE003": ("error", """\
        class EntropyRead(TdfModule):
            def __init__(self, name="bad", parent=None):
                super().__init__(name, parent)
                self.out = TdfOut("out")

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                self.out.write(float(len(os.urandom(4))))  # BAD
        """),
    "CODE004": ("error", """\
        class NumpyGlobalRng(TdfModule):
            def __init__(self, name="bad", parent=None):
                super().__init__(name, parent)
                self.out = TdfOut("out")

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                self.out.write(np.random.normal())  # BAD
        """),
    "CODE005": ("error", """\
        class EnvRead(TdfModule):
            def __init__(self, name="bad", parent=None):
                super().__init__(name, parent)
                self.out = TdfOut("out")

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                self.out.write(float(os.getenv("GAIN", "1")))  # BAD
        """),
    "CODE006": ("warning", """\
        class FsRead(TdfModule):
            def __init__(self, name="bad", parent=None):
                super().__init__(name, parent)
                self.out = TdfOut("out")

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                names = os.listdir(".")  # BAD
                self.out.write(float(len(names)))
        """),
    "CODE007": ("error", """\
        _TRACE = []

        class GlobalMutation(TdfModule):
            def __init__(self, name="bad", parent=None):
                super().__init__(name, parent)
                self.out = TdfOut("out")

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                _TRACE.append(1.0)  # BAD
                self.out.write(0.0)
        """),
    "CODE008": ("warning", """\
        class LeakyCounter(TdfModule):
            def __init__(self, name="bad", parent=None):
                super().__init__(name, parent)
                self.out = TdfOut("out")
                self._acc = 0.0

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                self._acc += 1.0  # BAD
                self.out.write(self._acc)
        """),
    "CODE009": ("error", """\
        class HalfHooked(TdfModule):
            def __init__(self, name="bad", parent=None):
                super().__init__(name, parent)
                self.out = TdfOut("out")

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                self.out.write(0.0)

            def checkpoint_state(self):  # BAD
                return {}
        """),
    "CODE010": ("error", """\
        class OverRead(TdfModule):
            def __init__(self, name="bad", parent=None):
                super().__init__(name, parent)
                self.inp = TdfIn("inp", rate=2)
                self.out = TdfOut("out")

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                value = self.inp.read(2)  # BAD
                self.out.write(value)
        """),
    "CODE011": ("warning", """\
        class UnderWritten(TdfModule):
            def __init__(self, name="bad", parent=None):
                super().__init__(name, parent)
                self.inp = TdfIn("inp")
                self.out = TdfOut("out", rate=3)

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                self.out.write(self.inp.read())  # BAD
        """),
    "CODE012": ("error", """\
        class ConstantBlock(TdfModule):
            def __init__(self, name="bad", parent=None):
                super().__init__(name, parent)
                self.inp = TdfIn("inp")
                self.out = TdfOut("out")

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                self.out.write(self.inp.read())

            def processing_block(self, n):
                data = self.inp.read_block(4)  # BAD
                self.out.write_block(data)
        """),
    "CODE013": ("warning", """\
        class LambdaState(TdfModule):
            def __init__(self, name="bad", parent=None):
                super().__init__(name, parent)
                self.out = TdfOut("out")
                self._notify = lambda value: value  # BAD

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                self.out.write(self._notify(0.0))
        """),
    "CODE015": ("info", """\
        class ConsoleChatter(TdfModule):
            def __init__(self, name="bad", parent=None):
                super().__init__(name, parent)
                self.out = TdfOut("out")

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                print("tick")  # BAD
                self.out.write(0.0)
        """),
}


@pytest.mark.parametrize(
    "rule_id", sorted(RULE_MODELS), ids=sorted(RULE_MODELS))
def test_each_code_rule_fires_with_exact_location(
        tmp_path, capsys, rule_id):
    severity, body = RULE_MODELS[rule_id]
    model = _write_model(tmp_path, body, stem=rule_id.lower())
    _code, payload = _lint(capsys, model)
    hits = [d for d in _diagnostics(payload) if d["rule"] == rule_id]
    assert hits, (
        f"{rule_id} did not fire; got "
        f"{[d['rule'] for d in _diagnostics(payload)]}")
    diag = hits[0]
    assert diag["severity"] == severity
    assert diag["file"].endswith(f"{rule_id.lower()}.py")
    assert diag["line"] == _bad_line(model)
    # errors gate (exit 1); warnings/infos alone do not
    assert _code == (1 if severity == "error" else 0)
    # cold == warm: the second verification of the same live objects
    # reads every function from the process-wide index
    for _label, target in resolve_targets(str(model)):
        cold = verify(target, select=["CODE"]).to_dict()
        assert verify(target, select=["CODE"]).to_dict() == cold


def test_code014_lambda_campaign_callable():
    report = verify_callables([("camp.run", lambda params: params)])
    hits = [d for d in report if d.rule == "CODE014"]
    assert hits
    assert hits[0].severity == "warning"
    assert hits[0].location == "camp.run"
    assert "lambda" in hits[0].message


def test_code014_unpicklable_closure():
    lock = threading.Lock()

    def run(params):
        with lock:
            return params

    report = verify_callables([("camp.run", run)])
    hits = [d for d in report if d.rule == "CODE014"]
    assert hits
    assert "lock" in hits[0].message
    assert hits[0].file.endswith("test_verify_code.py")


def test_clean_model_has_no_code_findings(tmp_path, capsys):
    model = _write_model(tmp_path, """\
        class CleanGain(TdfModule):
            def __init__(self, name="ok", parent=None):
                super().__init__(name, parent)
                self.inp = TdfIn("inp")
                self.out = TdfOut("out")
                self.gain = 2.0

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                self.out.write(self.gain * self.inp.read())
        """)
    exit_code, payload = _lint(capsys, model, "--strict")
    assert exit_code == 0
    assert payload["ok"] is True
    assert _diagnostics(payload) == []


# ---------------------------------------------------------------------------
# CLI: --select CODE, schema stability, exit codes
# ---------------------------------------------------------------------------

def test_select_code_filters_graph_rules(tmp_path, capsys):
    _severity, body = RULE_MODELS["CODE001"]
    model = _write_model(tmp_path, body)
    # unconstrained run: both the graph rule (unbound port) and the
    # behavioral rule fire
    assert verify_main([str(model), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    rules = {d["rule"] for d in _diagnostics(payload)}
    assert "TDF001" in rules and "CODE001" in rules
    # --select CODE keeps only the behavioral family
    _code, payload = _lint(capsys, model)
    rules = {d["rule"] for d in _diagnostics(payload)}
    assert rules == {"CODE001"}


def test_code_diagnostic_json_schema(tmp_path, capsys):
    _severity, body = RULE_MODELS["CODE001"]
    model = _write_model(tmp_path, body)
    _code, payload = _lint(capsys, model)
    assert payload["schema"] == 2
    assert "ruleset" in payload
    (diag,) = _diagnostics(payload)
    assert set(diag) >= {"rule", "severity", "location", "message",
                         "file", "line"}
    # not suppressed -> the key is absent, not false
    assert "suppressed" not in diag
    counts = payload["reports"][0]["counts"]
    assert counts["error"] == 1
    assert counts["suppressed"] == 0


def test_cli_exit_codes(tmp_path, capsys):
    _severity, body = RULE_MODELS["CODE001"]
    bad = _write_model(tmp_path, body, stem="bad")
    assert verify_main([str(bad), "--select", "CODE"]) == 1
    capsys.readouterr()
    assert verify_main([str(tmp_path / "nope.py"),
                        "--select", "CODE"]) == 2


# ---------------------------------------------------------------------------
# suppression: counted, never dropped
# ---------------------------------------------------------------------------

def test_line_suppression_counts_finding(tmp_path, capsys):
    model = _write_model(tmp_path, """\
        class Allowed(TdfModule):
            def __init__(self, name="ok", parent=None):
                super().__init__(name, parent)
                self.out = TdfOut("out")

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                self.out.write(random.random())  # verify: allow[CODE001]
        """)
    exit_code, payload = _lint(capsys, model, "--strict")
    assert exit_code == 0
    assert payload["ok"] is True
    (diag,) = _diagnostics(payload)
    assert diag["rule"] == "CODE001"
    assert diag["suppressed"] is True
    counts = payload["reports"][0]["counts"]
    assert counts["suppressed"] == 1
    assert counts["error"] == 0


def test_line_above_suppression(tmp_path, capsys):
    model = _write_model(tmp_path, """\
        class Allowed(TdfModule):
            def __init__(self, name="ok", parent=None):
                super().__init__(name, parent)
                self.out = TdfOut("out")

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                # verify: allow[CODE002]
                self.out.write(time.time())
        """)
    exit_code, payload = _lint(capsys, model, "--strict")
    assert exit_code == 0
    (diag,) = _diagnostics(payload)
    assert diag["rule"] == "CODE002" and diag["suppressed"] is True


def test_class_suppression_covers_graph_rules(tmp_path, capsys):
    model = _write_model(tmp_path, """\
        class QuietSrc(TdfModule):
            # verify: allow[TDF001]
            def __init__(self, name="quiet", parent=None):
                super().__init__(name, parent)
                self.out = TdfOut("out")

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                self.out.write(0.0)
        """)
    assert verify_main([str(model), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    suppressed = [d for d in _diagnostics(payload)
                  if d.get("suppressed")]
    assert any(d["rule"] == "TDF001" for d in suppressed)
    assert payload["reports"][0]["counts"]["suppressed"] >= 1


def test_wrong_rule_in_allow_does_not_suppress(tmp_path, capsys):
    model = _write_model(tmp_path, """\
        class Mismatched(TdfModule):
            def __init__(self, name="bad", parent=None):
                super().__init__(name, parent)
                self.out = TdfOut("out")

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                self.out.write(time.time())  # verify: allow[CODE001]
        """)
    exit_code, payload = _lint(capsys, model)
    assert exit_code == 1
    (diag,) = _diagnostics(payload)
    assert diag["rule"] == "CODE002"
    assert "suppressed" not in diag


# ---------------------------------------------------------------------------
# clean-corpus regression: lib blocks and seed examples lint clean
# ---------------------------------------------------------------------------

def test_repro_lib_blocks_lint_clean():
    from repro.lib.adaptive import LmsFilter
    from repro.lib.adc import FlashAdc, IdealAdc
    from repro.lib.blocks import (
        Add2, Comparator, DeadbandBlock, LinearAmp, MapBlock, Mixer,
        QuadratureOscillator, SampleHold, SaturatingAmp, TdfSink, Vga,
    )
    from repro.lib.dac import IdealDac, SwitchedCapDac
    from repro.lib.filters import Biquad, FirFilter, IirFilter
    from repro.lib.goertzel import GoertzelDetector
    from repro.lib.pll import BehavioralPll
    from repro.lib.sigma_delta import CicDecimator, SigmaDelta1, \
        SigmaDelta2
    from repro.lib.sources import (
        ConstSource, FunctionSource, GaussianNoiseSource, PrbsSource,
        PulseSource, RampSource, SampleListSource, SineSource,
        StepSource,
    )

    top = Module("libbench")
    p = dict(parent=top)
    LmsFilter("lms", taps=4, **p)
    IdealAdc("adc1", bits=8, **p)
    FlashAdc("adc2", bits=4, **p)
    TdfSink("sink", **p)
    LinearAmp("amp", gain=2.0, **p)
    SaturatingAmp("sat", gain=2.0, limit=1.0, **p)
    Vga("vga", **p)
    Mixer("mix", **p)
    QuadratureOscillator("qosc", frequency=1e3, **p)
    Comparator("cmp", **p)
    SampleHold("sh", **p)
    DeadbandBlock("db", width=0.1, **p)
    MapBlock("map", func=abs, **p)
    Add2("add", **p)
    IdealDac("dac1", bits=8, **p)
    SwitchedCapDac("dac2", bits=8, **p)
    FirFilter("fir", taps=[0.5, 0.5], **p)
    IirFilter("iir", sections=[Biquad(1.0, 0.0, 0.0, 0.0, 0.0)], **p)
    GoertzelDetector("goe", frequency=1e3, block_size=16, **p)
    BehavioralPll("pll", center_frequency=1e4, **p)
    SigmaDelta1("sd1", **p)
    SigmaDelta2("sd2", **p)
    CicDecimator("cic", factor=4, **p)
    SineSource("sine", frequency=1e3, **p)
    ConstSource("const", **p)
    StepSource("step", **p)
    PulseSource("pulse", period=1e-3, **p)
    RampSource("ramp", **p)
    GaussianNoiseSource("noise", **p)
    PrbsSource("prbs", **p)
    SampleListSource("slist", samples=[1.0, 2.0], **p)
    FunctionSource("fsrc", func=abs, **p)

    report = verify(top, select=["CODE"])
    assert report.ok, report.summary()
    assert len(report) == 0, [d.rule for d in report]


def test_seed_models_lint_clean(capsys):
    targets = [
        str(EXAMPLES / "quickstart.py"),
        str(EXAMPLES / "rf_receiver.py"),
        str(EXAMPLES / "dc_motor_hil.py"),
        str(BENCHMARKS / "perf" / "models.py"),
    ]
    assert verify_main(
        [*targets, "--select", "CODE", "--strict"]) == 0


# ---------------------------------------------------------------------------
# the CT synchronization layer is framework code; its subclasses are not
# ---------------------------------------------------------------------------

def test_adsl_lints_clean(tmp_path):
    """The paper's Figure 1 model: the CT modules' lockstep telemetry
    (wall-clock timing of each solver advance) is not model code."""
    builder = tmp_path / "adsl_builder.py"
    builder.write_text(textwrap.dedent("""\
        from repro.adsl import AdslSystem


        def build():
            return AdslSystem()
        """))
    assert verify_main(
        [f"{builder}::build", "--select", "CODE", "--strict"]) == 0


def test_adsl_runs_under_verify_error():
    from repro.adsl import AdslSystem
    from repro.core import Simulator

    top = AdslSystem()
    simulator = Simulator(top, verify="error")
    simulator.run(SimTime(100, "us"))
    assert simulator.verification_report.ok
    assert top.smoothing.activation_count > 0


def test_ct_subclass_override_is_model_code(tmp_path, capsys):
    model = _write_model(tmp_path, """\
        from repro.lsf import LsfGain, LsfNetwork, LsfSource
        from repro.sync import LsfTdfModule


        def _network():
            lsf = LsfNetwork()
            u, y = lsf.signal("u"), lsf.signal("y")
            lsf.add(LsfSource("src", u))
            lsf.add(LsfGain("k", u, y, 2.0))
            return lsf, u, y


        class TimedGain(LsfTdfModule):
            def __init__(self, name="bad", parent=None):
                lsf, u, y = _network()
                super().__init__(name, lsf, parent)
                self.drive(u)
                self.sample(y)

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                self.started = time.perf_counter()  # BAD
                super().processing()
        """, stem="timed_gain")
    exit_code, payload = _lint(capsys, model)
    hits = [d for d in _diagnostics(payload) if d["rule"] == "CODE002"]
    assert exit_code == 1
    assert [d["line"] for d in hits] == [_bad_line(model)]
    assert all(d["file"].endswith("timed_gain.py") for d in hits)


# ---------------------------------------------------------------------------
# code fingerprint and the campaign cache key
# ---------------------------------------------------------------------------

SPEC_BODY = textwrap.dedent("""\
    def run(params):
        return {{"y": params["x"] * {factor}}}
""")

SPEC_MOVED = textwrap.dedent("""\
    # leading comment shifts every line number


    def run(params):
        \"\"\"docstrings are stripped from the fingerprint\"\"\"
        return {{"y": params["x"] * {factor}}}
""")


def _load_spec(tmp_path, source, tag):
    path = tmp_path / f"spec_{tag}.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location(
        f"fingerprint_spec_{tag}", str(path))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_fingerprint_ignores_position_and_docstrings(tmp_path):
    base = _load_spec(tmp_path, SPEC_BODY.format(factor="2.0"), "a")
    moved = _load_spec(tmp_path, SPEC_MOVED.format(factor="2.0"), "b")
    changed = _load_spec(tmp_path, SPEC_BODY.format(factor="3.0"), "c")

    fp = code_fingerprint(base.run)
    assert fp == code_fingerprint(base.run)           # deterministic
    assert fp == code_fingerprint(moved.run)          # position-free
    assert fp != code_fingerprint(changed.run)        # body-sensitive
    assert len(fp) == 16 and int(fp, 16) >= 0


def test_fingerprint_distinguishes_partial_args(tmp_path):
    import functools
    base = _load_spec(tmp_path, SPEC_BODY.format(factor="2.0"), "p")
    two = functools.partial(base.run, {"x": 2})
    three = functools.partial(base.run, {"x": 3})
    assert code_fingerprint(two) != code_fingerprint(base.run)
    assert code_fingerprint(two) != code_fingerprint(three)
    assert code_fingerprint(two) == code_fingerprint(two)


def test_code_version_tracks_executed_body(tmp_path):
    base = _load_spec(tmp_path, SPEC_BODY.format(factor="2.0"), "va")
    moved = _load_spec(tmp_path, SPEC_MOVED.format(factor="2.0"), "vb")
    changed = _load_spec(tmp_path, SPEC_BODY.format(factor="3.0"), "vc")
    assert code_version_for(base.run) == code_version_for(moved.run)
    assert code_version_for(base.run) != code_version_for(changed.run)
    # and the derived cache keys follow
    params = {"x": 1}
    key = cache_key("c", params, code_version_for(base.run))
    assert key == cache_key("c", params, code_version_for(moved.run))
    assert key != cache_key("c", params, code_version_for(changed.run))


def test_campaign_cache_hits_iff_body_unchanged(tmp_path):
    """Runner-level: re-running after a pure *move* of the spec function
    is a 100% cache hit; changing its body re-executes everything."""
    cache_dir = tmp_path / "cache"

    def run_with(source, tag):
        module = _load_spec(tmp_path, source, tag)
        campaign = Campaign(name="fp", space=Sweep({"x": [0, 1, 2]}),
                            run=module.run, root_seed=1)
        runner = CampaignRunner(campaign, workers=1,
                                cache_dir=cache_dir)
        runner.run()
        return runner.stats

    first = run_with(SPEC_BODY.format(factor="2.0"), "r1")
    assert first["executed"] == 3 and first["cached"] == 0
    moved = run_with(SPEC_MOVED.format(factor="2.0"), "r2")
    assert moved["executed"] == 0 and moved["cached"] == 3
    changed = run_with(SPEC_BODY.format(factor="3.0"), "r3")
    assert changed["executed"] == 3 and changed["cached"] == 0


def test_campaign_callable_helpers_are_linted(tmp_path):
    """One level of same-module helpers is linted for campaign
    callables too, exactly as for module methods."""
    module = _load_spec(tmp_path, textwrap.dedent("""\
        import random


        def jitter():
            return random.random()  # BAD


        def build(params):
            return params["x"] + jitter()
    """), "helper")
    report = verify_callables([("camp.build", module.build)])
    hits = [d for d in report if d.rule == "CODE001"]
    assert len(hits) == 1
    assert hits[0].location == "camp.build"
    assert "(via helper jitter())" in hits[0].message
    assert hits[0].line == _bad_line(tmp_path / "spec_helper.py")


# ---------------------------------------------------------------------------
# the process-wide function index: staleness and lifetime
# ---------------------------------------------------------------------------

REPLACEABLE = PRELUDE + textwrap.dedent("""\
    class Replaceable(TdfModule):
        def __init__(self, name="rep", parent=None):
            super().__init__(name, parent)
            self.out = TdfOut("out")

        def set_attributes(self):
            self.set_timestep(SimTime(1, "us"))

        def processing(self):
            self.out.write(0.0)
""")

NOISY_PROCESSING = PRELUDE + textwrap.dedent("""\
    def processing(self):
        self.out.write(random.random())  # BAD
""")


def test_replaced_code_is_reindexed(tmp_path):
    clean = _load_spec(tmp_path, REPLACEABLE, "stale_a")
    noisy = _load_spec(tmp_path, NOISY_PROCESSING, "stale_b")
    bad_line = _bad_line(tmp_path / "spec_stale_b.py")
    cls = clean.Replaceable
    original = cls.processing
    fingerprint = code_fingerprint(original)
    assert len(verify(cls(), select=["CODE"])) == 0

    def code001_lines():
        return [(d.file, d.line)
                for d in verify(cls(), select=["CODE"])
                if d.rule == "CODE001"]

    # a new function object in place of the indexed one
    cls.processing = noisy.processing
    assert code001_lines() == [(noisy.__file__, bad_line)]
    assert code_fingerprint(cls.processing) != fingerprint
    # the indexed function object itself, given new code
    cls.processing = original
    original.__code__ = noisy.processing.__code__
    assert code001_lines() == [(noisy.__file__, bad_line)]
    assert code_fingerprint(original) != fingerprint


def test_index_entries_die_with_their_class():
    class Transient(TdfModule):
        def __init__(self, name="transient", parent=None):
            super().__init__(name, parent)
            self.out = TdfOut("out")

        def set_attributes(self):
            self.set_timestep(SimTime(1, "us"))

        def processing(self):
            self.out.write(1.0)

    def indexed():
        return sum(1 for fn in code_scan._INDEX.keys()
                   if ".<locals>.Transient." in fn.__qualname__)

    assert verify(Transient(), select=["CODE"]).ok
    assert indexed() == 3  # __init__, set_attributes, processing
    del Transient
    gc.collect()
    assert indexed() == 0


def test_index_is_safe_under_concurrent_verification(tmp_path):
    """Threads verifying instances of one freshly loaded class race to
    index its functions; every report equals the serial one (unguarded,
    concurrent ``ast.parse`` calls intermittently crashed a rule)."""
    module = _load_spec(tmp_path, PRELUDE + textwrap.dedent("""\
        class Racy(TdfModule):
            def __init__(self, name="racy", parent=None):
                super().__init__(name, parent)
                self.out = TdfOut("out")
                self.acc = 0.0

            def set_attributes(self):
                self.set_timestep(SimTime(1, "us"))

            def processing(self):
                self.acc += random.random()
                print(self.acc)
                self.out.write(self.acc)
    """), "race")
    reports = []

    def worker():
        for _ in range(5):
            reports.append(
                verify(module.Racy(), select=["CODE"]).to_dict())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = verify(module.Racy(), select=["CODE"]).to_dict()
    assert {d["rule"] for d in expected["diagnostics"]} \
        == {"CODE001", "CODE008", "CODE015"}
    assert len(reports) == 40
    assert all(report == expected for report in reports)
