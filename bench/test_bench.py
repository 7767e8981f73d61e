"""Fast self-test of the benchmark at a tiny size (one step, two-member panel).

    python3 -m pytest bench -q
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)


def tiny(name):
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(w, base={**w.base, "steps": 1}, panel=2)


def run_tiny(name, seed, trace):
    return measure.measure(tiny(name), seed, 0, trace, setup_samples=1, cli_samples=1)


@pytest.fixture(scope="module")
def results():
    return {(name, trace): run_tiny(name, 1, trace) for name in NAMES for trace in (0, 1)}


def test_benchmark_json_matches_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == measure.PER_LAYER


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_appears_with_its_unit(results, name, trace):
    result = results[(name, trace)]
    assert result["correct"], result["info"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_seed_changes_inputs_not_metric_set(results, name):
    w = tiny(name)
    assert w.configs(1) == w.configs(1)
    assert w.configs(1) != w.configs(2)
    for a, b in zip(w.configs(1), w.configs(2)):
        assert {k: v for k, v in a.items() if k != "reparam_source"} == {
            k: v for k, v in b.items() if k != "reparam_source"
        }
    other = run_tiny(name, 2, 0)
    assert other["correct"]
    assert other["metrics"].keys() == results[(name, 0)]["metrics"].keys()


def test_bypass_counts(results):
    per_layer = {name: results[(name, 1)]["metrics"] for name in NAMES}
    assert per_layer["mlp-ngd"]["kfac.estimate_factors.calls"]["value"] == 0
    for name in NAMES:
        for layer in ("nets.extract_patches", "nets.fold_patches"):
            calls = per_layer[name][f"{layer}.calls"]["value"]
            assert (calls > 0) == (name == "conv-kfac")
        fisher = per_layer[name]["metrics.exact_fisher.calls"]["value"]
        assert (fisher > 0) == (name == "mlp-ngd")


def _good_report(name):
    w = tiny(name)
    return w, w.run(w.configs(1)[0])


def _edited(text, edit):
    report = json.loads(text)
    edit(report)
    return json.dumps(report, indent=2)


def test_gate_rejects_bad_reports():
    w, good = _good_report("mlp-kfac")
    assert workloads.check_report(w, good, good)[0] is None

    def nan_gap(r):
        r["records"][-1]["forward_discrepancy"] = float("nan")

    def verdict(v):
        return lambda r: r.update(verdict=v)

    assert workloads.check_report(w, _edited(good, nan_gap))[0] == "non-finite record value"
    assert "verdict fail" in workloads.check_report(w, _edited(good, verdict("fail")))[0]
    assert "differ" in workloads.check_report(w, good + " ", good)[0]

    ngd, good_ngd = _good_report("mlp-ngd")
    assert workloads.check_report(ngd, _edited(good_ngd, verdict("fail")))[0] is None
    assert "degenerate" in workloads.check_report(ngd, _edited(good_ngd, verdict("degenerate")))[0]


def test_ledger_counts_a_failing_ngd_verdict_in_pass_frac():
    ngd, good = _good_report("mlp-ngd")
    ledger = measure.Ledger(ngd)
    ledger.judge(0, good)
    ledger.judge(1, _edited(good, lambda r: r.update(verdict="fail")))
    assert not ledger.failures
    assert (ledger.reports, ledger.passes) == (2, 1)


def test_loop_counts_injected_bad_report(monkeypatch):
    w, good = _good_report("rnn-kfac")

    def nan_gap(r):
        r["records"][0]["objective"] = float("nan")

    bad = _edited(good, nan_gap)
    monkeypatch.setattr(workloads.Workload, "run", lambda self, config: bad)
    ledger = measure.Ledger(w)
    measure.timed_loop(w, w.configs(1), ledger, until=0)
    assert ledger.attempted == w.panel
    assert len(ledger.failures) == w.panel


def test_timings_scale_to_the_reference_speed():
    timings = measure.Timings()
    timings.add(1.0, measure.REF_LOOP_S, 3 * measure.REF_LOOP_S)
    timings.add(0.4, measure.REF_LOOP_S, measure.REF_LOOP_S)
    assert timings.scaled == pytest.approx([0.5, 0.4])


def test_tracer_rebinds_every_call_site():
    from kfaclab import harness, kfac, linalg, metrics, reparam

    originals = (kfac.solve, harness._STEP_FNS["kfac"], metrics.forward, reparam.kron)
    tracer = Tracer()
    tracer.install()
    try:
        assert kfac.solve is linalg.solve is not originals[0]
        assert harness._STEP_FNS["kfac"] is kfac.kfac_step is not originals[1]
        assert metrics.forward is not originals[2] and reparam.kron is not originals[3]
        assert harness.sym_eig_min is linalg.sym_eig_min
    finally:
        tracer.uninstall()
    assert (kfac.solve, harness._STEP_FNS["kfac"], metrics.forward, reparam.kron) == originals


def _closure_over(fn):
    return lambda: fn


@pytest.mark.parametrize("holder, where", [
    (lambda step: (step,), r"_HELD\[0\]"),
    (lambda step: [step], r"_HELD\[0\]"),
    (lambda step: lambda fn=step: fn, r"_HELD\.__defaults__\[0\]"),
    (_closure_over, r"_HELD\.<closure 0>"),
])
def test_tracer_fails_loudly_on_a_missed_binding(monkeypatch, holder, where):
    from kfaclab import kfac

    solve = kfac.solve
    monkeypatch.setattr(kfac, "_HELD", holder(kfac.kfac_step), raising=False)
    with pytest.raises(RuntimeError, match="kfaclab.kfac." + where):
        Tracer().install()
    assert kfac.solve is solve
