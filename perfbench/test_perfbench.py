"""Tests of the benchmark itself: seeded inputs, span accounting, checks.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
import weakinfo  # noqa: E402
from weakinfo import complete, markets  # noqa: E402


def make(name, tmp_path):
    names = list(wl.WORKLOADS)
    return wl.WORKLOADS[name](names.index(name), ROOT, tmp_path, 2)


def fingerprint(inst) -> str:
    def norm(x):
        if isinstance(x, np.ndarray):
            return x.tolist()
        if isinstance(x, (list, tuple)):
            return [norm(v) for v in x]
        if isinstance(x, dict):
            return sorted((repr(k), norm(v)) for k, v in x.items())
        return repr(x)
    return repr((inst.label, norm(inst.inputs)))


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_same_seed_gives_same_instances(name, tmp_path):
    first = make(name, tmp_path / "a").instances(7, 2)
    again = make(name, tmp_path / "b").instances(7, 2)
    other = make(name, tmp_path / "c").instances(8, 2)
    if name == "cli-runs":  # generated configs are files; compare their text
        first, again, other = ([Path(i.inputs["config"]).read_text() for i in xs]
                               for xs in (first, again, other))
    else:
        first, again, other = ([fingerprint(i) for i in xs] for xs in (first, again, other))
    assert first == again
    assert first != other


@pytest.mark.parametrize("name", ["binomial-verify", "trinomial-dual", "general-market"])
def test_every_seed_gives_cycles_of_the_same_composition(name, tmp_path):
    w = make(name, tmp_path)
    a, b = w.instances(1, 0), w.instances(2, 0)
    assert [i.label.split(" ")[:2] for i in a] == [i.label.split(" ")[:2] for i in b]


# ---------------------------------------------------------------------------
# span accounting
# ---------------------------------------------------------------------------

def test_self_time_subtracts_nested_and_overlapping_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 2.0, 5.0, 0],     # overlaps a: a pool thread
        ["c", 6.0, 7.0, 0],
        ["a.child", 1.5, 2.5, 1],
        ["late", 9.5, 11.0, 0],  # clipped to the parent interval
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - (4.0 + 1.0 + 0.5))
    assert own[1] == pytest.approx(1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)


def test_union_length_merges_and_clips():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert tracing.union_length([(0, 2), (1, 3)], 1.5, 2.5) == pytest.approx(1.0)
    assert tracing.union_length([], 0, 1) == 0.0


def test_traced_solve_self_times_add_up_and_wrappers_come_off():
    original = complete.solve
    tracer = tracing.Tracer()
    tracer.install(weakinfo)
    try:
        params = markets.BinomialParams(s=20.0, h=0.09, k=0.019, r=0.032, n_periods=4, v=200.0)
        complete.solve(params, weakinfo.Utility.log(), (0.2,) * 5)
    finally:
        tracer.uninstall()
    assert complete.solve is original
    spans = tracer.spans
    names = [s[0] for s in spans]
    assert names[0] == "complete.solve"
    assert "complete.solve_lambda.closed" in names
    assert "utility.inverse_marginal" in names
    # one thread, so self times partition the root span exactly
    assert sum(tracing.self_times(spans)) == pytest.approx(spans[0][2] - spans[0][1])
    totals = tracing.SpanTotals()
    totals.add(spans, tracer.counts)
    assert totals.metric("complete.solve.calls") == 1
    assert totals.metric("complete.solve_lambda.closed_self_s") > 0


# ---------------------------------------------------------------------------
# correctness checks fail on corrupted results
# ---------------------------------------------------------------------------

def checked(w, inst, out):
    w.check(inst, out)  # the clean result passes
    return out


def fails(w, inst, out):
    with pytest.raises(wl.CheckFailure):
        w.check(inst, out)


def test_binomial_float_checks_catch_corruption(tmp_path):
    w = make("binomial-verify", tmp_path)
    (inst,) = w.instances(3, 0, (("float", 6),))
    inst.inputs["utility"] = weakinfo.Utility.log()
    sol, lam, replay, ratio = checked(w, inst, w.run(inst)).result

    def with_result(*result):
        return wl.Outcome(result)

    fails(w, inst, with_result(sol, lam * (1 + 1e-6), replay, ratio))
    bad_replay = dict(replay)
    path = next(iter(bad_replay))
    bad_replay[path] *= 1 + 1e-6
    fails(w, inst, with_result(sol, lam, bad_replay, ratio))
    fails(w, inst, with_result(sol, lam, replay, dataclasses.replace(ratio, terminal_measurable=False)))
    fails(w, inst, with_result(dataclasses.replace(sol, extra_value=sol.extra_value + 1e-6),
                               lam, replay, ratio))


def test_binomial_exact_checks_catch_corruption(tmp_path):
    w = make("binomial-verify", tmp_path)
    (inst,) = w.instances(3, 0, (("exact", 6),))
    minimal, formula = checked(w, inst, w.run(inst)).result
    bad = dict(formula)
    key = next(iter(bad))
    bad[key] += Fraction(1, 10**12)
    fails(w, inst, wl.Outcome((minimal, bad)))
    bad[key] = float(formula[key])  # right value, no longer exact
    fails(w, inst, wl.Outcome((minimal, bad)))


def test_trinomial_checks_catch_corruption(tmp_path):
    w = make("trinomial-dual", tmp_path)
    (inst,) = w.instances(3, 0, (("product", 4, "log"),))
    sol, residuals, replay = checked(w, inst, w.run(inst)).result
    fails(w, inst, wl.Outcome((sol, residuals + 1e-6, replay)))
    bad = dict(replay)
    bad[next(iter(bad))] += 1e-3
    fails(w, inst, wl.Outcome((sol, residuals, bad)))
    # a product claim must replicate; generic ones may raise ReplicationError
    error = weakinfo.trinomial.ReplicationError("not replicable")
    fails(w, inst, wl.Outcome((sol, residuals, error)))
    inst.inputs["kind"] = "dirichlet"
    w.check(inst, wl.Outcome((sol, residuals, error)))


def test_general_market_checks_catch_corruption(tmp_path):
    w = make("general-market", tmp_path)
    (inst,) = w.instances(3, 0, ((2, 3),))
    market, report, sol = checked(w, inst, w.run(inst)).result
    wealth = dict(sol.wealth)
    wealth[()] *= 1 + 1e-6
    fails(w, inst, wl.Outcome((market, report, dataclasses.replace(sol, wealth=wealth))))
    deltas = dict(sol.deltas)
    deltas[(1,)] = deltas[(1,)] * (1 + 1e-6)
    fails(w, inst, wl.Outcome((market, report, dataclasses.replace(sol, deltas=deltas))))


def test_cli_checks_catch_corruption(tmp_path):
    w = make("cli-runs", tmp_path)
    (inst,) = w.instances(3, 0, ("value_log_uniform.json",))
    out = w.run(inst)
    code, out_dir, stderr, spans = out.result
    kept = tmp_path / "kept"
    shutil.copytree(out_dir, kept)
    shutil.copytree(out_dir, tmp_path / "kept2")
    checked(w, inst, out)
    fails(w, inst, wl.Outcome((2, tmp_path / "kept2", "config error", None)))
    report = json.loads((kept / "report.json").read_text())
    report["results"]["value"] *= 1.001
    (kept / "report.json").write_text(json.dumps(report))
    fails(w, inst, wl.Outcome((0, kept, "", None)))


def test_hang_becomes_counted_failure(tmp_path, monkeypatch):
    class Hangs:
        def run(self, inst):
            while True:
                time.sleep(0.01)

    monkeypatch.setattr(run, "INSTANCE_LIMIT_S", 0.2)
    inst = wl.Instance("fake", 0, "hang", {})
    record = run.run_instance(Hangs(), inst, wl)
    assert not record.ok and "time limit" in record.reason


def test_normalise_cancels_host_speed_but_not_program_speed():
    ref = run.REF_S
    cpu = [0.1, 0.2, 0.3, 0.4] * 5
    kernel = [(i, ref) for i in range(len(cpu) + 1)]

    def scaled(factor, at=range(len(cpu) + 1)):
        return [(i, k * factor if i in at else k) for i, k in kernel]

    assert run.normalise(cpu, kernel, ref) == pytest.approx(cpu)
    # a host half as fast doubles both the instances and the kernel
    assert run.normalise([2 * c for c in cpu], scaled(2), ref) == pytest.approx(cpu)
    # a program twice as slow on the same host reads twice as slow
    assert run.normalise([2 * c for c in cpu], kernel, ref) == pytest.approx([2 * c for c in cpu])
    # the median ignores a disturbed kernel sample
    assert run.normalise(cpu, scaled(10, at={3}), ref) == pytest.approx(cpu)
    # a host that slows down halfway through a run is followed
    late = range(10, len(cpu) + 1)
    slowed = [2 * c if i >= 10 else c for i, c in enumerate(cpu)]
    assert run.normalise(slowed, scaled(2, at=late), ref)[:4] == pytest.approx(cpu[:4])
    assert run.normalise(slowed, scaled(2, at=late), ref)[-4:] == pytest.approx(cpu[-4:])
    # samples taken every third instance
    sparse = [(i, k) for i, k in kernel if i % 3 == 0 or i == len(cpu)]
    assert run.normalise(cpu, sparse, ref) == pytest.approx(cpu)


def test_calibrations_take_about_their_reference_time():
    for kernel, (ref, _) in run.CALIBRATIONS.items():
        taken = statistics.median(kernel() for _ in range(3))
        assert ref / 4 < taken < ref * 4, (kernel.__name__, taken)


# ---------------------------------------------------------------------------
# the command and its contract
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("no BENCHMARK.json next to the benchmark")
    spec = json.loads(path.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "binomial-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# program defects the workloads leave out (exponential utility, trinomial)
# ---------------------------------------------------------------------------

@pytest.mark.xfail(strict=True, raises=weakinfo.ConvergenceError,
                   reason="Newton stalls on generic anticipations with exponential utility")
def test_generic_exponential_trinomial_solve_converges():
    params = markets.TrinomialParams(
        s=38.45164352301025, a=1.2966279974374995, b=1.1981392705088532,
        c=0.9468605366354363, r=0.010113713157774634, n_periods=6, v=459.85121754723565,
    )
    nu = weakinfo.lift_terminal_anticipation(params, [
        0.022419426434111794, 0.046689574237381716, 0.009118537193491219, 0.01804716034814798,
        0.03985613590399954, 0.059489036312993, 0.026528676138579947, 0.007486590617731599,
        0.018941005777634988, 0.01986941448193961, 0.0002026804560657626, 0.021522788866699148,
        0.10755311856485301, 0.04443924236606136, 0.021430903191758357, 0.0405806670180116,
        0.040022037467264265, 0.01692759634401911, 0.05188635582112806, 0.010005752346367499,
        0.036974729250326924, 0.03509148663765096, 0.0454702986528218, 0.007202756289854311,
        0.11589242863740996, 0.08083136825834433, 0.05017130962403689, 0.0053489227613151575,
    ])
    weakinfo.solve_lambda_system(params, weakinfo.Utility.exponential(0.007908727689904851), nu)


@pytest.mark.xfail(strict=True, raises=weakinfo.trinomial.ReplicationError,
                   reason="product claim misses the replicability tolerance")
def test_product_exponential_trinomial_claim_replicates():
    params = markets.TrinomialParams(
        s=9.632642618300247, a=1.0776891033415688, b=0.8295196412304219,
        c=0.7503097012068212, r=0.016957077306040312, n_periods=9, v=56.37702371400742,
    )
    nu = weakinfo.product_path_anticipation(params, [
        [0.3391793545673711, 0.304061797186508, 0.356758848246121],
        [0.48782878459135454, 0.4629165738485884, 0.049254641560056975],
        [0.15074905211408202, 0.04947395142022492, 0.799776996465693],
        [0.18142274017038576, 0.6486692960437815, 0.16990796378583273],
        [0.06298310173780415, 0.5104533445142964, 0.42656355374789956],
        [0.4055102260426038, 0.31222262917002047, 0.28226714478737563],
        [0.4967741376095068, 0.3130441941744344, 0.19018166821605884],
        [0.30835736839964706, 0.3758627314897157, 0.3157799001106372],
        [0.2776074295610889, 0.1524724769552587, 0.5699200934836525],
    ])
    sol = weakinfo.solve_lambda_system(params, weakinfo.Utility.exponential(0.05106631376045113), nu)
    weakinfo.trinomial_wealth_and_delta(params, sol.terminal_wealth)


@pytest.mark.xfail(strict=True, raises=weakinfo.ConvergenceError,
                   reason="Newton does not converge for a steep power utility at N=10")
def test_positive_gamma_power_trinomial_solve_converges():
    params = markets.TrinomialParams(
        s=14.89390333134288, a=1.2821280627033511, b=1.1074037317088719,
        c=0.8621840884795523, r=0.027075782897435802, n_periods=10, v=375.3470924483915,
    )
    nu = weakinfo.product_path_anticipation(params, [
        [0.049180114947399746, 0.14545432015454363, 0.8053655648980566],
        [0.04986315582427095, 0.5463026675910292, 0.4038341765846999],
        [0.7635302403407539, 0.04884359307751865, 0.1876261665817274],
        [0.26076014998962505, 0.498208981729507, 0.241030868280868],
        [0.6288290309270014, 0.056840828160847595, 0.314330140912151],
        [0.5588287084618208, 0.3112679240269992, 0.12990336751117998],
        [0.27032204852152514, 0.04876642071474537, 0.6809115307637297],
        [0.6415631720622549, 0.22966135978131816, 0.12877546815642704],
        [0.5069849860740354, 0.40469815160270595, 0.08831686232325861],
        [0.8234225466198669, 0.07911598333390979, 0.0974614700462234],
    ])
    weakinfo.solve_lambda_system(params, weakinfo.Utility.power(0.6469460711626689), nu)
