"""Tests of the benchmark itself: its oracles reject wrong results, and a
short run prints every metric BENCHMARK.json names.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads as W  # noqa: E402
from relcommit import adversary, engine, net  # noqa: E402
from relcommit.field import FieldSpec  # noqa: E402
from relcommit.scheme import SchemeParams  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _nonzero_input(wl, rng_seed=0):
    """An input of an honest workload whose challenges are all nonzero."""
    k = rng_seed
    while True:
        for value, seed in wl.inputs(k):
            if 0 not in oracles.verifier_challenges(seed, wl.spec.n, wl.m):
                return value, seed
        k += 1


def _bench_run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


# -- the oracles themselves ----------------------------------------------------


def test_splitmix_oracle_matches_engine_stream():
    for seed in (0, 1, 2 ** 63 + 5):
        want = [engine.stream_value(seed, engine.STREAM_CHALLENGE, i, 8) for i in range(6)]
        assert oracles.verifier_challenges(seed, 8, 5) == want


def test_gf_mul_oracle_known_product():
    assert oracles.gf_mul(0x57, 0x83, 8, 0x11B) == 0xC1
    spec = FieldSpec(8, 0x11B)
    assert all(oracles.gf_mul(a, b, 8, 0x11B) == spec.mul_i(a, b)
               for a in range(0, 256, 7) for b in range(0, 256, 11))


def test_exact_tables_win_nine_of_sixteen():
    t = adversary.brute_force_chsh(FieldSpec(2, 0x7))
    assert oracles.chsh_wins(t.x_table, t.y_table, 2, 0x7) == 9


def test_binomial_bound():
    assert oracles.binomial_consistent(500, 1000, 0.5)
    assert not oracles.binomial_consistent(0, 1000, 0.5)
    assert not oracles.binomial_consistent(1000, 1000, 0.5)
    p = oracles.tightness_miss_probability(21)
    assert oracles.binomial_consistent(0, 15000, p)
    assert not oracles.binomial_consistent(30, 15000, p)


# -- each oracle rejects a deliberately wrong result ----------------------------


def test_honest_oracle_rejects_flipped_outcome(tmp_path):
    wl = W.WORKLOADS["honest-short"](1, str(tmp_path))
    wl.setup()
    inp = _nonzero_input(wl)
    t, back, reverified = wl.run(inp, None)
    assert wl.check(inp, inp, (t, back, reverified)) is None
    t.outcome ^= 1
    assert "did not open its value" in wl.check(inp, inp, (t, back, reverified))


def test_honest_long_oracle_rejects_tampered_transcript_byte(tmp_path):
    wl = W.WORKLOADS["honest-long"](1, str(tmp_path))
    wl.setup()
    inp = wl.inputs(0)[0]
    t, back, reverified = wl.run(inp, None)
    assert wl.check(inp, inp, (t, back, reverified)) is None
    text = t.to_text()
    at = text.index("payload=", text.index("\n")) + len("payload=")
    flipped = "0" if text[at] != "0" else "1"
    tampered = engine.parse_transcript(text[:at] + flipped + text[at + 1:])
    assert "byte-identical" in wl.check(inp, inp, (t, tampered, reverified))
    other = 1 if reverified != 1 else 2
    assert "re-verification" in wl.check(inp, inp, (t, back, other))


def test_honest_oracle_rejects_too_many_rejections(tmp_path):
    wl = W.WORKLOADS["honest-short"](1, str(tmp_path))
    wl.setup()
    wl.sessions, wl.rejected = 10_000, 1_000
    assert wl.aggregate()
    wl.rejected = 194
    assert not wl.aggregate()


def test_tightness_oracle_rejects_wrong_challenges_and_miss_counts(tmp_path):
    wl = W.TightnessAttack(1, str(tmp_path))
    wl.setup()
    inp = wl.inputs(0)[0]
    t = wl.run(inp, None)
    assert wl.check(inp, inp, t) is None
    target, challenges, seed = inp
    moved = (challenges[0] % 3 + 1,) + challenges[1:]
    assert "fixed challenges" in wl.check((target, moved, seed), None, t)
    wl.sessions, wl.misses = 10_000, 20
    assert wl.aggregate()


@pytest.fixture(scope="module")
def analyzer_outputs(tmp_path_factory):
    wl = W.ExactAnalysis(5, str(tmp_path_factory.mktemp("exact")))
    outs = [(inp, wl.run(inp, None)) for inp in wl.inputs(0)]
    wl.end_pass()
    return wl, outs


def test_analyzer_oracle_accepts_the_seed_values(analyzer_outputs):
    wl, outs = analyzer_outputs
    for inp, res in outs:
        assert wl.check(inp, None, res) is None, (inp, res)


def test_analyzer_oracle_rejects_off_by_one_values(analyzer_outputs):
    wl, outs = analyzer_outputs
    for inp, (rc, out) in outs:
        key = "q=" if inp[1] == "chsh-search" else "value="
        head, tail = out.split(key, 1)
        num, rest = tail.split("/", 1)
        wrong = f"{head}{key}{int(num) + 1}/{rest}"
        assert wl.check(inp, None, (rc, wrong)) is not None, wrong
        assert wl.check(inp, None, (1, out)) is not None


def test_net_oracle_rejects_aborted_and_altered_sessions(tmp_path):
    wl = W.NetLoopback(1, str(tmp_path), m=4)
    wl.setup()
    value, seed = _nonzero_input(wl)
    provers = wl.prepare((value, seed))
    res = wl.run(provers, None)
    assert wl.check((value, seed), provers, res) is None

    last = res.transcript.messages[-1]
    res.transcript.messages[-1] = replace(last, payload=last.payload ^ 1)
    assert "differs" in wl.check((value, seed), provers, res)

    # Provers expecting another m reject the handshake: the verifier aborts.
    mismatched = W.Provers(SchemeParams(wl.spec, 5), seed, value)
    aborted = wl.run(mismatched, None)
    assert aborted.aborted and aborted.abort_reason == net.ABORT_MALFORMED
    assert "aborted" in wl.check((value, seed), mismatched, aborted)
    assert not any(th.is_alive() for th in mismatched.threads)


def test_rate_takes_each_operation_kind_at_its_percentile():
    import run
    stats = W.Stats(0)
    for i in range(1, 101):
        stats.add("cheap", i * 1000, 1)
        stats.add("dear", i * 3000, 2)
    # 5th percentiles: 5950 ns and 17850 ns for one operation of each kind.
    assert run.rate(stats) == pytest.approx(3 / 23_800e-9)


# -- the command line ------------------------------------------------------------


def test_benchmark_json_names_the_workloads_that_run():
    assert [w["name"] for w in SPEC["workloads"]] == list(W.WORKLOADS)


def test_smoke_untraced_run_reports_every_end_to_end_metric():
    proc = _bench_run("--workload", "honest-short", "--seed", "3",
                      "--seconds", "0.3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 100
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert any(line.strip().startswith("error_rate = 0") for line in lines)


def test_smoke_traced_run_reports_every_per_layer_metric():
    proc = _bench_run("--workload", "tightness-attack", "--seed", "3",
                      "--seconds", "0.3", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    values = {k: v["value"] for k, v in res["metrics"].items()}
    assert values["engine.round_ratio.m2048_m4"] > 1
    assert values["analysis.calls_per_pass"] == int(values["analysis.calls_per_pass"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench_run("--workload", "honest-short", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
