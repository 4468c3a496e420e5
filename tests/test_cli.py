"""CLI surface: determinism, report formats, exit codes, config handling."""

import contextlib
import io
import os
import socket
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relcommit
from relcommit import analysis, cli, engine

WORKED_TRACE = """#relcommit v1 n=3 poly=0xb m=1 seed=0
round=0 from=V to=P payload=2
round=0 from=P to=V payload=7
round=1 from=V to=Q payload=3
round=1 from=Q to=V payload=0
round=2 from=P to=V payload=4
outcome=1
"""


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_run_summary_and_transcript(tmp_path, capsys):
    out = tmp_path / "t.txt"
    code, text = run_cli(capsys, "run", "--n", "3", "--m", "1", "--value", "01",
                         "--seed", "7", "--trials", "1", "--out", str(out))
    assert code in (0, 1)  # one trial: pass flag depends on that single draw
    assert "trials=1" in text and "failure_rate=" in text and "sigma=" in text
    recorded = out.read_text()
    assert recorded.startswith("#relcommit v1 n=3 poly=0xb m=1 seed=")
    code, text = run_cli(capsys, "verify", str(out))
    assert code == 0
    assert "match=true" in text
    # --domain-bits re-verifies the recorded messages under a k-bit domain.
    wide = tmp_path / "n8.txt"
    run_cli(capsys, "run", "--n", "8", "--m", "3", "--value", "05", "--seed", "7",
            "--trials", "1", "--out", str(wide))
    assert wide.read_text().endswith("outcome=05\n")
    for k, want_code, want in (("4", 0, "outcome=05 recorded=05 match=true"),
                               ("2", 1, "outcome=BOT recorded=05 match=false")):
        code, text = run_cli(capsys, "verify", str(wide), "--domain-bits", k)
        assert (code, text.strip()) == (want_code, want)
    code = cli.main(["verify", str(wide), "--domain-bits", "9"])
    assert code == 2 and "domain_bits must be in 1..n" in capsys.readouterr().err


def test_run_statistics_pass(capsys):
    code, text = run_cli(capsys, "run", "--n", "4", "--m", "1", "--value", "01",
                         "--seed", "42", "--trials", "4000")
    assert code == 0
    assert "pass=true" in text


def usage_error(capsys, *argv):
    """Exit code and stderr of a command; a usage error exits 2, apart
    from the 1 that a failed check (pass=false) exits with."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def test_run_rejects_zero_trials(capsys):
    code, err = usage_error(capsys, "run", "--n", "3", "--m", "1", "--value", "01",
                            "--seed", "7", "--trials", "0")
    assert code == 2 and err == "error: --trials must be >= 1\n"


def test_run_missing_seed_is_usage_error(capsys):
    code, err = usage_error(capsys, "run", "--n", "3", "--m", "1", "--value", "01")
    assert code == 2 and err == "error: missing required option --seed\n"


@pytest.mark.parametrize("argv", [
    ("attack", "random-open", "--n", "2", "--m", "1", "--seed", "1", "--trials", "0"),
    ("attack", "tightness", "--n", "2", "--m", "1", "--target", "1", "--seed", "1",
     "--trials", "-5"),
    ("analyze", "coupling", "--trials", "0"),
])
def test_trial_counts_below_one_are_usage_errors(capsys, argv):
    code, err = usage_error(capsys, *argv)
    assert code == 2 and err == "error: --trials must be >= 1\n"


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ("run", "--n", "3", "--m", "1", "--value", "01", "--seed", "7", "--trials", "8"),
    ("attack", "tightness", "--n", "2", "--m", "1", "--target", "1", "--seed", "1",
     "--trials", "8"),
    ("attack", "random-open", "--n", "2", "--m", "1", "--seed", "1", "--trials", "8"),
    ("analyze", "coupling", "--trials", "8"),
])
def test_worker_counts_below_one_are_usage_errors(capsys, argv, workers):
    code, err = usage_error(capsys, *argv, "--workers", workers)
    assert code == 2 and err == "error: --workers must be >= 1\n"


def test_odd_n_extractor_is_usage_error(capsys):
    code, err = usage_error(capsys, "analyze", "extractor", "--n", "3")
    assert code == 2 and err.startswith("error: extractor analysis uses even n"), err


def test_unknown_analyze_metric_is_usage_error():
    # argparse refuses it on the command line; cmd_analyze refuses it too.
    args = cli.build_parser().parse_args(["analyze", "k", "--n", "2"])
    args.metric = "bogus"
    with pytest.raises(ValueError, match="unknown metric 'bogus'"):
        cli.cmd_analyze(args)


POOLED_COMMANDS = {
    "run": ("run", "--n", "3", "--m", "1", "--value", "01", "--seed", "5",
            "--trials", "800"),
    "tightness": ("attack", "tightness", "--n", "2", "--m", "1", "--target", "2",
                  "--seed", "7", "--trials", "1500"),
    "random-open": ("attack", "random-open", "--n", "3", "--m", "2", "--value", "1",
                    "--seed", "9", "--trials", "2000"),
    "coupling": ("analyze", "coupling", "--trials", "400", "--seed", "3"),
}


@pytest.mark.parametrize("kind", list(POOLED_COMMANDS))
def test_run_workers_match_serial_counts(tmp_path, monkeypatch, capsys, kind):
    monkeypatch.chdir(tmp_path)  # the tightness attack caches its tables here
    _, serial = run_cli(capsys, *POOLED_COMMANDS[kind])
    _, pooled = run_cli(capsys, *POOLED_COMMANDS[kind], "--workers", "2")
    assert serial == pooled


def test_pool_size_is_capped_by_chunks(monkeypatch, capsys):
    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return [fn(job) for job in jobs]

    monkeypatch.setattr(analysis, "Pool", InProcessPool)
    for kind in ("random-open", "coupling"):
        run_cli(capsys, *POOLED_COMMANDS[kind], "--workers", "2")
    assert sizes == [2, 2]
    run_cli(capsys, "run", "--n", "3", "--m", "1", "--value", "01", "--seed", "5",
            "--trials", "2", "--workers", "8")
    assert len(sizes) == 3 and sizes[2] <= 2


def test_command_output_is_deterministic(capsys):
    args = ("attack", "tightness", "--n", "2", "--m", "1", "--target", "2",
            "--seed", "7", "--trials", "1500")

    def once(tmp):
        return run_cli(capsys, *args, "--cache", tmp)

    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        a = once(tmp)
        b = once(tmp)
    assert a == b


def test_attack_tightness_report(tmp_path, capsys):
    code, text = run_cli(capsys, "attack", "tightness", "--n", "2", "--m", "3",
                         "--target", "2", "--seed", "7", "--trials", "6000",
                         "--cache", str(tmp_path))
    assert code == 0
    assert "attack=tightness" in text and "closed_form=207/256" in text
    assert "pass=true" in text
    assert (tmp_path / "chsh_n2_poly7.tables").exists()


def test_attack_random_open_report(tmp_path, capsys):
    code, text = run_cli(capsys, "attack", "random-open", "--n", "3", "--m", "0",
                         "--value", "1", "--seed", "9", "--trials", "6000",
                         "--cache", str(tmp_path))
    assert code == 0
    assert "closed_form=1/8" in text and "pass=true" in text


def test_analyze_reports(capsys):
    code, text = run_cli(capsys, "analyze", "p0p1", "--n", "1")
    assert code == 0 and text.strip() == "metric=p0p1 n=1 value=3/2 bound=3/2 pass=true"
    code, text = run_cli(capsys, "analyze", "sim-open", "--n", "2")
    assert code == 0 and text.strip() == "metric=sim-open n=2 value=1/4 bound=1/4 pass=true"
    code, text = run_cli(capsys, "analyze", "hiding", "--n", "2", "--m", "1")
    assert code == 0 and "value=0/1" in text
    code, text = run_cli(capsys, "analyze", "k", "--n", "4")
    assert code == 0 and "value=1/1" in text
    code, text = run_cli(capsys, "analyze", "extractor", "--n", "2")
    assert code == 0 and "bound=1/1 pass=true" in text
    code, text = run_cli(capsys, "analyze", "coupling", "--trials", "300", "--seed", "1")
    assert code == 0 and "pass=true" in text


def test_coupling_pmfs_are_the_single_draws():
    # Each pmf of the coupling check is one column of five 64-bit draws,
    # the stream_u64 values of indices 0..4 as drawn one at a time.
    for seed in (0, 1, 3, (1 << 64) - 1):
        for stream in (engine.STREAM_PMF_P, engine.STREAM_PMF_Q):
            counts = [engine.stream_u64(seed, stream, i) % 97 + (i == 0) for i in range(5)]
            pmf = cli._random_pmf(seed, stream)
            assert [pmf.mass(i) for i in range(5)] == [Fraction(c, sum(counts))
                                                      for c in counts]


def test_analyze_refuses_enumerations_beyond_their_caps(capsys):
    for argv, named in ((("extractor", "--n", "4"), "n=4 exceeds the n<=2 cap"),
                        (("hiding", "--n", "3", "--m", "2"),
                         "n*(2m+3)=21 exceeds the n*(2m+3)<=20 cap"),
                        (("hiding", "--n", "7"), "n*(2m+3)=21 exceeds")):
        code = cli.main(["analyze", *argv])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error:") and named in err, err


def test_chsh_search_uses_cache(tmp_path, capsys):
    code, text = run_cli(capsys, "chsh-search", "--n", "2", "--cache", str(tmp_path))
    assert code == 0 and "q=9/16" in text
    stamp = (tmp_path / "chsh_n2_poly7.tables").read_text()
    code, text = run_cli(capsys, "chsh-search", "--n", "2", "--cache", str(tmp_path))
    assert code == 0 and "q=9/16" in text
    assert (tmp_path / "chsh_n2_poly7.tables").read_text() == stamp


def test_unsupported_field_width_is_usage_error(capsys):
    for n in ("30", "0"):
        code = cli.main(["analyze", "k", "--n", n])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and f"n={n}" in err


def test_corrupt_table_cache_is_usage_error(tmp_path, capsys):
    run_cli(capsys, "chsh-search", "--n", "2", "--cache", str(tmp_path))
    cache = tmp_path / "chsh_n2_poly7.tables"
    good = cache.read_text()
    cache.write_text(good.replace(" n=2", "", 1))
    code = cli.main(["chsh-search", "--n", "2", "--cache", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:") and "lacks n" in err
    cache.write_text(good.replace("q=9/16", "q=1/0", 1))
    code = cli.main(["attack", "tightness", "--n", "2", "--m", "1", "--target", "1",
                     "--seed", "1", "--trials", "10", "--cache", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:") and "zero denominator" in err
    for field, bad, named in ((" q=9/16", " q=9", "field q=9 "),
                              (" n=2", " n=x", "field n=x "),
                              (" poly=0x7", " poly=0xzz", "field poly=0xzz "),
                              (" q=9/16", " q=a/16", "numerator of q=a/16 "),
                              (" q=9/16", " q=9/x", "denominator of q=9/x ")):
        cache.write_text(good.replace(field, bad, 1))
        code = cli.main(["chsh-search", "--n", "2", "--cache", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error:") and named in err, err



def test_table_cache_rows_must_be_canonical_hex(tmp_path, capsys):
    run_cli(capsys, "chsh-search", "--n", "2", "--cache", str(tmp_path))
    cache = tmp_path / "chsh_n2_poly7.tables"
    good = cache.read_text()
    # Line 1 is the header, lines 2-5 the x rows 0:0 1:0 2:0 3:1 and lines
    # 6-9 the y rows 0:0 1:2 2:0 3:3; the error names the bad row's line.
    for row, bad, named in (("0:0", "0x0:0", "line 2: hex field '0x0'"),
                            ("3:3", "3: 3", "line 9: hex field ' 3'"),
                            ("3:1", "3", "line 5: row '3' is not key:value"),
                            ("3:1", "3:1:2", "line 5: row '3:1:2' is not key:value"),
                            ("1:0", "1:9", "line 3: value 9 outside GF(2^2)"),
                            ("3:3", "1:3", "line 9: key 1 repeats line 7")):
        cache.write_text(good.replace(f"\n{row}\n", f"\n{bad}\n", 1))
        assert cache.read_text() != good
        code = cli.main(["chsh-search", "--n", "2", "--cache", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"error: {named}"), err


# cli.main in a child process whose address space is capped at 1 GiB, so a
# runaway field setup ends in MemoryError instead of exhausting the host.
CAPPED_CLI = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "from relcommit.cli import main; sys.exit(main(sys.argv[1:]))")


def negative_poly_argv(tmp_path, entry):
    if entry == "flag":
        return ["run", "--n", "2", "--poly=-7", "--m", "0", "--value", "0", "--seed", "1"]
    if entry == "transcript":
        path = tmp_path / "t.txt"
        path.write_text("#relcommit v1 n=2 poly=-7 m=0 seed=0\noutcome=BOT\n")
        return ["verify", str(path)]
    if entry == "tables":
        cli.main(["chsh-search", "--n", "2", "--cache", str(tmp_path)])
        cache = tmp_path / "chsh_n2_poly7.tables"
        cache.write_text(cache.read_text().replace(" poly=0x7", " poly=-7", 1))
        return ["chsh-search", "--n", "2", "--cache", str(tmp_path)]
    path = tmp_path / "exp.cfg"
    path.write_text("n=2\npoly=-7\nm=0\nvalue=0\nseed=1\n")
    return ["--config", str(path), "run"]


@pytest.mark.parametrize("entry", ["flag", "transcript", "tables", "config"])
def test_negative_polynomial_is_refused_at_every_entry_point(tmp_path, entry):
    # (-7).bit_length() is 3, which once passed the degree check for n = 2
    # and sent the generator search into an endless, growing loop.
    argv = negative_poly_argv(tmp_path, entry)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(relcommit.__file__)))
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", CAPPED_CLI, *argv], env=env,
                          capture_output=True, text=True, timeout=10)
    assert time.monotonic() - start < 1.0
    assert done.returncode == 2
    assert done.stderr.startswith(("error:", "parse-error:")), done.stderr


def test_verify_spec_trace_and_tamper(tmp_path, capsys):
    path = tmp_path / "trace.txt"
    path.write_text(WORKED_TRACE)
    code, text = run_cli(capsys, "verify", str(path))
    assert code == 0 and "outcome=1" in text and "match=true" in text
    tampered = WORKED_TRACE.replace("round=2 from=P to=V payload=4",
                                  "round=2 from=P to=V payload=0")
    path.write_text(tampered)
    code, text = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert "outcome=6" in text and "match=false" in text


def test_verify_rejects_a_reply_from_the_wrong_prover(tmp_path, capsys):
    path = tmp_path / "trace.txt"
    path.write_text(WORKED_TRACE.replace("round=1 from=Q", "round=1 from=P"))
    code = cli.main(["verify", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "parse-error: line 5:" in err and "from=Q" in err


def test_verify_truncated_file(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    lines = WORKED_TRACE.splitlines()
    for kept in (lines[:3], [lines[0], lines[-1]]):
        path.write_text("\n".join(kept) + "\n")
        code = cli.main(["verify", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "parse-error" in err


@pytest.mark.parametrize("form", ["flag", "config"])
@pytest.mark.parametrize("bits", ["0", "x", "4"])
def test_verify_bad_domain_bits_is_a_flag_error(tmp_path, capsys, form, bits):
    # The transcript parses; only the k-bit domain (n = 3 here) is bad.
    path = tmp_path / "trace.txt"
    path.write_text(WORKED_TRACE)
    if form == "flag":
        argv = ["verify", str(path), "--domain-bits", bits]
    else:
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"domain_bits={bits}\n")
        argv = ["--config", str(cfg), "verify", str(path)]
    code, err = usage_error(capsys, *argv)
    assert code == 2 and err.startswith("error: "), err


def in_process(argv):
    """(exit code, stdout, stderr) of cli.main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def fresh_process(argv):
    """(exit code, stdout, stderr) of python -m relcommit.cli argv."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(relcommit.__file__)))
    done = subprocess.run([sys.executable, "-m", "relcommit.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_calls_in_one_process_share_a_parser_and_print_as_fresh_ones(tmp_path, monkeypatch):
    # The same usage width in both, whatever the terminal.
    monkeypatch.setenv("COLUMNS", "80")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n=3\nm=1\nvalue=01\nseed=7\ntrials=50\n")
    # A config-filled call, then one without flags: the config's values
    # must not carry over.  An argparse usage error, then a valid call.
    calls = [["--config", str(cfg), "run"], ["run"],
             ["analyze", "bogus", "--n", "2"], ["analyze", "p0p1", "--n", "2"]]
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        seen = [in_process(argv) for argv in calls]
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert [code for code, _, _ in seen] == [0, 2, 2, 0]
    assert seen[1][2] == "error: missing required option --n\n"
    assert "invalid choice: 'bogus'" in seen[2][2]
    for argv, got in zip(calls, seen):
        assert got == fresh_process(argv), argv


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n=3\nm=1\nvalue=01\nseed=7\ntrials=50\n")
    code, with_cfg = run_cli(capsys, "--config", str(cfg), "run")
    assert "trials=50" in with_cfg
    code, overridden = run_cli(capsys, "--config", str(cfg), "run", "--trials", "20")
    assert "trials=20" in overridden


# Each flag once read through a copy of "flag, then config" of its own, as
# (argv without it, key, value); {dir} is a directory of each form's own.
SAME_INPUT_CASES = {
    "verify --domain-bits": (["verify", "{transcript}"], "domain_bits", "1"),
    "run --poly": (["run", "--n", "3", "--m", "1", "--value", "5", "--seed", "1",
                    "--trials", "1", "--out", "{dir}/t.txt"], "poly", "d"),
    "run --out": (["run", "--n", "3", "--m", "1", "--value", "5", "--seed", "1",
                   "--trials", "1"], "out", "{dir}/t.txt"),
    "chsh-search --cache": (["chsh-search", "--n", "2"], "cache", "{dir}"),
    "attack tightness --cache": (["attack", "tightness", "--n", "2", "--m", "1",
                                  "--target", "1", "--seed", "1", "--trials", "8"],
                                 "cache", "{dir}"),
}


@pytest.mark.parametrize("case", list(SAME_INPUT_CASES))
def test_config_and_flag_are_the_same_input(tmp_path, capsys, monkeypatch, case):
    # verify once read --domain-bits from the flag alone: the config form
    # printed outcome=5 ... match=true where the flag form prints BOT.
    monkeypatch.chdir(tmp_path)
    transcript = tmp_path / "session.txt"
    cli.main(["run", "--n", "3", "--m", "0", "--value", "5", "--seed", "1",
              "--trials", "1", "--out", str(transcript)])
    capsys.readouterr()
    argv, key, value = SAME_INPUT_CASES[case]
    seen = {}
    for form in ("none", "flag", "config"):
        d = tmp_path / form
        d.mkdir()
        full = [a.format(transcript=transcript, dir=d) for a in argv]
        if form == "flag":
            full += ["--" + key.replace("_", "-"), value.format(dir=d)]
        elif form == "config":
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"{key}={value.format(dir=d)}\n")
            full = ["--config", str(cfg)] + full
        code = cli.main(full)
        files = {p.name: p.read_bytes() for p in d.iterdir()}
        seen[form] = code, capsys.readouterr().out, files
    assert seen["config"] == seen["flag"] != seen["none"]


def int_texts(lo, hi):
    """Integers as a config file might spell them: decimal or hex, signed,
    with or without 0x, plus a few that no base reads."""
    return st.one_of(
        st.builds(format, st.integers(lo, hi), st.sampled_from(["d", "x", "#x", "+d", "+#x"])),
        st.sampled_from(["", "x", "0x", "--1", "1_0", "9" * 40]))


# Values for every key run and attack random-open read; n, m and trials stay
# small so that each example runs in milliseconds.
CONFIG_VALUES = {
    "n": int_texts(-2, 6), "poly": int_texts(-80, 80), "m": int_texts(-2, 5),
    "domain_bits": int_texts(-1, 7), "domain-bits": int_texts(-1, 7),
    "value": int_texts(-3, 70), "seed": int_texts(-5, 1 << 65), "trials": int_texts(-1, 20),
    "workers": st.sampled_from(["1", "0", "-1", "x"]),
    "first_committer": st.sampled_from(["P", "Q", "V", "", "p"]),
}


@st.composite
def config_texts(draw):
    lines = [f"{key}={draw(CONFIG_VALUES[key])}"
             for key in draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), max_size=10))]
    lines += draw(st.lists(st.sampled_from(["", "# note", "=", "n", " n = 3 ", "poly==b"]),
                           max_size=3))
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=200, deadline=None)
@given(config_texts(), st.sampled_from([["run"], ["attack", "random-open"]]))
def test_config_files_end_in_a_report_or_a_usage_error(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(["--config", path, *command])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:")


def test_outdir_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RELCOMMIT_OUTDIR", str(tmp_path / "outputs"))
    run_cli(capsys, "run", "--n", "3", "--m", "0", "--value", "01",
            "--seed", "3", "--trials", "1", "--out", "session.txt")
    assert (tmp_path / "outputs" / "session.txt").exists()


def free_port():
    s = socket.socket()
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


@pytest.mark.parametrize("argv", [
    ("prove", "--role", "P", "--endpoint", "127.0.0.1:99999"),
    ("prove", "--role", "Q", "--endpoint", "127.0.0.1:-1"),
    ("serve", "--p-endpoint", "127.0.0.1:99999", "--q-endpoint", "127.0.0.1:1"),
    ("serve", "--p-endpoint", "127.0.0.1:1", "--q-endpoint", "localhost"),
])
def test_endpoint_ports_outside_0_to_65535_are_usage_errors(capsys, argv):
    # Once a bind() OverflowError traceback (prove), an abort 0x03 (serve)
    # and, without a port, an int() message that named no endpoint.
    code, err = usage_error(capsys, *argv, "--n", "4", "--m", "2", "--seed", "1")
    assert code == 2 and err.startswith("error: endpoint must be host:port with a port "
                                        "in 0..65535, got '"), err


@pytest.mark.parametrize("entry", ["flag", "config"])
def test_deadlines_beyond_a_day_are_usage_errors(tmp_path, capsys, entry):
    # 10^13 ms once overflowed the socket timeout of the first round read.
    argv = ["serve", "--n", "4", "--m", "2", "--seed", "1",
            "--p-endpoint", "127.0.0.1:1", "--q-endpoint", "127.0.0.1:1"]
    if entry == "flag":
        argv += ["--deadline-ms", "10000000000000"]
    else:
        cfg = tmp_path / "serve.cfg"
        cfg.write_text("deadline_ms=10000000000000\n")
        argv = ["--config", str(cfg)] + argv
    code, err = usage_error(capsys, *argv)
    assert code == 2 and err.startswith("error: per_round_ms must be in 1..86400000"), err


def test_serve_and_prove_loopback(tmp_path, capsys):
    p_port, q_port = free_port(), free_port()
    codes = {}

    def prover(role, port):
        codes[role] = cli.main(["prove", "--role", role, "--endpoint",
                                f"127.0.0.1:{port}", "--n", "4", "--m", "2",
                                "--seed", "11", "--value", "05"])

    threads = [threading.Thread(target=prover, args=("P", p_port), daemon=True),
               threading.Thread(target=prover, args=("Q", q_port), daemon=True)]
    for t in threads:
        t.start()
    import time
    time.sleep(0.3)
    out = tmp_path / "net.txt"
    code = cli.main(["serve", "--n", "4", "--m", "2", "--seed", "11",
                     "--deadline-ms", "2000",
                     "--p-endpoint", f"127.0.0.1:{p_port}",
                     "--q-endpoint", f"127.0.0.1:{q_port}",
                     "--out", str(out)])
    for t in threads:
        t.join(10.0)
    text = capsys.readouterr().out
    assert code == 0
    assert "outcome=5" in text
    assert codes == {"P": 0, "Q": 0}
    verify_code = cli.main(["verify", str(out)])
    assert verify_code == 0


def test_serve_writes_out_only_for_a_completed_session(tmp_path, capsys):
    out = tmp_path / "net.txt"
    code = cli.main(["serve", "--n", "4", "--m", "2", "--seed", "11",
                     "--p-endpoint", f"127.0.0.1:{free_port()}",
                     "--q-endpoint", f"127.0.0.1:{free_port()}", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().out.strip() == "aborted reason=0x03"
    assert not out.exists()
