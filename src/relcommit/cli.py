"""Experiment driver: sessions, attacks, analyses, searches, verification.

Every command is deterministic given its flags and seed.  A flat key=value
config file may supply defaults (overridden by flags); the only environment
knob is RELCOMMIT_OUTDIR, which relocates relative output paths.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cache, partial

from . import adversary, analysis, engine, net
from .analysis import frac_text
from .field import FieldSpec
from .scheme import BOT, SchemeParams, multiround_verify


def _outpath(path):
    outdir = os.environ.get("RELCOMMIT_OUTDIR")
    if outdir and not os.path.isabs(path):
        os.makedirs(outdir, exist_ok=True)
        return os.path.join(outdir, path)
    return path


def _load_config(path):
    cfg = {}
    if path:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                k, _, v = line.partition("=")
                cfg[k.strip().replace("-", "_")] = v.strip()
    return cfg


def _get(args, key, cast, default=None):
    v = getattr(args, key)
    if v is None:
        if default is None:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")
        return default
    return cast(v)


def _trials_workers(args, default=None):
    trials = _get(args, "trials", int, default)
    workers = _get(args, "workers", int, 1)
    if trials < 1:
        raise ValueError("--trials must be >= 1")
    if workers < 1:
        raise ValueError("--workers must be >= 1")
    return trials, workers


def _field(args) -> FieldSpec:
    n = _get(args, "n", int)
    if not args.poly:
        return FieldSpec.default(n)
    return FieldSpec(n, int(args.poly, 16))


def _params(args) -> SchemeParams:
    spec = _field(args)
    m = _get(args, "m", int, 0)
    k = args.domain_bits
    fc = _get(args, "first_committer", str, "P")
    return SchemeParams(spec, m, int(k) if k else None, fc)


def _write_out(args, session):
    """Write the transcript of session() to --out, when one is given."""
    if args.out:
        with open(_outpath(args.out), "w") as fh:
            fh.write(session().to_text())


def _endpoint(text: str):
    host, _, port = text.rpartition(":")
    if not (port.isdigit() and int(port) <= 0xFFFF):
        raise ValueError(f"endpoint must be host:port with a port in 0..65535, got {text!r}")
    return (host or "127.0.0.1", int(port))


# -- subcommands --------------------------------------------------------------


def _honest_trial(params, value, tseed):
    return engine.run_honest_session(params, value, tseed).outcome != value, 1


def cmd_run(args) -> int:
    params = _params(args)
    value = _get(args, "value", lambda v: int(v, 16))
    seed = _get(args, "seed", int)
    trials, workers = _trials_workers(args, 1)
    res = analysis.seeded_trials(partial(_honest_trial, params, value), trials, seed,
                                 workers)
    _write_out(args, lambda: engine.run_honest_session(
        params, value, engine.stream_u64(seed, engine.STREAM_TRIAL, 0)))
    expected = 1 - (1 - 2.0 ** -params.field.n) ** (params.m + 1)
    rate, sigma, ok = res.three_sigma(expected)
    print(f"trials={trials} accept={trials - res.hits} reject={res.hits} "
          f"failure_rate={rate:.6f} expected={expected:.6f} "
          f"sigma={sigma:.6f} pass={'true' if ok else 'false'}")
    return 0 if ok else 1


def _load_or_search_tables(spec: FieldSpec, args) -> adversary.ChshTables:
    cache_dir = _outpath(args.cache or ".")
    path = os.path.join(cache_dir, f"chsh_n{spec.n}_poly{spec.poly:x}.tables")
    if os.path.exists(path):
        with open(path) as fh:
            return adversary.parse_tables(fh.read())
    tables = adversary.brute_force_chsh(spec)
    os.makedirs(cache_dir, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(adversary.serialize_tables(tables))
    return tables


def _random_open_family(value, target):
    return engine.HonestCommit(value), adversary.RandomOpen()


def cmd_attack(args) -> int:
    params = _params(args)
    seed = _get(args, "seed", int)
    trials, workers = _trials_workers(args)
    spec = params.field

    if args.attack_kind == "tightness":
        target = _get(args, "target", lambda v: int(v, 16))
        tables = _load_or_search_tables(spec, args)
        family = partial(adversary.tightness_strategy, tables=tables, params=params)
        closed = adversary.tightness_success_probability(tables.q, params.m)
    else:
        target = None
        family = partial(_random_open_family,
                         _get(args, "value", lambda v: int(v, 16), 0))
        closed = Fraction(1, spec.order)
    res = analysis.seeded_trials(
        partial(analysis.open_game_trial, params, family, target=target,
                condition_nonzero=True), trials, seed, workers)
    emp, sigma, ok = res.three_sigma(float(closed))
    print(f"attack={args.attack_kind} n={spec.n} m={params.m} trials={trials} "
          f"conditioned={res.conditioned} hits={res.hits} empirical={emp:.6f} "
          f"closed_form={frac_text(closed)} sigma={sigma:.6f} "
          f"pass={'true' if ok else 'false'}")
    return 0 if ok else 1


def cmd_analyze(args) -> int:
    metric = args.metric
    if metric == "coupling":
        trials, workers = _trials_workers(args, 1000)
        seed = _get(args, "seed", int, 1)
        bad = analysis.seeded_trials(_coupling_trial, trials, seed, workers).hits
        n, value, bound = 0, Fraction(bad, trials), Fraction(0)
        ok = bad == 0
    elif metric == "hiding":
        params = _params(args)
        n, value, bound = params.field.n, analysis.max_hiding_distance(params), Fraction(0)
        ok = value == 0
    else:
        spec = _field(args)
        n = spec.n
        scheme = analysis.chsh_scheme(spec, bit=metric == "p0p1")
        if metric == "p0p1":
            value, bound = analysis.max_p0_plus_p1(scheme), 1 + Fraction(1, spec.order)
            ok = value <= bound
        elif metric == "sim-open":
            value, bound = analysis.sim_open_epsilon(scheme), Fraction(1, spec.order)
            ok = value <= bound
        elif metric == "extractor":
            value, alpha = analysis.max_extractor_violation(scheme)
            bound, ok = 2 * alpha, value < 2 * alpha
        elif metric == "k":
            value, bound = Fraction(analysis.k_of_extr(scheme)), Fraction(1)
            ok = value == 1
        else:
            raise ValueError(f"unknown metric {metric!r}")
    print(analysis.report_line(metric, n, value, bound, ok))
    return 0 if ok else 1


def _random_pmf(seed: int, stream: int) -> analysis.Dist:
    draws = engine.stream_values(seed, stream, 5, 64)  # stream_u64 of indices 0..4
    return analysis.Dist.from_counts({i: v % 97 + (i == 0) for i, v in enumerate(draws)})


def _coupling_trial(tseed):
    return not analysis.maximal_coupling_holds(_random_pmf(tseed, engine.STREAM_PMF_P),
                                               _random_pmf(tseed, engine.STREAM_PMF_Q)), 1


def cmd_chsh_search(args) -> int:
    spec = _field(args)
    tables = _load_or_search_tables(spec, args)
    print(f"chsh-search n={spec.n} poly=0x{spec.poly:x} q={frac_text(tables.q)}")
    return 0


def cmd_verify(args) -> int:
    try:
        with open(args.path) as fh:
            t = engine.parse_transcript(fh.read())
        y_final = t.final_opening()
    except (engine.TranscriptParseError, ValueError) as e:
        print(f"parse-error: {e}", file=sys.stderr)
        return 2
    # The transcript parsed; a bad --domain-bits is a flag error for main.
    k = args.domain_bits
    params = t.params if not k else replace(t.params, domain_bits=int(k))
    outcome = multiround_verify(params, t.challenges(), t.responses(), y_final)
    spec = params.field
    fmt = lambda o: "BOT" if o is BOT else spec.to_hex(o)
    match = outcome == t.outcome
    print(f"outcome={fmt(outcome)} recorded={fmt(t.outcome)} "
          f"match={'true' if match else 'false'}")
    return 0 if match else 1


def cmd_serve(args) -> int:
    params = _params(args)
    seed = _get(args, "seed", int)
    deadline = _get(args, "deadline_ms", int, 1000)
    dl = net.DeadlineConfig(deadline,
                            _endpoint(_get(args, "p_endpoint", str)),
                            _endpoint(_get(args, "q_endpoint", str)))
    res = net.serve_verifier(params, dl, seed)
    if res.aborted:
        print(f"aborted reason=0x{res.abort_reason:02x}")
        return 1
    _write_out(args, lambda: res.transcript)
    spec = params.field
    o = res.transcript.outcome
    print(f"outcome={'BOT' if o is BOT else spec.to_hex(o)}")
    return 0


def cmd_prove(args) -> int:
    params = _params(args)
    seed = _get(args, "seed", int)
    value = _get(args, "value", lambda v: int(v, 16), 0)
    role = _get(args, "role", str)
    ep = _endpoint(_get(args, "endpoint", str))
    return net.run_prover(role, params, seed, ep, value)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="relcommit")
    ap.add_argument("--config", help="key=value file supplying defaults")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, *names):
        if "n" in names:
            p.add_argument("--n", type=int)
            p.add_argument("--poly", help="reduction polynomial, hex")
        if "m" in names:
            p.add_argument("--m", type=int)
            p.add_argument("--domain-bits", dest="domain_bits")
            p.add_argument("--first-committer", dest="first_committer")
        if "seed" in names:
            p.add_argument("--seed", type=int)
        if "trials" in names:
            p.add_argument("--trials", type=int)
            p.add_argument("--workers", type=int)

    p = sub.add_parser("run", help="seeded honest sessions")
    common(p, "n", "m", "seed", "trials")
    p.add_argument("--value", help="committed value, hex")
    p.add_argument("--out", help="write the first trial's transcript here")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("attack", help="run an adversarial strategy")
    p.add_argument("attack_kind", choices=["tightness", "random-open"])
    common(p, "n", "m", "seed", "trials")
    p.add_argument("--target", help="value the attack opens toward, hex")
    p.add_argument("--value", help="honest committed value (random-open), hex")
    p.add_argument("--cache", help="directory for cached game tables")
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("analyze", help="exact definitional measurements")
    p.add_argument("metric", choices=["p0p1", "sim-open", "hiding",
                                      "extractor", "k", "coupling"])
    common(p, "n", "m", "seed", "trials")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("chsh-search", help="brute-force optimal game tables")
    common(p, "n")
    p.add_argument("--cache", help="directory for cached game tables")
    p.set_defaults(fn=cmd_chsh_search)

    p = sub.add_parser("verify", help="re-verify a recorded transcript")
    p.add_argument("path")
    p.add_argument("--domain-bits", dest="domain_bits")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("serve", help="networked verifier")
    common(p, "n", "m", "seed")
    p.add_argument("--deadline-ms", dest="deadline_ms", type=int)
    p.add_argument("--p-endpoint", dest="p_endpoint")
    p.add_argument("--q-endpoint", dest="q_endpoint")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("prove", help="networked honest prover")
    common(p, "n", "m", "seed")
    p.add_argument("--role", choices=["P", "Q"])
    p.add_argument("--endpoint")
    p.add_argument("--value", help="committed value, hex")
    p.set_defaults(fn=cmd_prove)
    return ap


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses: built on first use, once per process.  Parsing
    fills a fresh namespace each call, so no call sees another's flags."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        # A config key fills a flag of the command that was not given; the
        # command's own choices (fn, metric, ...) are never None.
        for key, value in cfg.items():
            if getattr(args, key, "") is None:
                setattr(args, key, value)
        return args.fn(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io-error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
