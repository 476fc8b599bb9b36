"""Command-line front end: JSON persistence, certificate replay, CSV sweeps.

Exit codes: 0 for PASS/found/success, 1 for EXHAUSTED/not-found/failed
verification, 2 for invalid input of any kind and for an internal error
(one ``internal error:`` line, never a traceback).  Every document goes
out through ``_emit``, the one rule for ``--out`` and ``--json``.  Output
files are written atomically (temp file in the same directory, then
rename).  Every emitted certificate embeds a run manifest with content
digests of its input files; set SOURCE_DATE_EPOCH for byte-reproducible
documents across runs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import re
import sys
import tempfile
import time
from fractions import Fraction

from . import __version__
from .bipartite import _match_with_deficiency, max_matching, mu_with_witness
from .cover import Covering, GroundSet, join, refines, star_iterate, star_refines
from .folner import (
    BallsStrategy,
    Coloring,
    LocalSetStrategy,
    Finding,
    check_certificate,
    folner_search,
    adversary_coloring,
    ball_walk,
    monochromatic_translate,
    perfect_net,
    required_pairs,
    theta_threshold,
)
from .groups import FreeGroup, GroupModel, IntegerLattice, group_from_json
from .means import convolve, rationalize
from .ramsey import check_report, ramsey_condition_check
from . import serialize as ser


def _now_iso() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _manifest(argv, input_paths, seed, outcome) -> dict:
    return {
        "argv": list(argv),
        "inputs": {p: _digest(p) for p in input_paths if p},
        "seed": seed,
        "version": __version__,
        "timestamp": _now_iso(),
        "outcome": outcome,
    }


def _atomic_write(
    path: str, text: str, suffix: str = ".json", newline: str | None = None
) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=suffix)
    try:
        with os.fdopen(fd, "w", newline=newline) as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _status_text(word: str) -> str:
    if os.environ.get("NO_COLOR") or not sys.stdout.isatty():
        return word
    color = "32" if word in ("PASS", "FOUND", "OK") else "31"
    return f"\x1b[{color}m{word}\x1b[0m"


_BUILTIN_GROUP = re.compile(r"(zd|free)(\d+)")  # the one place for these spellings


def _load_group(spec: str) -> GroupModel:
    m = _BUILTIN_GROUP.fullmatch(spec)
    if m:
        return (IntegerLattice if m[1] == "zd" else FreeGroup)(int(m[2]))
    return group_from_json(_load_json(spec))


def _group_input_path(spec: str) -> str | None:
    return None if _BUILTIN_GROUP.fullmatch(spec) else spec


def _parse_elems(model: GroupModel, text: str | None, path: str | None) -> tuple:
    if (text is None) == (path is None):
        raise ValueError("pass exactly one of the inline list or the file form")
    if path is not None:
        return tuple(ser.elems_from_json(model, _load_json(path)))
    return tuple(model.parse_elem(part.strip()) for part in text.split(";") if part.strip())


def builtin_coloring(model: GroupModel, name: str, window) -> Coloring:
    """Window colorings available by name: trivial, parity, first-letter."""
    ground = GroundSet(sorted(set(window), key=model.sort_key))
    if name == "trivial":
        return Coloring(ground, tuple(0 for _ in ground.atoms), 1)
    if name == "parity":
        if isinstance(model, IntegerLattice):
            colors = tuple(sum(v) % 2 for v in ground.atoms)
        elif isinstance(model, FreeGroup):
            colors = tuple(len(w) % 2 for w in ground.atoms)
        else:
            colors = tuple(int(g) % 2 for g in ground.atoms)
        return Coloring(ground, colors, 1)
    if name == "first-letter":
        if not isinstance(model, FreeGroup):
            raise ValueError("first-letter coloring needs a free group")
        k = 2 * model.rank

        def code(word):
            if not word:
                return 0
            x = word[0]
            return 2 * x - 1 if x > 0 else -2 * x

        return Coloring(ground, tuple(code(w) for w in ground.atoms), k)
    raise ValueError(f"unknown builtin coloring: {name!r}")


def _cover_for_search(model, args, e_set, strategy) -> tuple:
    """Resolve --cover/--coloring into a Covering plus the input path used.

    Only a builtin coloring reads the search window, so only it builds one.
    """
    if args.cover:
        return ser.covering_from_json(_load_json(args.cover), model), args.cover
    if args.coloring:
        if os.path.exists(args.coloring):
            col = ser.coloring_from_json(_load_json(args.coloring), model)
            return col.partition(), args.coloring
        window = _search_window(model, e_set, strategy)
        return builtin_coloring(model, args.coloring, window).partition(), None
    raise ValueError("one of --cover or --coloring is required")


def _search_window(model, e_set, strategy) -> tuple:
    """The ball the strategy roams, with its translates by E."""
    if isinstance(strategy, BallsStrategy):
        base = model.ball(strategy.max_radius)
    else:
        base = model.ball(4)  # roaming room for local moves
    window = set(base)
    mul = model.unchecked_multiply
    for g in e_set:  # E is validated by _parse_elems, the ball by construction
        window.update([mul(g, x) for x in base])
    return tuple(sorted(window, key=model.sort_key))


def _emit(args, doc: dict, summary: str | None = None) -> None:
    """The one output rule: ``--out`` gets the document; otherwise stdout
    gets it under ``--json`` or when there is no summary; the summary is
    printed unless ``--json`` is given."""
    as_json = getattr(args, "json", False)
    if args.out:
        _atomic_write(args.out, ser.canonical_dumps(doc))
    elif as_json or summary is None:
        sys.stdout.write(ser.canonical_dumps(doc))
    if summary is not None and not as_json:
        print(summary)


# -- subcommand handlers ------------------------------------------------------


def _require_flags(args, *names) -> None:
    """Name the first flag this action reads that was not given."""
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"{args.command} {args.action} needs --{name}")


def _cmd_cover(args, argv) -> int:
    if args.action in ("refines", "star-refines"):
        _require_flags(args, "coarse", "fine")
        coarse = ser.covering_from_json(_load_json(args.coarse))
        fine = ser.covering_from_json(_load_json(args.fine))
        word = args.action.removesuffix("s")  # "refine" or "star-refine"
        result = (refines if word == "refine" else star_refines)(coarse, fine)
        summary = args.action if result else f"does not {word}"
        _emit(args, {args.action.replace("-", "_"): result}, summary)
        return 0
    if args.json:  # join and star print the document itself: no summary to replace
        raise ValueError(f"cover {args.action} prints no summary; --json does not apply")
    if args.action == "join":
        _require_flags(args, "u", "v")
        u = ser.covering_from_json(_load_json(args.u))
        v = ser.covering_from_json(_load_json(args.v))
        _emit(args, ser.covering_to_json(join(u, v)))
        return 0
    if args.action == "star":
        _require_flags(args, "u")
        u = ser.covering_from_json(_load_json(args.u))
        _emit(args, ser.covering_to_json(star_iterate(u, args.n)))
        return 0
    raise ValueError(f"unknown cover action {args.action!r}")


def _cmd_mu(args, argv) -> int:
    cover = ser.covering_from_json(_load_json(args.cover))
    left = ser.elems_from_json(None, _load_json(args.left))
    right = ser.elems_from_json(None, _load_json(args.right))
    value, witness = mu_with_witness(left, right, cover)
    doc = {
        "mu": value,
        "left": list(cover.ground.canon(left)),
        "right": list(cover.ground.canon(right)),
        "witness": ser.witness_to_json(witness),
    }
    summary = None  # --json prints no summary, so its witness text is not written
    if not args.json:
        summary = f"mu = {value}\n" + ser.canonical_dumps(doc["witness"]).rstrip("\n")
    _emit(args, doc, summary)
    return 0


def _cmd_match(args, argv) -> int:
    graph = ser.graph_from_json(_load_json(args.graph))
    if args.deficiency:
        size, witness, deficiency, subset = _match_with_deficiency(graph)
    else:
        size, witness = max_matching(graph)
    doc = {"size": size, "witness": ser.witness_to_json(witness)}
    summary = f"maximum matching size = {size}"
    if args.deficiency:
        doc["deficiency"] = deficiency
        doc["deficiency_witness"] = list(subset)
        summary += f"\nhall deficiency = {deficiency} at S = {doc['deficiency_witness']}"
    _emit(args, doc, summary)
    return 0


def _cmd_folner_search(args, argv) -> int:
    model = _load_group(args.group)
    e_set = _parse_elems(model, args.e, args.e_file)
    theta = ser.frac_parse(args.theta)
    if args.strategy == "balls":
        strategy = BallsStrategy(args.max_radius)
    else:
        strategy = LocalSetStrategy(seed=args.seed, budget=args.budget)
    cover, cover_path = _cover_for_search(model, args, e_set, strategy)
    result = folner_search(model, e_set, cover, theta, mode=args.mode, strategy=strategy)
    inputs = [p for p in (_group_input_path(args.group), cover_path, args.e_file) if p]
    outcome = 0 if result.status == "PASS" else 1
    doc = ser.certificate_to_json(result.certificate)
    if outcome:
        doc["schema"] = ser.FOLNER_EXHAUSTED_SCHEMA
        doc["best_ratio"] = ser.frac_str(result.best_ratio)
        doc["evaluations"] = result.evaluations
    doc["manifest"] = _manifest(argv, inputs, args.seed, outcome)
    _emit(args, doc)
    print(
        f"{_status_text(result.status)}: |F| = {len(result.best_f)}, "
        f"min ratio = {result.best_ratio} ({result.evaluations} candidates)",
        file=sys.stderr,
    )
    return outcome


def _vacuity(cert) -> str | None:
    """Why a PASS claim holds whatever F is, or None: no pair to check, or
    a threshold of 0."""
    reasons = []
    if not cert.e_set:
        reasons.append("E is empty")
    elif not required_pairs(cert.group, cert.e_set, cert.mode):
        reasons.append("sym mode with one translate has no pair to check")
    if cert.theta == 0:
        reasons.append("theta = 0")
    return "; ".join(reasons) or None


def _verify_certificate_doc(doc) -> int:
    cert = ser.certificate_from_json(doc)
    report = check_certificate(cert)
    return _verdict(report.findings, report.ok and cert.status == "PASS", _vacuity(cert))


def _verify_exhausted_doc(doc) -> int:
    """FAIL pair data that replays exactly, with only threshold misses, and
    the replayed min ratio as its best ratio."""
    cert, best_ratio = ser.exhausted_from_json(doc)
    findings = check_certificate(cert).findings
    ok = cert.status == "FAIL" and all(f.code == "threshold-miss" for f in findings)
    if best_ratio != cert.min_ratio:
        message = f"stored {best_ratio}, recomputed {cert.min_ratio}"
        findings = [Finding("best-ratio-mismatch", message), *findings]
        ok = False
    return _verdict(findings, ok)


def _verify_ramsey_doc(doc) -> int:
    report = check_report(*ser.ramsey_outcome_from_json(doc))
    return _verdict(report.findings, report.ok)


def _verdict(findings, ok: bool, vacuous: str | None = None) -> int:
    """Findings and any vacuity on stderr, then the verdict on stdout: VACUOUS
    (exit 1) for a vacuous claim that checks, else OK (exit 0) or FAIL (1)."""
    for finding in findings:
        print(f"{finding.code}: {finding.message}", file=sys.stderr)
    if vacuous:
        print(f"vacuous: {vacuous}", file=sys.stderr)
        if ok:
            print(_status_text("VACUOUS"))
            return 1
    print(_status_text("OK" if ok else "FAIL"))
    return 0 if ok else 1


def _cmd_verify(args, argv) -> int:
    doc = _load_json(args.path)
    schema = ser.schema_from_json(doc)
    if schema == ser.RAMSEY_SCHEMA:
        return _verify_ramsey_doc(doc)
    if schema == ser.FOLNER_EXHAUSTED_SCHEMA:
        return _verify_exhausted_doc(doc)
    return _verify_certificate_doc(doc)


def _cmd_folner_adversary(args, argv) -> int:
    model = _load_group(args.group)
    f_set = _parse_elems(model, args.f, args.f_file)
    e_set = _parse_elems(model, args.e, args.e_file)
    coloring, ratio = adversary_coloring(model, f_set, e_set, args.colors, mode=args.mode)
    doc = {
        "coloring": ser.coloring_to_json(coloring, model),
        "min_ratio": ser.frac_str(ratio),
    }
    _emit(args, doc, f"worst coloring found: min ratio = {ratio}")
    return 0


def _cmd_folner_net(args, argv) -> int:
    model = _load_group(args.group)
    if not hasattr(model, "order"):
        raise ValueError("perfect nets need a finite table group")
    u_set = _parse_elems(model, args.u, args.u_file)
    net = perfect_net(model, u_set)
    write = ser._atom_writer(model)
    doc = {
        "v": list(map(write, net.v_set)),
        "f": list(map(write, net.f_set)),
        "minimal": net.minimal,
        "matchings": [
            {"g": write(g), "witness": ser.witness_to_json(w)}
            for g, w in net.matchings
        ],
    }
    summary = (
        f"V = {{{', '.join(doc['v'])}}}, "
        f"|F| = {len(net.f_set)}, all {len(net.matchings)} translates perfect"
    )
    _emit(args, doc, summary)
    return 0


def _cmd_folner_mono(args, argv) -> int:
    model = _load_group(args.group)
    window = tuple(ser.elems_from_json(model, _load_json(args.window)))
    cover = ser.covering_from_json(_load_json(args.cover), model)
    e_set = _parse_elems(model, args.e, args.e_file)
    found = monochromatic_translate(model, window, cover, e_set)
    if found is None:
        print(_status_text("NOT-FOUND"))
        return 1
    g, block = found
    write = ser._atom_writer(model)
    doc = {"g": write(g), "block": list(map(write, block))}
    _emit(args, doc, f"{_status_text('FOUND')}: g = {doc['g']}")
    return 0


def _cmd_means(args, argv) -> int:
    if args.action == "convolve":
        _require_flags(args, "group", "a", "b")
        model = _load_group(args.group)
        a = ser.mean_from_json(_load_json(args.a), model)
        b = ser.mean_from_json(_load_json(args.b), model)
        _emit(args, ser.mean_to_json(convolve(a, b)))
        return 0
    if args.action == "rationalize":
        _require_flags(args, "alpha", "theta")
        alpha = ser.weights_from_json(_load_json(args.alpha))
        beta, n, gamma = rationalize(alpha, ser.frac_parse(args.theta))
        doc = {
            "n": n,
            "beta": {k: ser.frac_str(v) for k, v in beta.items()},
            "gamma": dict(gamma),
        }
        _emit(args, doc)
        return 0
    raise ValueError(f"unknown means action {args.action!r}")


def _cmd_ramsey(args, argv) -> int:
    a = ser.finmetric_from_json(_load_json(args.a))
    b = ser.finmetric_from_json(_load_json(args.b))
    c = ser.finmetric_from_json(_load_json(args.c))
    eps = ser.frac_parse(args.eps)
    outcome = ramsey_condition_check(
        a, b, c, args.colors, eps, max_family=args.max_family, family_budget=args.budget
    )
    doc = ser.ramsey_outcome_to_json(outcome, a, b, c, args.max_family, args.budget)
    doc["manifest"] = _manifest(argv, [args.a, args.b, args.c], args.seed, 0 if outcome.holds else 1)
    _emit(args, doc)
    label = "HOLDS" if outcome.holds else "FAILS"
    print(
        f"{_status_text('PASS' if outcome.holds else 'EXHAUSTED')}: condition {label} "
        f"over {outcome.colorings_checked} colorings",
        file=sys.stderr,
    )
    return 0 if outcome.holds else 1


def _parse_grid(spec: str) -> list:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError("theta grid must look like start:stop:step")
    start, stop, step = (ser.frac_parse(p) for p in parts)
    if step <= 0:
        raise ValueError("grid step must be positive")
    if start > stop:
        raise ValueError("theta grid is empty: start exceeds stop")
    grid = []
    t = start
    while t <= stop:
        grid.append(t)
        t += step
    return grid


def _cmd_sweep(args, argv) -> int:
    model = _load_group(args.group)
    if args.e or args.e_file:
        e_set = _parse_elems(model, args.e, args.e_file)
    else:
        e_set = model.generators()
    grid = _parse_grid(args.theta_grid)
    strategy = BallsStrategy(args.max_radius)
    if args.cover or args.coloring:
        cover, _ = _cover_for_search(model, args, e_set, strategy)
    else:
        window = _search_window(model, e_set, strategy)
        cover = builtin_coloring(model, "parity", window).partition()
    pairs = required_pairs(model, e_set, args.mode)
    per_radius = [
        (radius, f_size, min_mu)
        for radius, (f_size, min_mu, _) in enumerate(
            ball_walk(model, args.max_radius, pairs, cover)
        )
    ]
    rows = []
    for theta in grid:
        for radius, f_size, min_mu in per_radius:
            ratio = Fraction(min_mu, f_size)
            rows.append(
                {
                    "theta": ser.frac_str(theta),
                    "radius": radius,
                    "f_size": f_size,
                    "min_mu": min_mu,
                    "min_ratio": ser.frac_str(ratio),
                    "min_ratio_decimal_lossy": float(ratio),
                    "pass": min_mu >= theta_threshold(theta, f_size),
                }
            )
    out = args.out or "sweep.csv"
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    _atomic_write(out, text.getvalue(), suffix=".csv", newline="")
    print(f"wrote {len(rows)} rows to {out}", file=sys.stderr)
    return 0


# -- parser -------------------------------------------------------------------


def _add_output(p, summary=True):
    """``--out`` for the document, and ``--json`` where a summary is printed."""
    if summary:
        p.add_argument("--json", action="store_true", help="print the document, not the summary")
    p.add_argument("--out", help="write the result document to this path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchcover",
        description="exact covering calculus, matching certificates, and searches",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cover", help="covering calculus on JSON coverings")
    p.add_argument("action", choices=["refines", "join", "star", "star-refines"])
    p.add_argument("--coarse")
    p.add_argument("--fine")
    p.add_argument("--u")
    p.add_argument("--v")
    p.add_argument("-n", type=int, default=1, help="star iterate count")
    _add_output(p)
    p.set_defaults(handler="_cmd_cover")

    p = sub.add_parser("mu", help="matching number between two sets under a covering")
    p.add_argument("--cover", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    _add_output(p)
    p.set_defaults(handler="_cmd_mu")

    p = sub.add_parser("match", help="maximum matching on a bipartite graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--deficiency", action="store_true")
    _add_output(p)
    p.set_defaults(handler="_cmd_match")

    p = sub.add_parser("folner", help="certificate search, adversaries, nets")
    fol = p.add_subparsers(dest="action", required=True)

    q = fol.add_parser("search")
    q.add_argument("--group", required=True)
    q.add_argument("--cover")
    q.add_argument("--coloring")
    q.add_argument("--e")
    q.add_argument("--e-file")
    q.add_argument("--theta", required=True)
    q.add_argument("--mode", choices=["asym", "sym"], default="asym")
    q.add_argument("--strategy", choices=["balls", "local"], default="balls")
    q.add_argument("--max-radius", type=int, default=8)
    q.add_argument("--budget", type=int, default=300)
    _add_output(q, summary=False)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(handler="_cmd_folner_search")

    q = fol.add_parser("adversary")
    q.add_argument("--group", required=True)
    q.add_argument("--f")
    q.add_argument("--f-file")
    q.add_argument("--e")
    q.add_argument("--e-file")
    q.add_argument("--colors", type=int, default=1, help="colors are 0..k")
    q.add_argument("--mode", choices=["asym", "sym"], default="asym")
    q.add_argument("--budget", type=int, default=2000, help="accepted; has no effect")
    _add_output(q)
    q.add_argument("--seed", type=int, default=0, help="accepted; has no effect")
    q.set_defaults(handler="_cmd_folner_adversary")

    q = fol.add_parser("net")
    q.add_argument("--group", required=True)
    q.add_argument("--u")
    q.add_argument("--u-file")
    _add_output(q)
    q.set_defaults(handler="_cmd_folner_net")

    q = fol.add_parser("mono")
    q.add_argument("--group", required=True)
    q.add_argument("--window", required=True)
    q.add_argument("--cover", required=True)
    q.add_argument("--e")
    q.add_argument("--e-file")
    _add_output(q)
    q.set_defaults(handler="_cmd_folner_mono")

    p = sub.add_parser("means", help="convolution and rational approximation")
    p.add_argument("action", choices=["convolve", "rationalize"])
    p.add_argument("--group")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--alpha")
    p.add_argument("--theta")
    _add_output(p, summary=False)
    p.set_defaults(handler="_cmd_means")

    p = sub.add_parser("ramsey", help="matching condition on finite metric spaces")
    ram = p.add_subparsers(dest="action", required=True)
    q = ram.add_parser("check")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--c", required=True)
    q.add_argument("--colors", type=int, default=1)
    q.add_argument("--eps", required=True)
    q.add_argument("--budget", type=int, default=2000)
    q.add_argument("--max-family", type=int, default=4)
    _add_output(q, summary=False)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(handler="_cmd_ramsey")

    p = sub.add_parser("sweep", help="CSV of min ratios per (theta, radius)")
    p.add_argument("--group", required=True)
    p.add_argument("--e")
    p.add_argument("--e-file")
    p.add_argument("--cover")
    p.add_argument("--coloring")
    p.add_argument("--theta-grid", required=True)
    p.add_argument("--max-radius", type=int, default=8)
    p.add_argument("--mode", choices=["asym", "sym"], default="asym")
    p.add_argument("--out", help="write the CSV to this path (default sweep.csv)")
    p.set_defaults(handler="_cmd_sweep")

    p = sub.add_parser("verify", help="replay any emitted certificate document")
    p.add_argument("path")
    p.set_defaults(handler="_cmd_verify")

    return parser


_PARSER: argparse.ArgumentParser | None = None


def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use.  ``parse_args`` keeps
    no state between calls, and each leaf names its handler, which
    ``dispatch`` looks up when it runs, so a replaced ``_cmd_*`` is seen."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    return _PARSER


def dispatch(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return globals()[args.handler](args, argv)
    except (ValueError, OSError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # last resort: never a traceback, never exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
