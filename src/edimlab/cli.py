"""Command-line interface.

Subcommands: compute, construct, verify, survey.  Exit codes: 0 success,
2 malformed input or parameters, 3 disconnected input graph, 4 a theorem
check failed.  All output is buffered and derived from sorted aggregates,
so identical invocations produce identical bytes regardless of --threads.
"""

import argparse
import errno
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .constructions import (
    LabeledConstruction,
    _family_counts,
    _standard_counts,
    cartesian_path,
    construct_F,
    construct_H,
    join,
    standard_family,
)
from .errors import BadParamsError, DisconnectedError, FormatError, GraphError
from .experiments import survey_triples
from .formats import edge_list_chunks, parse_graph_text, write_graph6
from .graph import Graph
from .resolver import _pair_cap, edge_metric_dimension, metric_dimension, min_joint_cover
from .theorems import CHECKS, FAILS, MAX_FAMILY_K, check_Fk_theorem, check_Hk_theorem, sweep_theorem


def _build_from_tokens(tokens, instance=None) -> LabeledConstruction | Graph:
    """The graph the tokens name.  Given `instance`, which maps the
    graph's (vertices, edges) to the (landmarks, objects) of the first
    cover-search instance the caller builds on it, a family over the
    solvers' pair-bit cap is refused from its counts, unbuilt."""
    name, params = tokens[0], tokens[1:]
    try:
        ints = [int(p) for p in params]
    except ValueError:
        raise BadParamsError(f"construction parameters must be integers, got {params!r}")
    fk = name in ("F", "H")
    if fk and len(ints) != 1:
        raise BadParamsError(f"{name} takes exactly one parameter k")
    if instance is not None:
        _pair_cap(*instance(*(_family_counts(name, ints[0]) if fk else _standard_counts(name, ints))))
    if fk:
        return (construct_F if name == "F" else construct_H)(ints[0])
    return standard_family(name, ints)


def _graph_of(obj) -> Graph:
    return obj.graph if isinstance(obj, LabeledConstruction) else obj


def _read_graph_file(name: str, fmt: str = "auto") -> Graph:
    """Parse a graph file; a file that cannot be read is malformed input."""
    try:
        text = Path(name).read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise FormatError(f"input file {name!r} does not exist") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read input file {name!r}: {exc}") from exc
    return parse_graph_text(text, fmt)


def _parse_spec(spec: str, instance=None) -> Graph:
    """Graph spec: a file path, or else an inline 'path:3', 'F:2', 'grid:3,4'.

    A spec naming an existing file is that file, even when it contains ':'.
    Given `instance`, as `_build_from_tokens` reads it (verify passes its
    check's `first`), an F:K or H:K spec over the pair-bit cap is refused
    unbuilt: F_k and H_k each have a universal vertex, so every check
    builds its first instance on them.
    """
    if Path(spec).exists():
        return _read_graph_file(spec)
    if ":" in spec:
        name, _, rest = spec.partition(":")
        params = rest.split(",") if rest else []
        return _graph_of(_build_from_tokens([name, *params], instance if name in ("F", "H") else None))
    raise BadParamsError(f"graph spec {spec!r} is neither 'family:params' nor an existing file")


def _refuse_unread(args, what: str, options) -> None:
    """Exit 2 on an option that `what` does not read, rather than ignore it."""
    for opt in options:
        value = getattr(args, opt.replace("-", "_"))
        if value is not None and value is not False:
            raise BadParamsError(f"{what} does not read --{opt}")


def _load_input(args) -> Graph:
    if args.construct and args.input:
        raise BadParamsError(f"input file {args.input!r} and --construct are two graphs; give one")
    if args.construct:
        if args.format != "auto":  # the default, which reads nothing
            raise BadParamsError("compute --construct does not read --format")
        # the objects that compute's solve guards: see resolver._problem and min_joint_cover
        return _graph_of(_build_from_tokens(
            args.construct, lambda n, m: (n, {"dim": n, "edim": m, "joint": max(n, m)}[args.kind])
        ))
    if args.input:
        return _read_graph_file(args.input, args.format)
    raise BadParamsError("provide an input file or --construct")


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_out(path, chunks) -> None:
    """Write an output file; a path that cannot be written is a bad parameter."""
    try:
        with Path(path).open("w") as f:
            f.writelines(chunks)
    except OSError as exc:
        raise BadParamsError(f"cannot write output file {str(path)!r}: {exc.strerror}") from exc


def _check_writable(*paths) -> None:
    """Refuse output paths that `_write_out` could not write, before any work.

    It creates and truncates nothing: it asks the file system about an
    existing path, or about the directory a new file would go in.
    """
    for path in paths:
        p = Path(path)
        if p.is_dir():
            code = errno.EISDIR
        elif p.exists():
            code = 0 if os.access(p, os.W_OK) else errno.EACCES
        elif not p.parent.is_dir():
            code = errno.ENOTDIR if p.parent.exists() else errno.ENOENT
        else:
            code = 0 if os.access(p.parent, os.W_OK | os.X_OK) else errno.EACCES
        if code:
            raise BadParamsError(f"cannot write output file {str(path)!r}: {os.strerror(code)}")


def _write_json(path, doc) -> None:
    _write_out(path, (json.dumps(doc, indent=2, sort_keys=True) + "\n",))


def _write_manifest(out_path: Path, command: list[str], outputs: list[Path]) -> None:
    _write_json(out_path, {
        "command": command,
        "tool_version": __version__,
        "seed": None,
        "outputs": [
            {"path": p.name, "sha256": _sha256_bytes(p.read_bytes())} for p in outputs
        ],
    })


def cmd_compute(args) -> int:
    _refuse_unread(args, "compute", ("threads",))
    if args.kind == "joint":
        _refuse_unread(args, "compute joint", ("all-bases",))
    g = _load_input(args)
    want_all = args.all_bases
    lines = []
    if args.kind == "joint":
        k, (s, t) = min_joint_cover(g)
        lines.append(f"value: {k}")
        lines.append(f"vertex_basis: {list(s)}")
        lines.append(f"edge_basis: {list(t)}")
    else:
        solver = metric_dimension if args.kind == "dim" else edge_metric_dimension
        res = solver(g, want_all_bases=want_all)
        lines.append(f"value: {res.value}")
        lines.append(f"witness: {list(res.witness)}")
        if want_all:
            for basis in res.all_bases:
                lines.append(f"basis: {list(basis)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_construct(args) -> int:
    reads = {"prod": ("g", "m"), "join": ("g1", "g2")}.get(args.what, ())
    unread = [o for o in ("g", "g1", "g2", "m", "threads") if o not in reads]
    _refuse_unread(args, f"construct {args.what}", unread)
    if reads and args.params:
        raise BadParamsError(f"construct {args.what} takes no positional parameters, got {args.params}")
    if args.out:
        out = Path(args.out)
        sidecar = out.with_name(out.name + ".labels.json")
        _check_writable(out, sidecar)
    if args.what == "prod":
        if not args.g or args.m is None:
            raise BadParamsError("prod needs --g SPEC and --m M")
        obj = cartesian_path(_parse_spec(args.g), args.m)
    elif args.what == "join":
        if not args.g1 or not args.g2:
            raise BadParamsError("join needs --g1 SPEC and --g2 SPEC")
        obj = join(_parse_spec(args.g1), _parse_spec(args.g2))
    elif args.what == "family":
        if not args.params:
            raise BadParamsError("family needs a name and parameters")
        obj = _build_from_tokens(args.params)
    else:
        obj = _build_from_tokens([args.what, *args.params])
    g = _graph_of(obj)
    chunks = (write_graph6(g) + "\n",) if args.format == "graph6" else edge_list_chunks(g)
    if args.out:
        _write_out(out, chunks)
        labels = (
            obj.labels
            if isinstance(obj, LabeledConstruction)
            else tuple(str(v) for v in range(g.n))
        )
        _write_json(sidecar, {str(i): lab for i, lab in enumerate(labels)})
        sys.stdout.write(f"wrote {out} (n={g.n}, m={g.m}) and {sidecar}\n")
    else:
        sys.stdout.writelines(chunks)
    return 0


def _verify_single(reports, report_path) -> int:
    lines = [r.to_record() for r in reports]
    holds = sum(1 for r in reports if r.verdict == "holds")
    fails = sum(1 for r in reports if r.verdict == FAILS)
    na = len(reports) - holds - fails
    lines.append(f"summary: {len(reports)} checked, {holds} holds, {fails} fails, {na} not_applicable")
    sys.stdout.write("\n".join(lines) + "\n")
    if report_path:
        _write_json(report_path, {
            "summary": {"checked": len(reports), "holds": holds, "fails": fails,
                        "not_applicable": na},
            "reports": [r.to_dict() for r in reports],
        })
    return 4 if fails else 0


def cmd_verify(args) -> int:
    theorem = args.theorem
    check = CHECKS.get(theorem)  # None for fk and hk, which no sweep checks
    if not (check and check.reads_m):
        _refuse_unread(args, f"verify {theorem}", ("m",))
    if args.sweep is None:
        _refuse_unread(args, f"verify {theorem} without --sweep", ("threads",))
    given = [f"--{a}" for a in ("graph", "g", "sweep", "kmax") if getattr(args, a) is not None]
    if len(given) > 1:
        raise BadParamsError(f"{given[0]} and {given[1]} are two inputs to check; give one")
    if args.report:
        _check_writable(args.report)
    if theorem in ("fk", "hk"):
        if args.kmax is None or not 1 <= args.kmax <= MAX_FAMILY_K:
            raise BadParamsError(f"{theorem} needs --kmax from 1 to {MAX_FAMILY_K}")
        certify = check_Fk_theorem if theorem == "fk" else check_Hk_theorem
        return _verify_single([certify(k) for k in range(1, args.kmax + 1)], args.report)
    if check.reads_m and args.m is None:
        raise BadParamsError(f"verify {theorem} needs --m M, at least 2")
    if args.graph or args.g:
        if args.g:
            g = _parse_spec(args.g, lambda n, e: check.first(n, e, args.m))
        else:
            g = _read_graph_file(args.graph)
        return _verify_single([check.run(g, args.m)], args.report)
    if args.sweep is None:
        raise BadParamsError("provide --graph, --g, or --sweep")
    summary = sweep_theorem(theorem, args.sweep, threads=args.threads or 1, m=args.m)
    lines = []
    for n, graphs, holds, fails, na in summary.per_n:
        lines.append(f"n={n}: {graphs} graphs, {holds} holds, {fails} fails, {na} not_applicable")
    for r in summary.failures:
        lines.append(r.to_record())
    verdict = "all hold" if summary.ok else f"{summary.fails} FAILURES"
    lines.append(
        f"summary: {summary.graphs} graphs, {summary.holds} holds, "
        f"{summary.fails} fails, {summary.not_applicable} not_applicable ({verdict})"
    )
    sys.stdout.write("\n".join(lines) + "\n")
    if args.report:
        _write_json(args.report, {
            "theorem_id": summary.theorem_id,
            "scope": {"sweep_n_max": args.sweep},
            "summary": {
                "graphs": summary.graphs, "holds": summary.holds,
                "fails": summary.fails, "not_applicable": summary.not_applicable,
            },
            "per_n": [
                {"n": n, "graphs": graphs, "holds": holds, "fails": fails, "not_applicable": na}
                for n, graphs, holds, fails, na in summary.per_n
            ],
            "failures": [r.to_dict() for r in summary.failures],
        })
    return 0 if summary.ok else 4


def cmd_survey(args) -> int:
    if args.out:
        out = Path(args.out)
        manifest = out.with_name(out.name + ".manifest.json")
        _check_writable(out, manifest)
    rows = survey_triples(args.n, threads=args.threads or 1)
    out_lines = ["n,dim,edim,count,example_graph6"]
    out_lines.extend(
        f"{r.n},{r.dim},{r.edim},{r.count},{r.example_graph6}" for r in rows
    )
    text = "\n".join(out_lines) + "\n"
    if args.out:
        _write_out(out, (text,))
        _write_manifest(manifest, ["survey", str(args.n)], [out])
        sys.stdout.write(f"wrote {out} ({len(rows)} rows)\n")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    threads = {"type": int, "help": "worker processes for sweeps and survey (default 1)"}
    p = argparse.ArgumentParser(
        prog="edimlab",
        description="Exact metric and edge metric dimension of small graphs.",
    )
    p.add_argument("--threads", **threads)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="solve dim, edim, or the joint cover number")
    c.add_argument("kind", choices=["dim", "edim", "joint"])
    c.add_argument("input", nargs="?", help="graph file (edge list or graph6)")
    c.add_argument("--construct", nargs="+", metavar="TOKEN",
                   help="inline construction, e.g. --construct F 2")
    c.add_argument("--all-bases", action="store_true")
    c.add_argument("--format", choices=["auto", "edgelist", "graph6"], default="auto")
    c.set_defaults(fn=cmd_compute)

    b = sub.add_parser("construct", help="build a named graph and write it out")
    b.add_argument("what", choices=["F", "H", "join", "prod", "family"])
    b.add_argument("params", nargs="*", help="positional parameters, e.g. family cycle 5")
    b.add_argument("--g", help="factor graph spec for prod, e.g. path:3")
    b.add_argument("--g1", help="first join operand spec")
    b.add_argument("--g2", help="second join operand spec")
    b.add_argument("--m", type=int, help="number of path copies for prod")
    b.add_argument("-o", "--out", help="output file; stdout when omitted")
    b.add_argument("--format", choices=["edgelist", "graph6"], default="edgelist")
    b.set_defaults(fn=cmd_construct)

    v = sub.add_parser("verify", help="run a theorem check on a graph, sweep, or k range")
    v.add_argument("theorem", choices=sorted([*CHECKS, "fk", "hk"]))
    v.add_argument("--graph", help="graph file to check")
    v.add_argument("--g", help="inline graph spec, e.g. path:3")
    v.add_argument("--sweep", type=int, metavar="N_MAX",
                   help="check every labeled connected graph up to N_MAX vertices")
    v.add_argument("--kmax", type=int, help=f"for fk/hk: check k = 1..KMAX, KMAX at most {MAX_FAMILY_K}")
    v.add_argument("--m", type=int, help="path copies for the product theorem")
    v.add_argument("--report", help="write a JSON report document here")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("survey", help="per-(dim, edim) census of connected graphs")
    s.add_argument("n", type=int)
    s.add_argument("-o", "--out", help="CSV output path; stdout when omitted")
    s.set_defaults(fn=cmd_survey)
    # --threads may also follow the subcommand; with no default there, a
    # subcommand not given it keeps the top level's value
    for subparser in sub.choices.values():
        subparser.add_argument("--threads", default=argparse.SUPPRESS, **threads)
    return p


def _parse_args(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """parse_args, with a subcommand's positionals also accepted after its
    options.  argparse (Python 3.11) fills an optional positional that
    follows the first one, compute's `input` or construct's `params`, with
    nothing when an option comes next, and leaves the later words
    unrecognized.  When every unrecognized word is the subcommand's, its
    words are parsed again, positionals and options intermixed; a word
    that is still left over exits 2 with argparse's own message."""
    args, extras = parser.parse_known_args(argv)
    if extras:
        argv = sys.argv[1:] if argv is None else list(argv)
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        subparser = sub.choices[args.command]
        words = argv[argv.index(args.command) + 1:]
        rest = extras
        if subparser.parse_known_args(words)[1] == extras:
            top = argparse.Namespace(threads=args.threads, command=args.command)
            args, rest = subparser.parse_known_intermixed_args(words, top)
        if rest:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    parser = build_parser()
    args = _parse_args(parser, argv)
    try:
        if args.threads is not None and args.threads < 1:
            raise BadParamsError(f"--threads must be at least 1, got {args.threads}")
        return args.fn(args)
    except DisconnectedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
