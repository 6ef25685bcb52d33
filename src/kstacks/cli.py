"""Command-line surface: drivers over the library plus machine-readable reports.

Every command emits a JSON report (via --json PATH, with "-" meaning stdout);
the human-readable text is derived from the same payload.  Reports are
deterministic byte-for-byte except for the timing_ms field.

Exit codes: 0 success (or: equal, connected), 1 input or parse error,
2 refused hypothesis, 3 negative verdict (not equal, not connected, map
failure).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .exprs import ParseError, parse_element
from .ktheory import (
    HypothesisError,
    class_of_koszul_quotient,
    induced_map,
    invariants,
    k0_presentation,
)
from .picard import pic, pic_open
from .stacks import (
    EXAMPLES,
    StackDataError,
    builtin_example,
    check_connected,
    connectify,
    dump_stackdata,
    example_symbols,
    load_stackdata,
    stackdata_to_json,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_NEGATIVE = 3


def _connected_bound(args):
    """The connectedness search bound from --bound, else from the
    environment variable KSTACKS_CONNECTED_BOUND, else None; negative
    bounds are input errors."""
    value = args.bound
    source = "--bound"
    if value is None:
        env = "KSTACKS_CONNECTED_BOUND"
        raw = os.environ.get(env)
        if raw is None:
            return None
        source = f"environment variable {env}"
        try:
            value = int(raw)
        except ValueError:
            raise StackDataError(f"{source} must be an integer") from None
    if value < 0:
        raise StackDataError(f"{source} must be non-negative, got {value}")
    return value


def _load_input(args):
    """Resolve --example NAME [PARAMS...] or --input PATH into stack data
    plus the expression symbols bound for built-in examples."""
    if args.example is not None and args.input is not None:
        raise StackDataError("give either --example or --input, not both")
    if args.example is not None:
        name = args.example[0]
        params = [int(p) for p in args.example[1:]]
        data = builtin_example(name, params)
        return data, example_symbols(name, data)
    if args.input is not None:
        return load_stackdata(args.input), {}
    raise StackDataError("an input is required: --example NAME [PARAMS...] or --input PATH")


def _group_json(group):
    return {
        "rank": group.free_rank,
        "torsion": [int(m) for m in group.torsion],
        "description": group.describe(),
    }


def _vec_json(group, element):
    return [int(x) for x in group.user_representative(element)]


def _emit(report, args, lines):
    for line in lines:
        print(line)
    path = getattr(args, "json", None)
    if path:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if path == "-":
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def _report(command, label, started, **payload):
    out = {"command": command, "input": label, "watermarks": []}
    out.update(payload)
    out["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    return out


def _parse_vector(text, length, what):
    parts = [p.strip() for p in text.split(",")]
    try:
        vec = [int(p, 10) for p in parts]
    except ValueError:
        raise StackDataError(f"bad integer in {what}: {text!r}") from None
    if len(vec) != length:
        raise StackDataError(f"{what} needs {length} entries, got {len(vec)}")
    return vec


def _parse_vectors(text, length, what):
    return [
        _parse_vector(chunk, length, what)
        for chunk in text.split(";")
        if chunk.strip() != ""
    ]


# ---------------------------------------------------------------------------
# commands


def cmd_k0(args):
    started = time.perf_counter()
    data, _ = _load_input(args)
    pres = k0_presentation(
        data, override=args.override_hypothesis, bound=_connected_bound(args)
    )
    payload = {
        "group": _group_json(data.group),
        "generators": [q.render() for q in pres.generators],
        "hypothesis_verified": pres.hypothesis_verified,
        "connectedness": pres.connectedness.to_json(),
    }
    lines = [f"K0 presentation of {data.label or 'input'}:"]
    lines.append(f"  group ring over {data.group.describe()}")
    if pres.generators:
        lines.append("  ideal generators:")
        lines.extend(f"    {q.render()}" for q in pres.generators)
    else:
        lines.append("  ideal generators: none (zero ideal)")
    if args.invariants:
        inv = invariants(pres)
        payload["invariants"] = inv.to_json()
        if inv.free_rank is None:
            lines.append(f"  invariants: {inv.status}")
        else:
            desc = " x ".join(
                (["Z"] if inv.free_rank == 1 else [f"Z^{inv.free_rank}"] if inv.free_rank else [])
                + [f"Z/{m}" for m in inv.torsion]
            ) or "0"
            lines.append(f"  invariants: {desc} (status: {inv.status})")
    report = _report("k0", data.label, started, **payload)
    report["watermarks"] = list(pres.watermarks)
    for w in pres.watermarks:
        lines.append(f"  WARNING: {w}")
    _emit(report, args, lines)
    return EXIT_OK


def cmd_pic(args):
    started = time.perf_counter()
    data, _ = _load_input(args)
    removed = None
    if args.remove_degree is not None:
        vec = _parse_vector(args.remove_degree, data.group.num_generators, "--remove-degree")
        removed = data.group.element(vec)
        result = pic_open(data, removed)
    else:
        result = pic(data)
    payload = {
        "group": _group_json(result.group),
        "units_degrees": [_vec_json(data.group, u) for u in result.units_subgroup_generators],
        "removed_degree": _vec_json(data.group, removed) if removed is not None else None,
        "certified": result.certified,
        "hypotheses": result.hypotheses.to_json(),
    }
    tag = "certified" if result.certified else "NOT certified"
    what = data.label or "input"
    if removed is not None:
        what += f" minus a hypersurface of degree {list(_vec_json(data.group, removed))}"
    lines = [f"Pic of {what}: {result.group.describe()} ({tag})"]
    for note in result.hypotheses.notes:
        lines.append(f"  note: {note}")
    report = _report("pic", data.label, started, **payload)
    report["watermarks"] = [] if result.certified else ["hypotheses not verified"]
    _emit(report, args, lines)
    return EXIT_OK


def cmd_eq(args):
    started = time.perf_counter()
    data, symbols = _load_input(args)
    pres = k0_presentation(
        data, override=args.override_hypothesis, bound=_connected_bound(args)
    )
    lhs = parse_element(args.lhs, data.group, symbols)
    rhs = parse_element(args.rhs, data.group, symbols)
    lhs_reduced, rhs_reduced = pres.reduce(lhs), pres.reduce(rhs)
    equal = lhs_reduced == rhs_reduced
    payload = {
        "lhs": args.lhs,
        "rhs": args.rhs,
        "lhs_reduced": lhs_reduced.render(),
        "rhs_reduced": rhs_reduced.render(),
        "equal": equal,
    }
    verdict = "equal" if equal else "not equal"
    lines = [f"{args.lhs}  vs  {args.rhs}: {verdict} in K0({data.label or 'input'})"]
    report = _report("eq", data.label, started, **payload)
    report["watermarks"] = list(pres.watermarks)
    _emit(report, args, lines)
    return EXIT_OK if equal else EXIT_NEGATIVE


def cmd_check_connected(args):
    started = time.perf_counter()
    data, _ = _load_input(args)
    result = check_connected(data, bound=_connected_bound(args))
    payload = result.to_json()
    lines = [f"degree-zero check for {data.label or 'input'}: {result.verdict}"]
    if result.witness is not None:
        named = ", ".join(
            f"{v.name}^{w}" for v, w in zip(data.variables, result.witness) if w
        )
        lines.append(f"  witness monomial of degree zero: {named}")
    report = _report("check-connected", data.label, started, **payload)
    _emit(report, args, lines)
    return EXIT_OK if result.is_connected() else EXIT_NEGATIVE


def cmd_connectify(args):
    started = time.perf_counter()
    data, _ = _load_input(args)
    out = connectify(data)
    obj = stackdata_to_json(out)
    payload = {"output": obj, "output_path": args.output}
    lines = [f"connectified {data.label or 'input'} -> {out.label}"]
    lines.append(f"  grading group: {out.group.describe()}")
    lines.append(f"  components: {[list(c) for c in out.irrelevant]}")
    if args.output:
        dump_stackdata(out, args.output)
        lines.append(f"  written to {args.output}")
    else:
        lines.append(json.dumps(obj, indent=2, sort_keys=True))
    report = _report("connectify", data.label, started, **payload)
    _emit(report, args, lines)
    return EXIT_OK


def cmd_class(args):
    started = time.perf_counter()
    data, _ = _load_input(args)
    pres = k0_presentation(
        data, override=args.override_hypothesis, bound=_connected_bound(args)
    )
    vectors = _parse_vectors(args.koszul, data.group.num_generators, "--koszul")
    degrees = [data.group.element(v) for v in vectors]
    cls = class_of_koszul_quotient(pres, degrees)
    reduced = cls.normal_form()
    payload = {
        "koszul_degrees": [list(v) for v in vectors],
        "class": cls.representative.render(),
        "reduced": reduced.render(),
        "is_zero": reduced.is_zero(),
    }
    lines = [
        f"Koszul quotient class in K0({data.label or 'input'}):",
        f"  representative: {cls.representative.render()}",
        f"  reduced: {reduced.render()}",
    ]
    report = _report("class", data.label, started, **payload)
    report["watermarks"] = list(pres.watermarks)
    _emit(report, args, lines)
    return EXIT_OK


def cmd_map(args):
    started = time.perf_counter()
    data, _ = _load_input(args)
    if args.target is not None and args.target_input is not None:
        raise StackDataError("give either --target or --target-input, not both")
    if args.target is not None:
        tname = args.target[0]
        tparams = [int(p) for p in args.target[1:]]
        target_data = builtin_example(tname, tparams)
    elif args.target_input is not None:
        target_data = load_stackdata(args.target_input)
    else:
        raise StackDataError("a target is required: --target NAME [PARAMS...] or --target-input PATH")
    source = k0_presentation(
        data, override=args.override_hypothesis, bound=_connected_bound(args)
    )
    target = k0_presentation(
        target_data, override=args.override_hypothesis, bound=_connected_bound(args)
    )
    rows = _parse_vectors(args.matrix, target_data.group.num_generators, "--matrix rows")
    if len(rows) != data.group.num_generators:
        raise StackDataError(
            f"--matrix needs {data.group.num_generators} rows (one per source generator)"
        )
    payload = {
        "target": target_data.label,
        "matrix": [list(r) for r in rows],
    }
    try:
        pushed = induced_map(rows, source, target)
    except ValueError as exc:
        payload.update({"ok": False, "reason": str(exc)})
        report = _report("map", data.label, started, **payload)
        _emit(report, args, [f"induced map check failed: {exc}"])
        return EXIT_NEGATIVE
    images = []
    for q in source.generators:
        image = pushed.push_element(q)
        images.append(
            {
                "generator": q.render(),
                "image": image.render(),
                "reduced": target.reduce(image).render(),
            }
        )
    payload.update({"ok": True, "generator_images": images})
    lines = [f"induced map {data.label or 'input'} -> {target_data.label or 'target'}: ok"]
    for entry in images:
        lines.append(f"  {entry['generator']}  |->  {entry['image']} (reduced: {entry['reduced']})")
    report = _report("map", data.label, started, **payload)
    report["watermarks"] = list(source.watermarks) + list(target.watermarks)
    _emit(report, args, lines)
    return EXIT_OK


def cmd_example(args):
    started = time.perf_counter()
    rows = [
        {"name": name, "params": EXAMPLES[name][1], "description": EXAMPLES[name][2]}
        for name in sorted(EXAMPLES)
    ]
    lines = ["built-in examples:"]
    for row in rows:
        params = f" {row['params']}" if row["params"] else ""
        lines.append(f"  {row['name']}{params}: {row['description']}")
    report = _report("example", None, started, examples=rows)
    _emit(report, args, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems are input errors (exit 1), not refusals (exit 2)
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_input_options(sub):
    sub.add_argument(
        "--example",
        nargs="+",
        metavar=("NAME", "PARAM"),
        help="built-in example name with its parameters",
    )
    sub.add_argument("--input", metavar="PATH", help="stack data JSON file")
    sub.add_argument("--json", metavar="PATH", help="write the JSON report here ('-' for stdout)")


def build_parser():
    parser = _ArgumentParser(
        prog="kstacks",
        description="exact K-group and Picard-group computations for graded "
        "polynomial coordinate rings of toric stacks",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    k0 = subs.add_parser("k0", help="ideal presentation of the K-group")
    _add_input_options(k0)
    k0.add_argument("--invariants", action="store_true", help="also compute abelian-group invariants")
    k0.add_argument("--bound", type=int, help="connectedness search bound")
    k0.add_argument("--override-hypothesis", action="store_true")
    k0.set_defaults(func=cmd_k0)

    picp = subs.add_parser("pic", help="Picard group")
    _add_input_options(picp)
    picp.add_argument("--remove-degree", metavar="VEC", help="degree of a removed hypersurface (comma-separated)")
    picp.set_defaults(func=cmd_pic)

    eq = subs.add_parser("eq", help="decide equality of two K-classes")
    _add_input_options(eq)
    eq.add_argument("--lhs", required=True, metavar="EXPR")
    eq.add_argument("--rhs", required=True, metavar="EXPR")
    eq.add_argument("--bound", type=int)
    eq.add_argument("--override-hypothesis", action="store_true")
    eq.set_defaults(func=cmd_eq)

    cc = subs.add_parser("check-connected", help="decide the degree-zero hypothesis")
    _add_input_options(cc)
    cc.add_argument("--bound", type=int, help="integer witness search bound")
    cc.set_defaults(func=cmd_check_connected)

    cf = subs.add_parser("connectify", help="force the degree-zero hypothesis")
    _add_input_options(cf)
    cf.add_argument("-o", "--output", metavar="PATH", help="write the transformed data here")
    cf.set_defaults(func=cmd_connectify)

    cl = subs.add_parser("class", help="K-class of a Koszul-type quotient")
    _add_input_options(cl)
    cl.add_argument("--koszul", required=True, metavar="DEGREES",
                    help="degree vectors, ';'-separated, entries ','-separated")
    cl.add_argument("--bound", type=int)
    cl.add_argument("--override-hypothesis", action="store_true")
    cl.set_defaults(func=cmd_class)

    mp = subs.add_parser("map", help="check a grading homomorphism induces a K-group map")
    _add_input_options(mp)
    mp.add_argument("--matrix", required=True, metavar="M",
                    help="rows ';'-separated, entries ','-separated")
    mp.add_argument("--target", nargs="+", metavar=("NAME", "PARAM"))
    mp.add_argument("--target-input", metavar="PATH")
    mp.add_argument("--bound", type=int)
    mp.add_argument("--override-hypothesis", action="store_true")
    mp.set_defaults(func=cmd_map)

    ex = subs.add_parser("example", help="list built-in examples")
    ex.add_argument("--list", action="store_true", help="list the registry (default action)")
    ex.add_argument("--json", metavar="PATH")
    ex.set_defaults(func=cmd_example)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        return args.func(args)
    except HypothesisError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (StackDataError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
