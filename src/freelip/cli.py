"""freelip command line: generators, norms, cycle spaces, projection
constants, recursive-family certificates, Haar bounds, embeddings, and the
consolidated reproduction table.

All file output is UTF-8 JSON tagged with "schema": "freelip/1" (CSV for
tabular reports).  Runs are deterministic: any randomness is driven by an
explicit --seed.  Exit codes: 1 usage, 2 ValidationError (also for a
malformed argument or an input file that is missing or not JSON), 3
SolverFailure, 4 ResourceLimit, 5 a `reproduce` claim row FAILed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from . import haar_system as haar, linalg, projections, symmetry
from .cyclespace import (EdgeVector, boundary, fundamental_cycle_basis, greedy_cycle_packing,
                         mu, quotient_norm)
from .embeddings import diamond_top_level, half_dim_embedding, large_embedding, mod_p_selection
from .errors import ResourceLimit, SolverFailure, ValidationError
from .freenorm import ae_norm, lip_dual
from .graphs import (TwoPoleGraph, diamond, diamond_base, k2n_base, laakso, laakso_base,
                     multidiamond, path, star)
from .metric import MetricSpace, Molecule, graph_metric
from .rational import fmt, json_key, num_to_json
from .recursive import check_conditions, profile_base, witness
from .report import reproduce_paper_table

SCHEMA = "freelip/1"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # main reports it and returns 1, instead of argparse's exit
        raise argparse.ArgumentError(None, message)


def _dump(obj, filename=None):
    obj = {"schema": SCHEMA, **obj}
    text = json.dumps(obj, indent=2, sort_keys=True, default=num_to_json)
    if filename:
        with open(filename, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load(filename):
    """The JSON value in a file; ValidationError naming the file when it
    cannot be read or does not hold UTF-8 JSON."""
    try:
        with open(filename, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {filename!r}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValidationError(f"{filename!r} is not UTF-8 JSON: {exc}") from None


def _load_graph(filename):
    return TwoPoleGraph.from_json(_load(filename))


def _build_family(family, level, branch):
    if family == "diamond":
        return diamond(level)
    if family == "multidiamond":
        if branch is None:
            raise ValidationError("multidiamond needs --branch")
        return multidiamond(level, branch)
    if family == "laakso":
        return laakso(level)
    if family == "k2n":
        if branch is None:
            raise ValidationError("k2n needs --branch")
        return k2n_base(branch)
    if family == "path":
        return path(level)
    if family == "star":
        return star(level)
    raise ValidationError(f"unknown family {family!r}")


def _int_after_colon(text, form):
    """The integer after the first colon of text, such as 3 in "k2n:3";
    ValidationError naming the expected form (such as "k2n:K") otherwise."""
    try:
        return int(text.split(":", 1)[1])
    except ValueError:
        raise ValidationError(f"{text!r} does not match {form}: "
                              "no integer after the colon") from None


def _parse_base(text):
    if text == "square":
        return diamond_base()
    if text == "laakso":
        return laakso_base()
    if text.startswith("k2n:"):
        return k2n_base(_int_after_colon(text, "k2n:K"))
    raise ValidationError(f"unknown base {text!r} (use square, laakso, or k2n:K)")


def cmd_gen(args):
    g = _build_family(args.family, args.level, args.branch)
    _dump(g.to_json(), args.out)
    return 0


def cmd_norm(args):
    space = MetricSpace.from_json(_load(args.space))
    molecule = Molecule.from_json(_load(args.molecule))
    value, plan = ae_norm(space, molecule)
    cert = lip_dual(space, molecule)
    _dump({"value": num_to_json(value), "plan": plan.to_json(), "dual": cert.to_json()},
          args.out)
    return 0


def cmd_quotient_norm(args):
    g = _load_graph(args.graph)
    x = EdgeVector.from_json(g, _load(args.vector))
    out = {"value": num_to_json(quotient_norm(x)),
           "boundary_norm": num_to_json(ae_norm(graph_metric(g), boundary(x))[0])}
    _dump(out, args.out)
    return 0


def cmd_cyclespace(args):
    g = _load_graph(args.graph)
    basis = fundamental_cycle_basis(g)
    payload = {
        "mu": mu(g),
        "basis": [v.to_json() for v in basis.vectors],
        "packing": greedy_cycle_packing(g),
    }
    _dump(payload, args.basis)
    return 0


def cmd_projconst(args):
    g = _load_graph(args.graph)
    cols = [v.dense() for v in fundamental_cycle_basis(g).vectors]
    if not cols:
        raise ValidationError("graph has a trivial cycle space")
    lam, invariant_under = None, []
    if args.proj_mode == "orthogonal":
        p = projections.orthogonal_projection(cols)
    elif args.proj_mode == "minimal":
        lam, p = projections.minimal_projection_lp(cols, len(g.edges), mode="exact")
    else:  # averaged
        if not args.generators:
            raise ValidationError("averaged mode needs --generators")
        emaps = json_key(_load(args.generators), "maps", list, dict)
        maps = [symmetry.index_map(g, emap) for emap in emaps]
        num, den = projections.orthogonal_rows(cols)
        num, den = symmetry.average(num, den, symmetry.closure(maps), maps)
        p = linalg.fractions(num, den)
        # the indices of the --generators maps that P commutes with
        invariant_under = [i for i, s in enumerate(maps) if symmetry.commutes(num, s)]
    report = projections.ProjectionReport(
        operator=p, range_basis=cols,
        norm_l1=projections.l1_norm(p), norm_linf=projections.linf_norm(p),
        is_projection=all(projections.cycle_projection_certificate(g, *linalg.integer_rows(p))),
        invariant_under=invariant_under, label=args.proj_mode)
    payload = report.to_json()
    if lam is not None:
        payload["lambda"] = num_to_json(lam)
    _dump(payload, args.out)
    return 0


def cmd_recursive(args):
    b = _parse_base(args.base)
    payload = {}
    if args.check_conditions:
        payload["conditions"] = check_conditions(b)
    prof = profile_base(b)
    payload["profile"] = {
        "height": num_to_json(prof.height),
        "geodesics": prof.geodesic_count,
        "alpha": num_to_json(prof.alpha),
        "delta": prof.delta.to_json(),
        "c": prof.c.to_json(),
        "d": prof.d.to_json(),
    }
    _dump(payload, args.out)
    return 0


def cmd_witness(args):
    prof = profile_base(_parse_base(args.base))
    w = witness(prof, args.r)
    _dump(w.to_json(), args.out)
    return 0


def cmd_haar(args):
    rows = []
    for n in range(1, args.n + 1):
        if args.branch is None:
            _, nf, _, nqf = haar.haar_witness_bound(n)
            include_upper = 4 ** n <= args.upper_cells
            bounds = haar.diamond_bm_bounds(n, include_upper=include_upper)
            rows.append({
                "n": n, "k": 2,
                "lower_bound": fmt(bounds["lower"]),
                "witness_value": fmt(nqf),
                "upper_bound": fmt(bounds["upper"]) if bounds["upper"] is not None else "",
                "exact_orth_norm": fmt(bounds["exact_orth_norm"]),
            })
        else:
            r = haar.multibranch_analysis(n, args.branch)
            rows.append({
                "n": n, "k": args.branch,
                "lower_bound": fmt(r["bm_lower"]),
                "witness_value": fmt(r["witness_value"]),
                "upper_bound": fmt(r["bm_upper"]),
                "exact_orth_norm": fmt(r["linf_bound"]),
            })
    fields = ["n", "k", "lower_bound", "witness_value", "upper_bound", "exact_orth_norm"]
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    if args.plot:  # two-column x y rows (gnuplot style): n vs witness value
        with open(args.plot, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(f"{row['n']} {float(Fraction(row['witness_value']))}\n")
    return 0


def cmd_embed(args):
    if args.strategy == "diamond-top":
        rep = diamond_top_level(args.level)
    else:
        if args.space:
            space = MetricSpace.from_json(_load(args.space))
            graph = None
        elif args.graph:
            graph = _load_graph(args.graph)
            space = graph_metric(graph)
        else:
            raise ValidationError("need --space or --graph")
        if args.strategy == "half":
            rep = half_dim_embedding(space)
        elif args.strategy.startswith("modp:"):
            if graph is None:
                raise ValidationError("modp selection needs --graph")
            p = _int_after_colon(args.strategy, "modp:P")
            ys = mod_p_selection(graph, p)
            rep = large_embedding(space, ys)
        else:
            raise ValidationError(f"unknown strategy {args.strategy!r}")
    _dump(rep.to_json(), args.out)
    return 0


def cmd_reproduce(args):
    rows = reproduce_paper_table(seed=args.seed, full=args.full)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["claim", "target", "computed", "status"])
            for row in rows:
                writer.writerow(row.as_csv())
    for row in rows:
        print(f"{'PASS' if row.ok else 'FAIL'}  {row.claim:24s} target: {row.target:28s} got: {row.computed}")
    return 0 if all(r.ok for r in rows) else 5


def build_parser() -> _Parser:
    parser = _Parser(prog="freelip",
                     description="Free-space norms and projection certificates "
                                 "on finite metric spaces and recursive graphs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family graph as JSON")
    p.add_argument("--family", required=True,
                   choices=["diamond", "multidiamond", "laakso", "k2n", "path", "star"])
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--branch", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("norm", help="transportation norm of a molecule")
    p.add_argument("--space", required=True)
    p.add_argument("--molecule", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("quotient-norm", help="l1 distance to the cycle space")
    p.add_argument("--graph", required=True)
    p.add_argument("--vector", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_quotient_norm)

    p = sub.add_parser("cyclespace", help="fundamental basis and greedy packing")
    p.add_argument("--graph", required=True)
    p.add_argument("--basis", help="output path")
    p.set_defaults(func=cmd_cyclespace)

    p = sub.add_parser("projconst", help="projections onto the cycle space")
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", dest="proj_mode",
                   choices=["minimal", "orthogonal", "averaged"], default="minimal")
    p.add_argument("--generators")
    p.add_argument("--out")
    p.set_defaults(func=cmd_projconst)

    p = sub.add_parser("recursive", help="base-graph profile and conditions")
    p.add_argument("--base", required=True, help="square | k2n:K | laakso")
    p.add_argument("--check-conditions", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_recursive)

    p = sub.add_parser("witness", help="norm-growth witness construction")
    p.add_argument("--base", required=True, help="square | k2n:K | laakso")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("haar", help="Haar-side bounds as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--branch", type=int)
    p.add_argument("--report", help="output CSV path")
    p.add_argument("--plot", help="output x-y plot data (n vs witness value)")
    p.add_argument("--upper-cells", type=int, default=64,
                   help="skip the upper bound past this grid size")
    p.set_defaults(func=cmd_haar)

    p = sub.add_parser("embed", help="complemented near-l1 selections")
    p.add_argument("--space")
    p.add_argument("--graph")
    p.add_argument("--strategy", default="half", help="half | modp:P | diamond-top")
    p.add_argument("--level", type=int, default=1, help="level for diamond-top")
    p.add_argument("--out")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("reproduce", help="run the consolidated claim table")
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--seed", type=int, default=20240923)
    p.add_argument("--full", action="store_true")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except argparse.ArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
