"""Command-line driver.

Subcommands: groebner, ext, stable-hom, mf, knorrer, toric-cohomology,
intersect, sod-verify, ncdef, reproduce.  Reports are JSON (schema
singcat-report/1); exit codes: 0 computed/verified, 1 claim falsified,
2 input error, 3 internal error (a broken invariant of the program, reported
with an "internal error:" prefix).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .errors import InvariantError
from .fields import QuadraticExtension, RationalField


def _sanitize(obj):
    if isinstance(obj, Fraction):
        return str(obj.numerator) if obj.denominator == 1 else \
            f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if hasattr(obj, "terms"):  # polynomial
        return repr(obj)
    return obj


def _field_value(field, c):
    """A field element as a report leaf: a Q value, integral or not, as its
    `a` or `a/b` string, a K[i] value as a pair, an F_p value as a number."""
    if isinstance(field, QuadraticExtension):
        return [_field_value(field.base, x) for x in c]
    if isinstance(field, RationalField):
        return str(c)
    return c


def emit(report, out=None):
    text = json.dumps(_sanitize(report), indent=2, default=repr)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


class InputError(ValueError):
    pass


def parse_module_arg(ring, text):
    """Module grammar: either 'NAME/(f, g, ...)' for a cyclic quotient or
    'module over <ring> generators g1,g2 relations [[p11,p12],...]'."""
    from .modules import FPModule
    text = text.strip()
    cyclic = re.match(r"^\w+\s*/\s*\((.*)\)$", text)
    if cyclic:
        polys = [ring.parse(p) for p in cyclic.group(1).split(",") if p.strip()]
        return FPModule.cyclic(ring, polys, degree=0)
    m = re.match(r"^module\s+over\s+(.*?)\s+generators\s+(.*?)\s+relations\s+(.*)$",
                 text)
    if not m:
        raise InputError(f"cannot parse module {text!r}")
    gen_names = [g.strip() for g in m.group(2).split(",")]
    rel_text = m.group(3).strip()
    try:
        rel_lists = json.loads(rel_text.replace("'", '"')) if rel_text.startswith("[") \
            else None
    except json.JSONDecodeError:
        rel_lists = None
    if rel_lists is None:
        raise InputError(f"cannot parse relation block {rel_text!r}")
    cols = [[ring.parse(str(p)) for p in col] for col in rel_lists]
    return FPModule(ring, len(gen_names), cols)


def parse_mf_arg(text):
    from .matfac import MatrixFactorization
    from .quotient import parse_ring
    m = re.match(r"^mf\s+over\s+(.*?)\s+potential\s+(.*?)\s+A=(\[\[.*?\]\])\s+B=(\[\[.*?\]\])\s*$",
                 text.strip())
    if not m:
        raise InputError(f"cannot parse matrix factorization {text!r}")
    ring = parse_ring(m.group(1))
    S = ring.ambient
    f = S.parse(m.group(2))
    A = [[S.parse(str(e)) for e in row] for row in json.loads(m.group(3).replace("'", '"'))]
    B = [[S.parse(str(e)) for e in row] for row in json.loads(m.group(4).replace("'", '"'))]
    return MatrixFactorization(S, f, A, B, check=False)


def parse_fan_arg(text):
    from .toric import Fan, fan_library
    text = text.strip()
    if re.match(r"^\w+$", text):
        fan, div, walls = fan_library(text)
        return fan, div, walls
    m = re.match(r"^fan\s+rank=(\d+)\s+rays=(\[.*?\]\])\s+cones=(\[.*\])$", text)
    if not m:
        raise InputError(f"cannot parse fan {text!r}")
    rank = int(m.group(1))
    rays = json.loads(m.group(2))
    cones = json.loads(m.group(3))
    return Fan(rank, rays, cones, "user"), {}, {}


def cmd_groebner(args):
    from .quotient import parse_ring
    from .modgb import groebner_basis
    ring = parse_ring(args.ring)
    gens = [ring.ambient.parse(g) for g in args.gens.split(";") if g.strip()]
    gb = groebner_basis(gens + ring.ideal_gens)
    emit({"schema": "singcat-report/1", "basis": [repr(g) for g in gb]},
         args.report)
    return 0


def cmd_ext(args):
    from .quotient import parse_ring
    from .homs import ext_dims
    ring = parse_ring(args.ring)
    M = parse_module_arg(ring, args.M)
    N = parse_module_arg(ring, args.N)
    dims = ext_dims(M, N, args.pmax, p_min=args.pmin)
    emit({"schema": "singcat-report/1",
          "ext_dims": {str(p): d for p, d in sorted(dims.items())}}, args.report)
    return 0


def cmd_stable_hom(args):
    from .quotient import parse_ring
    from .homs import stable_hom
    ring = parse_ring(args.ring)
    M = parse_module_arg(ring, args.M)
    N = parse_module_arg(ring, args.N)
    space = stable_hom(M, N)
    report = {"schema": "singcat-report/1", "dim": space.dim}
    if space.dim and M.ngens == N.ngens and M.relations == N.relations:
        alg = space.algebra()
        report["algebra_labels"] = alg.labels
        report["associative"] = alg.is_associative()
    emit(report, args.report)
    return 0


def cmd_mf(args):
    from .quotient import parse_ring
    from .matfac import mf_check, mf_from_module, mf_shift
    if args.input:
        X = parse_mf_arg(args.input)
        # a pair that is not square of one size is an input error (MFError)
        valid = mf_check(X.ring, X.A, X.B, X.f)
        emit({"schema": "singcat-report/1", "size": X.size, "valid": valid},
             args.report)
        return 0 if valid else 1
    ring = parse_ring(args.ring)
    M = parse_module_arg(ring, args.module)
    X = mf_from_module(M)
    if args.shift:
        X = mf_shift(X)
    emit({"schema": "singcat-report/1", "size": X.size,
          "A": [[repr(p) for p in row] for row in X.A],
          "B": [[repr(p) for p in row] for row in X.B],
          "potential": repr(X.f)}, args.report)
    return 0


def cmd_knorrer(args):
    from .matfac import knorrer, mf_stable_hom
    X = parse_mf_arg(args.input)
    if not X.is_valid():
        raise InputError("input is not a matrix factorization")
    K = knorrer(X, args.x, args.y)
    before = mf_stable_hom(X, X)
    after = mf_stable_hom(K, K)
    report = {"schema": "singcat-report/1", "size": K.size,
              "potential": repr(K.f),
              "A": [[repr(p) for p in row] for row in K.A],
              "B": [[repr(p) for p in row] for row in K.B],
              "dims_before": list(before), "dims_after": list(after),
              "dims_preserved": before == after}
    emit(report, args.report)
    return 0 if before == after else 1


def cmd_toric_cohomology(args):
    from .toric import TDivisor, cohomology
    fan, _div, _walls = parse_fan_arg(args.fan)
    coeffs = json.loads(args.divisor)
    D = TDivisor(fan, coeffs)
    h = cohomology(fan, D)
    emit({"schema": "singcat-report/1", "h": list(h)}, args.report)
    return 0


def cmd_intersect(args):
    from .toric import TDivisor, intersect_curve
    fan, _div, walls = parse_fan_arg(args.fan)
    coeffs = json.loads(args.divisor)
    D = TDivisor(fan, coeffs)
    if args.curve in walls:
        wall = walls[args.curve]
    else:
        wall = tuple(int(x) for x in args.curve.split(","))
    val = intersect_curve(D, wall, fan)
    emit({"schema": "singcat-report/1", "intersection": val}, args.report)
    return 0


def cmd_sod_verify(args):
    from .sodcheck import (blowup_collections, check_collection_manifest,
                           check_exceptional, check_orthogonal_to_deformation,
                           verify_odp_hypotheses)
    if args.manifest:
        with open(args.manifest) as fh:
            data = json.load(fh)
        report = check_collection_manifest(data)
        emit({"schema": "singcat-report/1", "report": report,
              "pass": report["pass"]}, args.report)
        return 0 if report["pass"] else 1
    which = args.which
    if which == "eight":
        fan, _w, eight, _f, _d = blowup_collections()
        report = check_exceptional(fan, [d for _n, d in eight],
                                   [n for n, _d in eight])
        ok = report["exceptional"]
    elif which == "five":
        fan, _w, _e, five, _d = blowup_collections()
        report = check_exceptional(fan, [d for _n, d in five],
                                   [n for n, _d in five])
        ok = report["strong"]
    elif which == "orthogonality":
        fan, _w, _e, five, (D1, D2) = blowup_collections()
        report = check_orthogonal_to_deformation(fan, [d for _n, d in five],
                                                 [D1, D2])
        ok = report["pass"]
    elif which in ("quadric_cone", "blowup"):
        report = verify_odp_hypotheses(which)
        ok = report["pass"]
    else:
        raise InputError("pass --which or --manifest")
    emit({"schema": "singcat-report/1", "report": report, "pass": ok},
         args.report)
    return 0 if ok else 1


def cmd_ncdef(args):
    from .ncdef import SimpleCollection, run
    from . import models
    if args.model == "cone":
        P = models.projective_cone_ring()
        coll = SimpleCollection([models.cone_L1(P), models.cone_L2(P)])
    elif args.model == "node":
        B = models.node_surface()
        coll = SimpleCollection([models.node_point_module(B)])
    elif args.ring and args.modules:
        from .quotient import parse_ring
        ring = parse_ring(args.ring)
        with open(args.modules) as fh:
            mods = [parse_module_arg(ring, line) for line in fh
                    if line.strip() and not line.startswith("#")]
        coll = SimpleCollection(mods)
    else:
        raise InputError("pass --model cone|node or --ring with --modules")
    rep = run(coll, max_iter=args.max_iter)
    alg = rep.algebra()
    report = {
        "schema": "singcat-report/1",
        "outcome": rep.outcome,
        "final_step": rep.final_step,
        "dim_R_trajectory": rep.dim_r_trajectory,
        "final_dim_R": alg.dim,
        "algebra_labels": alg.labels,
    }
    if rep.outcome == "terminated":
        report["structure_constants"] = [
            [[_field_value(alg.field, c) for c in v] for v in row]
            for row in alg.mult_table]
    emit(report, args.report)
    return 0


def cmd_reproduce(args):
    from .manifest import run_claims
    report = run_claims(section=args.section, cid=args.claim)
    if not report["claims"]:
        raise InputError("no claims match the selection")
    for claim in report["claims"]:
        print(f"[{claim['verdict']}] {claim['claim_id']}: {claim['statement']}",
              file=sys.stderr)
    emit(report, args.report)
    return 0 if report["pass"] else 1


def build_parser():
    p = argparse.ArgumentParser(prog="singcat",
                                description="exact singularity-category toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("groebner", help="reduced Groebner basis of an ideal")
    g.add_argument("--ring", required=True)
    g.add_argument("--gens", required=True, help="semicolon-separated polynomials")
    g.add_argument("--report")
    g.set_defaults(func=cmd_groebner)

    e = sub.add_parser("ext", help="Ext dimensions between two modules")
    e.add_argument("--ring", required=True)
    e.add_argument("--M", required=True)
    e.add_argument("--N", required=True)
    e.add_argument("--pmax", type=int, default=4)
    e.add_argument("--pmin", type=int, default=0)
    e.add_argument("--report")
    e.set_defaults(func=cmd_ext)

    s = sub.add_parser("stable-hom", help="stable Hom dimension and algebra")
    s.add_argument("--ring", required=True)
    s.add_argument("--M", required=True)
    s.add_argument("--N", required=True)
    s.add_argument("--report")
    s.set_defaults(func=cmd_stable_hom)

    m = sub.add_parser("mf", help="matrix factorization from a module, or check one")
    m.add_argument("--ring")
    m.add_argument("--module")
    m.add_argument("--input", help="mf over <ring> potential <f> A=[[..]] B=[[..]]")
    m.add_argument("--shift", action="store_true")
    m.add_argument("--report")
    m.set_defaults(func=cmd_mf)

    k = sub.add_parser("knorrer", help="double a factorization against x*y")
    k.add_argument("--input", required=True)
    k.add_argument("--x", default="x")
    k.add_argument("--y", default="y")
    k.add_argument("--report")
    k.set_defaults(func=cmd_knorrer)

    t = sub.add_parser("toric-cohomology", help="cohomology of a divisor class")
    t.add_argument("--fan", required=True)
    t.add_argument("--divisor", required=True, help="JSON list of ray coefficients")
    t.add_argument("--report")
    t.set_defaults(func=cmd_toric_cohomology)

    i = sub.add_parser("intersect", help="divisor-curve intersection number")
    i.add_argument("--fan", required=True)
    i.add_argument("--divisor", required=True)
    i.add_argument("--curve", required=True, help="named curve or ray indices i,j")
    i.add_argument("--report")
    i.set_defaults(func=cmd_intersect)

    v = sub.add_parser("sod-verify", help="collection and hypothesis audits")
    v.add_argument("--which",
                   choices=["eight", "five", "orthogonality", "quadric_cone",
                            "blowup"])
    v.add_argument("--manifest", help="JSON collection manifest file")
    v.add_argument("--report")
    v.set_defaults(func=cmd_sod_verify)

    n = sub.add_parser("ncdef", help="deformation iteration")
    n.add_argument("--model", choices=["cone", "node"])
    n.add_argument("--ring")
    n.add_argument("--modules", help="file of module descriptions, one per line")
    n.add_argument("--max-iter", type=int, default=8)
    n.add_argument("--report")
    n.set_defaults(func=cmd_ncdef)

    r = sub.add_parser("reproduce", help="run the named-claim manifest")
    r.add_argument("--section", choices=["4", "6", "7.1", "7.2", "7.3"])
    r.add_argument("--claim")
    r.add_argument("--report")
    r.set_defaults(func=cmd_reproduce)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
