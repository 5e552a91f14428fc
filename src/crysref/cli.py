"""Command-line interface.

Subcommands: verify, braid, abelianize, classes, hecke, prove, replay,
export.  Each command returns its report, and one rule reads the exit
code off it: 1 if any proof in it is disproved, else 2 if any proof is
Unknown, else 1 if the report's ``pass`` is false, else 0.  So braid,
prove and both prover-backed hecke checks (gdaha-check, tripledot) exit
2 when a proof ends Unknown and none is disproved.  A usage error exits
64 and is one ``error:`` line on stderr, argparse's own included.
A command that runs out of memory exits 70 with one ``error:`` line.
``--json`` emits a machine-readable report (``"schema": 1``).  The
environment variable ``CRYSREF_BUDGET_SCALE`` multiplies all search
budgets; it must be a number > 0 that keeps them finite.  If the reader
of stdout goes away, the rest of the report is dropped and the exit code
still gives the verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .affine import (
    build_generator_matrices,
    enumerate_reflection_classes,
    verify_presentation,
)
from .hecke import (
    GDAHA_FAMILY,
    GDAHA_LEGS,
    gdaha_check,
    rank_one_specialization_check,
    triple_dot_report,
)
from .hints import sphere_rank3_hints
from .isomorphisms import braid_isomorphism, braid_space_for
from .presentations import (
    RankOutOfRange,
    UnsupportedFamily,
    abelianize,
    artinize,
    build_group_presentation,
    diagram_to_dot,
    presentation_to_text,
)
from .prover import (
    Budget,
    Certificate,
    ProofResult,
    check_certificate,
    env_budget_scale,
    prove_trivial,
    verify_isomorphism_pair,
)
from .words import parse_word

EX_USAGE = 64
EX_SOFTWARE = 70


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _proof_json(res) -> dict:
    out = {"status": res.status.name.lower()}
    if res.certificate is not None:
        out["certificate"] = res.certificate.to_text()
    if res.reason:
        out["reason"] = res.reason
    return out


def _jsonable(value, statuses: list):
    """``value`` as JSON; the status of each proof goes on ``statuses``."""
    if isinstance(value, dict):
        return {k: _jsonable(v, statuses) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, statuses) for v in value]
    if isinstance(value, ProofResult):
        statuses.append(value.status.name.lower())
        return _proof_json(value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


# ---------------------------------------------------------------------
# subcommands (each returns its report; main reads the exit code off it)


def cmd_verify(args) -> dict:
    pres = build_group_presentation(args.family, args.n)
    _, gens = build_generator_matrices(args.family, args.n)
    full = verify_presentation(pres, gens)
    if args.what == "all":
        return full
    if args.what == "presentation":
        rels = [r for i, r in enumerate(full["relators"])
                if i != pres.x_relator_index]
        return {"pass": all(r["pass"] for r in rels), "relators": rels}
    if args.what == "x-relation":
        if pres.x_relator_index is None:
            raise _UsageError(f"{args.family} n={args.n} has no x-relation")
        entry = full["relators"][pres.x_relator_index]
        return {"pass": entry["pass"], "relators": [entry]}
    entry = full["extra_order"]  # extra-order
    return {"pass": entry["pass"], "extra_order": entry}


def cmd_braid(args) -> dict:
    iso = braid_isomorphism(args.family, args.n)
    hints = None
    if args.mode == "replay":
        if (args.family, args.n) != ("C_alpha", 3):
            raise _UsageError("replay scripts exist only for C_alpha n=3")
        hints = sphere_rank3_hints()
    rep = verify_isomorphism_pair(
        iso.fwd, iso.bwd, iso.braid.relators, iso.artin.relators,
        hints=hints,
    )
    ok = rep.pop("pass")
    space, rank = braid_space_for(args.family, args.n)
    return {"space": space, "space_rank": rank, "checks": rep, "pass": ok}


def cmd_abelianize(args) -> dict:
    pres = build_group_presentation(args.family, args.n)
    return {"divisors": abelianize(pres), "pass": True}


def cmd_classes(args) -> dict:
    if args.bound < 0:
        raise _UsageError(f"--bound must be >= 0, got {args.bound}")
    try:
        classes = enumerate_reflection_classes(args.family, args.n,
                                               bound=args.bound)
    except ValueError as exc:  # a bad rank or family, or over the cap
        raise _UsageError(str(exc)) from exc
    return {"count": len(classes), "classes": classes, "pass": True}


def cmd_gdaha_check(args) -> dict:
    family = GDAHA_FAMILY[args.type]
    return {"family": family, "legs": list(GDAHA_LEGS[args.type]),
            **gdaha_check(family, args.n)}


def cmd_rank_one(args) -> dict:
    return rank_one_specialization_check()


def cmd_tripledot(args) -> dict:
    rep = triple_dot_report(args.n)
    return {"word": rep["word"], "identities": rep["results"],
            "pass": rep["pass"]}


def _target_word(args):
    """The presentation (Artin group with ``--artin``) and the parsed word."""
    pres = build_group_presentation(args.family, args.n)
    target = artinize(pres) if args.artin else pres
    try:
        return target, parse_word(args.word, target.generator_names)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def cmd_prove(args) -> dict:
    for flag, value in (("--max-len", args.max_len),
                        ("--max-depth", args.max_depth)):
        if value is not None and value < 1:
            raise _UsageError(f"{flag} must be >= 1, got {value}")
    target, word = _target_word(args)
    default = Budget.for_word(word)
    budget = Budget(args.max_len or default.max_word_length,
                    args.max_depth or default.max_depth, default.max_states)
    res = prove_trivial(word, target.relators, budget)
    return {"word": word.text(target.generator_names), **_proof_json(res)}


def cmd_replay(args) -> dict:
    target, word = _target_word(args)
    try:
        with open(args.certificate) as fh:
            cert = Certificate.from_text(fh.read())
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot read certificate: {exc}") from exc
    return {"pass": check_certificate(cert, word, target.relators)}


def cmd_export(args) -> dict:
    pres = build_group_presentation(args.family, args.n)
    if args.dot:
        text = diagram_to_dot(pres.diagram) + "\n"
    else:
        text = presentation_to_text(pres)
    return {"text": text, "pass": True}


# ---------------------------------------------------------------------


def _json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="emit a JSON report on stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crysref",
        description="Construct and verify reflection presentations, "
                    "braid isomorphisms and Hecke deformations for the "
                    "crystallographic complex reflection families.")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def fam_rank(p):
        p.add_argument("family")
        p.add_argument("n", type=int)
        _json_flag(p)

    p = sub.add_parser("verify", help="check relators against the matrices")
    fam_rank(p)
    p.add_argument("--what", default="all",
                   choices=["presentation", "x-relation", "extra-order", "all"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("braid", help="prove the braid-presentation "
                                     "isomorphism pair")
    fam_rank(p)
    p.add_argument("--mode", default="search", choices=["search", "replay"])
    p.set_defaults(func=cmd_braid)

    p = sub.add_parser("abelianize", help="elementary divisors of the "
                                          "commutator factor group")
    fam_rank(p)
    p.set_defaults(func=cmd_abelianize)

    p = sub.add_parser("classes", help="enumerate reflection conjugacy "
                                       "classes by bounded search")
    fam_rank(p)
    p.add_argument("--bound", type=int, default=2,
                   help="translation coefficient bound")
    p.set_defaults(func=cmd_classes)

    p = sub.add_parser("hecke", help="Hecke/GDAHA deformation checks")
    _json_flag(p)
    checks = p.add_subparsers(dest="check", required=True)
    q = checks.add_parser("gdaha-check", help="specialize a generic Hecke "
                                              "algebra onto its GDAHA")
    q.add_argument("type", choices=sorted(GDAHA_FAMILY),
                   help="GDAHA diagram type")
    q.add_argument("n", type=int)
    q.set_defaults(func=cmd_gdaha_check)
    q = checks.add_parser("rank-one", help="the rank-one quadratic table")
    q.set_defaults(func=cmd_rank_one)
    q = checks.add_parser("tripledot", help="relations of the type-A "
                                            "triple-dot generator")
    q.add_argument("n", type=int)
    q.set_defaults(func=cmd_tripledot)
    for q in checks.choices.values():
        _json_flag(q)

    p = sub.add_parser("prove", help="prove a word trivial in a "
                                     "presentation")
    fam_rank(p)
    p.add_argument("word")
    p.add_argument("--artin", action="store_true",
                   help="work in the Artin group (order relations dropped)")
    p.add_argument("--max-depth", type=int, default=None,
                   help="override the prover depth budget")
    p.add_argument("--max-len", type=int, default=None,
                   help="override the prover word-length budget")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("replay", help="check a stored certificate")
    fam_rank(p)
    p.add_argument("word")
    p.add_argument("certificate", help="path to a certificate file")
    p.add_argument("--artin", action="store_true")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("export", help="write presentation text or DOT")
    fam_rank(p)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_export)

    return parser


def _plain_render(report: dict, indent: str = "") -> None:
    for key, value in report.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _plain_render(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{indent}{key}:")
            for item in value:
                _plain_render(item, indent + "  ")
                print()
        else:
            print(f"{indent}{key}: {value}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        env_budget_scale()
    except SystemExit:  # --help; every parse error raises _UsageError
        return 0
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    start = time.perf_counter()
    try:
        report = args.func(args)
    except (_UsageError, RankOutOfRange, UnsupportedFamily) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_USAGE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EX_SOFTWARE
    statuses = [report.get("status")]  # prove reports its one proof inline
    report = _jsonable({"schema": 1, "command": args.command, **report,
                        "wall_time": round(time.perf_counter() - start, 3)},
                       statuses)
    code = (1 if "disproved" in statuses else 2 if "unknown" in statuses
            else 0 if report.get("pass", True) else 1)
    report["exit_code"] = code
    try:
        if args.json:
            json.dump(report, sys.stdout, indent=2)
            sys.stdout.write("\n")
        elif args.command == "abelianize":
            print(" ".join(str(d) for d in report["divisors"]))
        elif args.command == "export":
            print(report["text"], end="")
        else:
            _plain_render(report)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: send what Python flushes at exit to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
