"""The four workloads.  Each one builds its inputs (the set-up) and
returns its operations: one operation is one command-level check, made
through the same public library call as the matching CLI subcommand.

The inputs are fixed families and ranks and the prover is deterministic,
so every round of a workload does the same work and gives the same
output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from crysref import affine, hecke, hints, isomorphisms, presentations, prover

import checks

# Functions are looked up through their modules at call time, so that the
# tracer's wrappers (installed before this module is imported) are used.


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]   # output -> problems, [] when correct


def _braid(family, n, model, with_hints=False):
    iso = isomorphisms.braid_isomorphism(family, n)
    bundle = hints.sphere_rank3_hints() if with_hints else None

    def run():
        return prover.verify_isomorphism_pair(
            iso.fwd, iso.bwd, iso.braid.relators, iso.artin.relators,
            hints=bundle)

    mode = "replay" if with_hints else "search"
    return Op(f"braid {family} {n} {mode}", run,
              lambda rep: checks.braid_pair(rep, iso, family, n, model))


def search_a4():
    """``braid A_alpha 4``, search mode, both directions."""
    return [_braid("A_alpha", 4, checks.MatrixModel())]


def replay_c3():
    """``braid C_alpha 3 --mode replay``."""
    return [_braid("C_alpha", 3, checks.MatrixModel(), with_hints=True)]


CLASS_COUNTS = {("C_alpha", 1): 4, ("C_alpha", 2): 5, ("C_alpha", 3): 5,
                ("A_alpha", 3): 1, ("A_alpha", 4): 1}
CLASS_BOUND = 2


def classes():
    """``classes`` at bound 2 for C_alpha 1-3 and A_alpha 3-4."""
    ops = []
    for (family, n), count in CLASS_COUNTS.items():
        ops.append(Op(
            f"classes {family} {n}",
            lambda f=family, n=n: affine.enumerate_reflection_classes(
                f, n, bound=CLASS_BOUND),
            lambda out, f=family, n=n, c=count: checks.classes(
                out, f, n, CLASS_BOUND, c)))
    return ops


VERIFY_CASES = [("A_alpha", n) for n in (3, 4, 5)] + [
    ("C_alpha", n) for n in (1, 2, 3, 4)]
# the abelianization table rows and the appendix families, all ten
ABELIANIZE_CASES = (
    [("C_alpha", 1)] + [("A_alpha", n) for n in (3, 4, 5)]
    + [("C_alpha", n) for n in (2, 3, 4, 5)]
    + [("G311", 2), ("G411", 2), ("G611", 2), ("G412", 3), ("G421", 3),
       ("G422", 4), ("G621", 3), ("G631", 3)])
BRAID_SEARCH_CASES = (("C_alpha", 2), ("C_alpha", 3), ("A_alpha", 3))
# GDAHA diagram D4 is the C_alpha deformation, E6/E7/E8 the G(d,1,n) ones
GDAHA_CASES = (("C_alpha", 2), ("C_alpha", 3), ("G311", 1), ("G311", 2),
               ("G411", 1), ("G411", 2), ("G611", 1), ("G611", 2))
TRIPLE_DOT_RANKS = (3, 4)
DEGENERATION_FAMILIES = ("A_alpha", "C_alpha", "G311", "G411", "G611")


def _verify(family, n):
    pres = presentations.build_group_presentation(family, n)
    _, gens = affine.build_generator_matrices(family, n)

    def check(report):
        ok = report["pass"] and report["extra_order"]["pass"]
        return [] if ok else [f"verify {family} {n}: a relator fails"]

    return Op(f"verify {family} {n}",
              lambda: affine.verify_presentation(pres, gens), check)


def _abelianize(family, n):
    pres = presentations.build_group_presentation(family, n)
    return Op(f"abelianize {family} {n}",
              lambda: presentations.abelianize(pres),
              lambda out: checks.abelianization(out, pres, f"{family} {n}"))


def _gdaha(family, n, model):
    return Op(f"gdaha-check {family} {n}",
              lambda: hecke.gdaha_check(family, n),
              lambda rep: checks.gdaha(
                  rep, family, n, hecke.gdaha_family_data(family, n), model))


def _triple_dot(n, model):
    return Op(f"tripledot {n}", lambda: hecke.triple_dot_report(n),
              lambda rep: checks.triple_dot(
                  rep, n, hecke.triple_dot_generator(n), model))


def _degeneration(family):
    return Op(f"degeneration {family} 2",
              lambda: hecke.degeneration_check(family, 2),
              lambda ok: [] if ok is True else [f"degeneration {family}: {ok}"])


def certify_small():
    """The quick acceptance checks, once each."""
    model = checks.MatrixModel()
    ops = [_verify(f, n) for f, n in VERIFY_CASES]
    ops += [_abelianize(f, n) for f, n in ABELIANIZE_CASES]
    ops += [_braid(f, n, model) for f, n in BRAID_SEARCH_CASES]
    ops += [_gdaha(f, n, model) for f, n in GDAHA_CASES]
    ops.append(Op("rank-one", lambda: hecke.rank_one_specialization_check(),
                  lambda rep: [] if rep["pass"] else ["rank-one fails"]))
    ops += [_triple_dot(n, model) for n in TRIPLE_DOT_RANKS]
    ops += [_degeneration(f) for f in DEGENERATION_FAMILIES]
    return ops


WORKLOADS = {
    "search-a4": search_a4,
    "replay-c3": replay_c3,
    "classes": classes,
    "certify-small": certify_small,
}
