"""Span tracing of crysref from outside the package.

``Tracer.install`` replaces crysref's public functions and arithmetic
methods with wrappers that time each call.  Nothing inside crysref is
changed: the wrappers sit at the module attributes that the package's own
modules look their callees up through.

Two kinds of wrapper:

* ``SPANNED`` functions record one span per call: name, start, end,
  parent span and run id (0 for set-up, then the round number).
* ``AGGREGATED`` and ``COUNTED`` arithmetic methods run millions of times
  per round, so one record per call would not fit in memory.  They keep a
  call count (and, for ``AGGREGATED``, a busy time) per name, and their
  time is charged to the enclosing span as child time.

A span's self time is its duration minus the time of its child spans and
of the aggregated calls made inside it.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

SPANNED = (
    ("prover", "verify_isomorphism_pair"),
    ("prover", "prove_trivial"),
    ("prover", "resolve_hint"),
    ("prover", "abelian_obstruction"),
    ("snf", "smith_normal_form"),
    ("affine", "enumerate_reflection_classes"),
    ("affine", "classify_element"),
    ("affine", "evaluate_word"),
    ("affine", "verify_presentation"),
    ("hecke", "gdaha_check"),
    ("hecke", "verify_specialization"),
    ("hecke", "triple_dot_report"),
    ("hecke", "degeneration_check"),
    ("presentations", "build_group_presentation"),
    ("presentations", "artinize"),
    ("presentations", "abelianize"),
    ("isomorphisms", "braid_isomorphism"),
)

# (module, class, method, label): timed and counted
AGGREGATED = (
    ("affine", "AffineElement", "__mul__", "mul"),
    ("hecke", "LaurentPoly", "__mul__", "mul"),
)

# (module, class, method, label): counted only, the cheapest wrapper
COUNTED = (
    ("affine", "AffineElement", "inverse", "inverse"),
    ("ring", "RingElement", "__mul__", "mul"),
    ("ring", "RingElement", "__add__", "add"),
)

# span record fields
NAME, START, END, PARENT, RUN, CHILD = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counts: dict[str, list] = {}   # name -> [calls, busy_s]
        self.run_id = 0
        self.active = False
        self.setup_counts: dict[str, list] = {}
        # per run id: [Proved results, certificate steps, hint calls,
        # hints resolved]
        self.proofs: dict[int, list[int]] = {}

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Import crysref and wrap every target in all its modules."""
        mods = {name: importlib.import_module(f"crysref.{name}")
                for name in ("prover", "snf", "affine", "hecke", "ring",
                             "presentations", "isomorphisms")}
        package = [m for name, m in sys.modules.items()
                   if name == "crysref" or name.startswith("crysref.")]
        for mod, attr in SPANNED:
            orig = getattr(mods[mod], attr)
            wrapped = self._span(f"{mod}.{attr}", orig)
            for m in package:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
        for mod, cls, meth, label in AGGREGATED:
            klass = getattr(mods[mod], cls)
            setattr(klass, meth,
                    self._aggregate(f"{mod}.{cls}.{label}", vars(klass)[meth]))
        for mod, cls, meth, label in COUNTED:
            klass = getattr(mods[mod], cls)
            setattr(klass, meth,
                    self._count(f"{mod}.{cls}.{label}", vars(klass)[meth]))

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        on_result = self._on_result if name in (
            "prover.prove_trivial", "prover.resolve_hint") else None

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else None,
                    self.run_id, 0.0]
            spans.append(span)
            stack.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][CHILD] += span[END] - span[START]
            if on_result is not None:
                on_result(name, result)
            return result

        return wrapper

    def _aggregate(self, name, fn):
        stat = self.counts.setdefault(name, [0, 0.0])
        stack = self.stack

        def wrapper(*args):
            if not self.active:
                return fn(*args)
            start = perf_counter()
            result = fn(*args)
            took = perf_counter() - start
            stat[0] += 1
            stat[1] += took
            if stack:
                stack[-1][CHILD] += took
            return result

        return wrapper

    def _count(self, name, fn):
        stat = self.counts.setdefault(name, [0, 0.0])

        def wrapper(*args):
            if self.active:
                stat[0] += 1
            return fn(*args)

        return wrapper

    def _on_result(self, name, result) -> None:
        tally = self.proofs.setdefault(self.run_id, [0, 0, 0, 0])
        proved = result.status.name == "PROVED"
        if proved:
            tally[0] += 1
            tally[1] += len(result.certificate.steps)
        if name == "prover.resolve_hint":
            tally[2] += 1
            tally[3] += proved

    def begin_rounds(self) -> None:
        """Mark the end of set-up: later calls belong to round 1 on."""
        self.setup_counts = {k: list(v) for k, v in self.counts.items()}
        self.run_id = 1

    # -- results -------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures for one set-up plus one round: spans of run
        0 count once, spans of the rounds are averaged over ``rounds``."""

        def per_round(setup, rounds_total):
            # sum first, divide once: counts stay whole numbers
            return setup + rounds_total / rounds

        # name -> ([calls, busy, self] in set-up, the same over all rounds)
        by_name: dict[str, tuple] = {}
        longest: dict[str, float] = {}
        for span in self.spans:
            name, took = span[NAME], span[END] - span[START]
            phases = by_name.setdefault(name, ([0, 0.0, 0.0], [0, 0.0, 0.0]))
            acc = phases[0] if span[RUN] == 0 else phases[1]
            acc[0] += 1
            acc[1] += took
            acc[2] += took - span[CHILD]
            longest[name] = max(longest.get(name, 0.0), took)
        setup_proofs = self.proofs.get(0, [0] * 4)
        round_proofs = [sum(t[i] for r, t in self.proofs.items() if r)
                        for i in range(4)]
        proofs = [per_round(a, b) for a, b in zip(setup_proofs, round_proofs)]

        def get(name, field):
            """field 0 calls, 1 busy, 2 self, 3 max."""
            if name not in by_name:
                return 0.0
            if field == 3:
                return longest[name]
            setup, in_rounds = by_name[name]
            return per_round(setup[field], in_rounds[field])

        def count(name, field=0):
            setup = self.setup_counts[name][field]
            return per_round(setup, self.counts[name][field] - setup)

        hint_calls, resolved = proofs[2], proofs[3]
        out = {
            "prover.verify_isomorphism_pair.busy_s":
                get("prover.verify_isomorphism_pair", 1),
            "prover.prove_trivial.calls": get("prover.prove_trivial", 0),
            "prover.prove_trivial.self_s": get("prover.prove_trivial", 2),
            "prover.prove_trivial.max_s": get("prover.prove_trivial", 3),
            "prover.resolve_hint.calls": hint_calls,
            "prover.resolve_hint.busy_s": get("prover.resolve_hint", 1),
            "prover.resolve_hint.fallbacks": hint_calls - resolved,
            "prover.resolve_hint.resolved_ratio":
                resolved / hint_calls if hint_calls else 0.0,
            "prover.abelian_obstruction.calls":
                get("prover.abelian_obstruction", 0),
            "prover.abelian_obstruction.busy_s":
                get("prover.abelian_obstruction", 1),
            "snf.smith_normal_form.calls": get("snf.smith_normal_form", 0),
            "snf.smith_normal_form.busy_s": get("snf.smith_normal_form", 1),
            "prover.proved": proofs[0],
            "prover.cert_steps": proofs[1],
            "affine.enumerate_reflection_classes.busy_s":
                get("affine.enumerate_reflection_classes", 1),
            "affine.AffineElement.mul.calls": count("affine.AffineElement.mul"),
            "affine.AffineElement.mul.busy_s":
                count("affine.AffineElement.mul", 1),
            "affine.AffineElement.inverse.calls":
                count("affine.AffineElement.inverse"),
            "affine.classify_element.calls": get("affine.classify_element", 0),
            "affine.classify_element.busy_s": get("affine.classify_element", 1),
            "affine.evaluate_word.calls": get("affine.evaluate_word", 0),
            "affine.evaluate_word.busy_s": get("affine.evaluate_word", 1),
            "affine.verify_presentation.busy_s":
                get("affine.verify_presentation", 1),
            "ring.RingElement.mul.calls": count("ring.RingElement.mul"),
            "ring.RingElement.add.calls": count("ring.RingElement.add"),
            "hecke.gdaha_check.busy_s": get("hecke.gdaha_check", 1),
            "hecke.verify_specialization.self_s":
                get("hecke.verify_specialization", 2),
            "hecke.LaurentPoly.mul.calls": count("hecke.LaurentPoly.mul"),
            "hecke.LaurentPoly.mul.busy_s":
                count("hecke.LaurentPoly.mul", 1),
            "hecke.triple_dot_report.busy_s": get("hecke.triple_dot_report", 1),
            "hecke.degeneration_check.busy_s":
                get("hecke.degeneration_check", 1),
        }
        for name in ("presentations.build_group_presentation",
                     "presentations.artinize", "presentations.abelianize",
                     "isomorphisms.braid_isomorphism"):
            out[f"{name}.busy_s"] = get(name, 1)
        return out

    def write_spans(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent index, run
        id.  Times are seconds from the first span."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for span in self.spans:
                parent = span[PARENT]
                fh.write(json.dumps([
                    span[NAME], span[START] - t0, span[END] - t0,
                    None if parent is None else index[id(parent)],
                    span[RUN],
                ]) + "\n")
