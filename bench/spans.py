"""Span recording around sigmaforge's layers, installed from outside.

`install()` replaces each traced public function, method and classmethod
with a wrapper that records a span (name, start, end, parent, request).  A
function is replaced under every name that binds it, so calls through the
package namespace and through `from .setcalc import ...` in another module
are both seen.  Spans stay in flat arrays in memory and are written out by
`Tracer.write()` after the timed region.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter

import sigmaforge
from sigmaforge import bounds, cli, construct, groups, setcalc, verify

_MODULES = (sigmaforge, groups, setcalc, bounds, construct, verify, cli)

_BOUNDS = (
    "kneser_bound",
    "corollary_bound",
    "main_bound_check",
    "sequence_bound_check",
    "cauchy_schwarz_check",
    "recursive_bound_numerator",
)
_CONSTRUCT = (
    "witness_easy",
    "witness_hard",
    "hard_bound_diagnostic",
    "classify_cosets",
    "dense_graph",
    "greedy_grow",
    "best_half_subset",
)
_VERIFIERS = (
    "exhaustive_theorem",
    "random_kneser",
    "random_sequence_theorem",
    "olson_check",
    "olson_witness",
    "vu_check",
    "interval_example",
    "extremal_search",
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.request = array("i")
        self.stack = [-1]
        self.current_request = -1
        self.outcomes = Counter()

    def wrap(self, span, fn, outcome=None):
        """`fn` recording a span named `span`; `outcome(result)` counts results."""
        name_id = self._name_ids.setdefault(span, len(self.names))
        if name_id == len(self.names):
            self.names.append(span)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        requests, stack, clock = self.request, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            requests.append(self.current_request)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if outcome is not None:
                outcome(result)
            return result

        return traced

    def _count(self, key, pred):
        def outcome(result):
            if pred(result):
                self.outcomes[key] += 1

        return outcome

    def _add_instances(self, run):
        stats = getattr(run, "stats", None)
        if stats:
            self.outcomes["verify.instances"] += stats.get("instances", 0)

    def install(self):
        """Wrap every traced layer entry point of the imported sigmaforge."""
        plain = [
            (groups, "quotient", "groups.quotient", None),
            (groups, "parse_group", "groups.parse", None),
            (groups, "parse_element", "groups.parse", None),
            (setcalc, "subset_sums", "setcalc.subset_sums",
             self._count("full", lambda s: s.mask == s.group.full_mask)),
            (setcalc, "stabilizer", "setcalc.stabilizer",
             self._count("trivial", lambda h: len(h) == 1)),
            (setcalc, "sumset", "setcalc.sumset", None),
            (setcalc, "subsequence_sums", "setcalc.subsequence_sums", None),
            (setcalc, "coset_profile", "setcalc.coset_profile", None),
            (cli, "main", "cli.main", None),
        ]
        plain += [(bounds, f, f"bounds.{f}", None) for f in _BOUNDS]
        plain += [(construct, f, f"construct.{f}", None) for f in _CONSTRUCT]
        plain += [(verify, f, f"verify.{f}", self._add_instances) for f in _VERIFIERS]
        for module, attr, span, outcome in plain:
            orig = getattr(module, attr)
            traced = self.wrap(span, orig, outcome)
            for m in _MODULES:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, traced)

        for cls in (setcalc.GroupSet, setcalc.SequenceMS):
            cls.literal = self.wrap("setcalc.literal", cls.literal)
        from_indices = setcalc.GroupSet.__dict__["from_indices"].__func__
        setcalc.GroupSet.from_indices = classmethod(
            self.wrap("setcalc.from_indices", from_indices)
        )
        groups.Subgroup.__init__ = self.wrap("groups.Subgroup", groups.Subgroup.__init__)
        verify.VerificationRun.to_json = self.wrap(
            "verify.to_json", verify.VerificationRun.to_json
        )

    def layer_metrics(self, speed: float) -> dict:
        """Per-layer counts, self times and ratios over all recorded spans.

        Self times are converted to reference seconds at `speed` (see
        sampler.py); they include the sampler's handler time, about 2%.
        """
        n_names = len(self.names)
        calls = [0] * n_names
        self_ns = [0] * n_names
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        child_ns = [0] * len(names)
        for i in range(len(names) - 1, -1, -1):  # children follow parents
            dur = ends[i] - starts[i]
            p = parents[i]
            if p >= 0:
                child_ns[p] += dur
            calls[names[i]] += 1
            self_ns[names[i]] += dur - child_ns[i]

        verify_ids = {self._name_ids[f"verify.{f}"] for f in _VERIFIERS}
        sums_id = self._name_ids["setcalc.subset_sums"]
        in_verify = array("b", bytes(len(names)))
        evaluations = 0
        for i in range(len(names)):
            p = parents[i]
            inside = p >= 0 and (in_verify[p] or names[p] in verify_ids)
            in_verify[i] = inside
            if inside and names[i] == sums_id:
                evaluations += 1

        def total(prefixes, table):
            return sum(
                table[i] for i, s in enumerate(self.names) if s.startswith(prefixes)
            )

        def c(span):
            return total((span,), calls) if span.endswith(".") else calls[self._name_ids[span]]

        def s(span):
            ns = total((span,), self_ns) if span.endswith(".") else self_ns[self._name_ids[span]]
            return ns / 1e9 * speed

        def ratio(num, den):
            return num / den if den else 0.0

        instances = self.outcomes["verify.instances"]
        verify_self = sum(self_ns[i] for i in verify_ids) / 1e9 * speed
        return {
            "groups.quotient.calls": c("groups.quotient"),
            "groups.quotient.self_s": s("groups.quotient"),
            "groups.Subgroup.calls": c("groups.Subgroup"),
            "groups.Subgroup.self_s": s("groups.Subgroup"),
            "groups.parse.self_s": s("groups.parse"),
            "setcalc.subset_sums.calls": c("setcalc.subset_sums"),
            "setcalc.subset_sums.self_s": s("setcalc.subset_sums"),
            "setcalc.subset_sums.full_ratio": ratio(
                self.outcomes["full"], c("setcalc.subset_sums")
            ),
            "setcalc.stabilizer.calls": c("setcalc.stabilizer"),
            "setcalc.stabilizer.self_s": s("setcalc.stabilizer"),
            "setcalc.stabilizer.trivial_ratio": ratio(
                self.outcomes["trivial"], c("setcalc.stabilizer")
            ),
            "setcalc.sumset.calls": c("setcalc.sumset"),
            "setcalc.sumset.self_s": s("setcalc.sumset"),
            "setcalc.subsequence_sums.self_s": s("setcalc.subsequence_sums"),
            "setcalc.coset_profile.self_s": s("setcalc.coset_profile"),
            "setcalc.literal.calls": c("setcalc.literal"),
            "setcalc.literal.self_s": s("setcalc.literal"),
            "setcalc.from_indices.self_s": s("setcalc.from_indices"),
            "bounds.calls": c("bounds."),
            "bounds.self_s": s("bounds."),
            "construct.best_half_subset.self_s": s("construct.best_half_subset"),
            "construct.greedy_grow.self_s": s("construct.greedy_grow"),
            "construct.calls": c("construct."),
            "verify.self_s": verify_self,
            "verify.instances": instances,
            "verify.evaluations_per_instance": ratio(evaluations, instances),
            "verify.to_json.self_s": s("verify.to_json"),
            "cli.calls": c("cli.main"),
            "cli.self_s": s("cli.main"),
        }

    def write(self, path) -> None:
        """All spans as gzipped CSV: id,parent,request,name,start_ns,end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id,parent,request,name,start_ns,end_ns\n")
            names = self.names
            for i, (n, p, r, t0, t1) in enumerate(
                zip(self.name, self.parent, self.request, self.start, self.end)
            ):
                f.write(f"{i},{p},{r},{names[n]},{t0},{t1}\n")
