"""Outside-in layer tracer for charp_autos.

The tracer replaces the library's public functions and methods with timing
wrappers from outside `src/`, so the library itself is unchanged.  Each call
of a wrapped function is a span named after its layer; a span's self time
is its duration minus the time covered by the spans it called.  Spans are
aggregated per name in memory (calls, self seconds) and read out when the
run ends.

A function imported by name into other modules (`from .poly import
exact_div`) has one binding per module; every binding of the original
object in every `charp_autos.*` namespace is replaced, so a call reaches
the wrapper whichever module makes it.  For a class, every attribute that
holds the original function is replaced, which covers aliases such as
`MultiPoly.__rmul__ = __mul__`.

`Coeff` construction is counted, not timed, to keep the per-call cost low.
"""

import functools
import sys
import time

# (span, module, targets, kind).  A target "Class.attr" is a method; kind
# selects the counters kept besides calls and self time (see _make_wrapper).
SPANS = (
    ("coeffs.add", "coeffs", ("Coeff.__add__", "Coeff.__sub__",
                              "Coeff.__rsub__", "Coeff.__neg__"), None),
    ("coeffs.mul", "coeffs", ("Coeff.__mul__", "Coeff.__pow__",
                              "Coeff.frob_power"), None),
    ("coeffs.div", "coeffs", ("Coeff.__truediv__", "Coeff.__rtruediv__",
                              "Coeff.inv"), None),
    ("coeffs.gcd", "coeffs", ("coeff_gcd_integral",), None),
    ("poly.add", "poly", ("MultiPoly.__add__", "MultiPoly.__sub__",
                          "MultiPoly.__rsub__", "MultiPoly.__neg__"), "poly"),
    ("poly.mul", "poly", ("MultiPoly.__mul__",), "mul"),
    ("poly.scale", "poly", ("MultiPoly.scale", "MultiPoly.map_coeffs"),
     "poly"),
    ("poly.pow", "poly", ("MultiPoly.__pow__",), "poly"),
    ("poly.frob", "poly", ("MultiPoly.frob",), "poly"),
    ("poly.truncate_u", "poly", ("MultiPoly.truncate_u",), "poly"),
    ("poly.substitute", "poly", ("MultiPoly.substitute",), "poly"),
    ("poly.exact_div", "poly", ("exact_div",), "div"),
    ("poly.content_primitive", "poly", ("content_primitive",), None),
    ("poly.is_polynomial_over", "poly", ("is_polynomial_over",), None),
    ("poly.express_in_invariant", "poly", ("express_in_invariant",), None),
    ("endo.compose", "endo", ("compose",), None),
    ("endo.conjugate", "endo", ("conjugate",), None),
    ("endo.invert_structured", "endo", ("invert_structured",), None),
    ("endo.order_up_to", "endo", ("order_up_to",), None),
    ("endo.classify", "endo", ("classify",), None),
    ("gaction.check_axioms", "gaction", ("check_axioms",), None),
    ("gaction.slice_action", "gaction", ("slice_action",), None),
    ("gaction.slice_axioms_report", "gaction", ("slice_axioms_report",), None),
    ("gaction.additivity_check", "gaction", ("additivity_check",), None),
    ("gaction.rank_certificate", "gaction", ("rank_certificate",), None),
    ("gaction.evaluate", "gaction", ("GaAction.evaluate",), None),
    ("expo.exponentialize_triangular_n2", "expo",
     ("exponentialize_triangular_n2",), None),
    ("expo.maubach_conjugator", "expo", ("maubach_conjugator",), None),
    ("expo.theta_of", "expo", ("theta_of",), None),
    ("expo.sigma_from_theta", "expo", ("sigma_from_theta",), None),
    ("plane.jvdk_factor", "plane", ("jvdk_factor",), None),
    ("plane.normal_form", "plane", ("normal_form",), None),
    ("plane.recompose", "plane", ("recompose",), None),
    ("plane.centralizer_decompose", "plane", ("centralizer_decompose",), None),
    ("plane.centralizer_membership", "plane", ("centralizer_membership",),
     None),
    ("plane.fixed_point_elem_centralizer", "plane",
     ("fixed_point_elem_centralizer",), None),
    ("plane.fpf_witness_check", "plane", ("fpf_witness_check",), None),
    ("criteria.gauss_check", "criteria", ("gauss_check",), None),
    ("criteria.non_exponentiality_certificate", "criteria",
     ("non_exponentiality_certificate",), None),
    ("criteria.f_stability", "criteria", ("f_stability",), None),
    ("criteria.a_rigid_counter_action", "criteria",
     ("a_rigid_counter_action",), None),
    ("gallery.build_example_triangular", "gallery",
     ("build_example_triangular",), None),
    ("gallery.build_nonexp_family", "gallery", ("build_nonexp_family",), None),
    ("gallery.build_F_and_Fh", "gallery", ("build_F_and_Fh",), None),
    ("gallery.build_rank_r_action", "gallery", ("build_rank_r_action",), None),
    ("gallery.build_rank3_family", "gallery", ("build_rank3_family",), None),
)

# The root span around each case; the worker wraps its case runner in it.
ROOT_SPAN = "suites.case"
LAYERS = ("coeffs", "poly", "endo", "gaction", "expo", "plane", "criteria",
          "gallery", "suites")


class Tracer:
    def __init__(self):
        self.stats = {}           # span -> [calls, self seconds]
        self.bindings = {}        # span -> number of bindings replaced
        # child-time accumulators of the open spans; the bottom entry
        # collects the durations of the outermost spans
        self._stack = [0.0]
        # poly.mul term products, poly.exact_div quotient terms, largest
        # term count of a poly result, Coeff normalisations, of which the
        # input denominator was 1
        self.counts = {"term_products": 0, "quotient_terms": 0,
                       "max_terms": 0, "normalisations": 0,
                       "integral_inputs": 0}

    # -- wrapping ------------------------------------------------------------

    def wrap(self, span, fn, kind=None):
        stat = self.stats.setdefault(span, [0, 0.0])
        return _make_wrapper(fn, stat, self._stack, self.counts, kind)

    def install(self):
        """Wrap every listed target and count Coeff normalisations."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "charp_autos" or name.startswith("charp_autos.")]
        for span, modname, targets, kind in SPANS:
            owner = sys.modules["charp_autos." + modname]
            replaced = 0
            for target in targets:
                if "." in target:
                    cls_name, attr = target.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[attr]
                    wrapper = self.wrap(span, orig, kind)
                    for key, val in list(vars(cls).items()):
                        if val is orig:
                            setattr(cls, key, wrapper)
                            replaced += 1
                else:
                    orig = getattr(owner, target)
                    wrapper = self.wrap(span, orig, kind)
                    for mod in modules:
                        for key, val in list(vars(mod).items()):
                            if val is orig:
                                setattr(mod, key, wrapper)
                                replaced += 1
            self.bindings[span] = replaced
        self._count_normalisations(sys.modules["charp_autos.coeffs"].Coeff)

    def check_bindings(self, originals, before):
        """Spans whose bindings install() missed.  `originals` and `before`
        are find_originals() and binding_sites() taken before install().
        A span is missed if fewer bindings were replaced than held one of
        its originals, or if an original is still bound anywhere."""
        after = binding_sites(originals)
        return sorted(span for span, _, _, _ in SPANS
                      if self.bindings.get(span, 0) < before[span]
                      or after[span])

    def _count_normalisations(self, coeff_cls):
        orig_init = coeff_cls.__init__
        counts = self.counts
        one = (1,)

        def __init__(self, p, num, den=one):
            orig_init(self, p, num, den)
            if self.num:            # a nonzero result went through the gcd
                counts["normalisations"] += 1
                if den == one:
                    counts["integral_inputs"] += 1
        coeff_cls.__init__ = __init__

    # -- results -------------------------------------------------------------

    def layer_self_seconds(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for span, (_, self_s) in self.stats.items():
            out[span.split(".")[0]] += self_s
        return out


def find_originals():
    """{id: (span, function)} of every listed target, looked up before
    install() replaces it."""
    originals = {}
    for span, modname, targets, _ in SPANS:
        obj = sys.modules["charp_autos." + modname]
        for target in targets:
            fn = obj
            for part in target.split("."):
                fn = vars(fn)[part]
            originals[id(fn)] = (span, fn)
    return originals


def binding_sites(originals):
    """{span: number of places that hold one of its original functions}.

    Scans independently of install(): the namespace of every loaded
    `charp_autos.*` module and the attributes of every class defined in
    one, whichever module a target was looked up in.
    """
    modules = [m for name, m in list(sys.modules.items())
               if name == "charp_autos" or name.startswith("charp_autos.")]
    namespaces = {id(m): vars(m) for m in modules}
    for mod in modules:
        for val in vars(mod).values():
            if isinstance(val, type) and val.__module__.startswith(
                    "charp_autos"):
                namespaces[id(val)] = vars(val)
    sites = dict.fromkeys((span for span, _, _, _ in SPANS), 0)
    for namespace in namespaces.values():
        for val in list(namespace.values()):
            if id(val) in originals:
                sites[originals[id(val)][0]] += 1
    return sites


def _make_wrapper(fn, stat, stack, counts, kind):
    clock = time.perf_counter

    def timed(*args, **kwargs):
        stack.append(0.0)
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            stat[0] += 1
            stat[1] += dt - stack.pop()
            stack[-1] += dt

    def counted(*args, **kwargs):
        out = timed(*args, **kwargs)
        terms = getattr(out, "terms", None)
        if terms is None:        # NotImplemented from an operator
            return out
        if len(terms) > counts["max_terms"]:
            counts["max_terms"] = len(terms)
        if kind == "mul":        # a scalar operand is a one-term constant
            counts["term_products"] += len(args[0].terms) * len(
                getattr(args[1], "terms", (0,)))
        elif kind == "div":
            counts["quotient_terms"] += len(terms)
        return out

    return functools.update_wrapper(timed if kind is None else counted, fn)
