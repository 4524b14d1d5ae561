"""Workloads of the benchmark: seeded argv lists for the hskdv CLI.

A workload is a fixed list of items; an item is one ``hskdv`` command
line. The seed picks, per item, one parameter tuple from a short list.
Every tuple was run at the seed commit, passes the program's own
validity limits there, and has a fingerprint in ``reference.json``, so
every seed gives inputs whose outputs can be checked. The tuples vary
coefficients and data amplitudes, never sizes, so the work in one pass
is the same for every seed.

Sizes are smaller than the longest runs a researcher makes (README
``simulate`` runs to T = 0.5, the acceptance IBPS run to T = 0.1) so
that one pass takes a few seconds and a run can take the median of
several passes.
"""

import hashlib
import math

LADDER = "64,128,256"


def _classify(a, k, s):
    return ["classify", "--a", a, "--k", k, "--s", s]


def _atlas(a):
    return ["atlas", "--a", a]


def _fre(s):
    def argv(a):
        return ["fre-scan", "--form", "dxv2", "--a", a, "--k", "1",
                "--s", s]
    return argv


def _l61(a, s):
    return ["sharpness", "--lemma", "L61", "--k", "0", "--s", s,
            "--a", a, "--N_ladder", LADDER]


def _l64(k):
    return ["sharpness", "--lemma", "L64", "--k", k, "--N_ladder", LADDER]


def _l67(a, s):
    return ["sharpness", "--lemma", "L67", "--s", s, "--a", a,
            "--N_ladder", LADDER]


def _third_v(a):
    # the L68 ladder datum at N = 64 (sharpness.build), one window
    n = 64.0
    w = n ** -0.5
    boxes = "%r:%r;%r:%r" % (n, n + w, -n + 1.25 * w, -n + 1.5 * w)
    return ["picard", "--iterate", "third_v", "--gl_nodes", "6",
            "--a", a, "--t", "0.01", "--v_boxes", boxes,
            "--window_lo", repr(n + 2.0 * w),
            "--window_hi", repr(n + 2.25 * w)]


def _simulate(n, T):
    def argv(a, u0, v0, width):
        return ["simulate", "--a", a, "--n", n, "--T", T, "--dt", "1e-4",
                "--u0_amp", u0, "--v0_amp", v0, "--width", width]
    return argv


def _ibps(a, u0, v0):
    return ["ibps-check", "--a", a, "--n", "256", "--L",
            repr(2.0 * math.pi), "--dt", "2e-5", "--T", "0.01024",
            "--store_every", "2", "--width", "0.25", "--u0_amp", u0,
            "--v0_amp", v0, "--max_residual", "1e-4"]


# item name -> (fingerprint kind, argv builder, vetted parameter tuples)
ITEMS = {
    "classify_inside": ("classify", _classify, [
        ("0.5", "1", "1"), ("2", "1", "1"), ("-1", "1", "1"),
        ("0.25", "1", "1"), ("3", "2", "1")]),
    "classify_outside": ("classify", _classify, [
        ("0.5", "-1", "0"), ("2", "0", "3.5"), ("-1", "6", "3"),
        ("0.25", "0", "-1"), ("3", "1", "-2")]),
    "atlas": ("atlas", _atlas, [("0.5",), ("2",), ("-1",), ("0.25",),
                                ("3",)]),
    "fre_inside": ("fre", _fre("0.5"), [("0.5",), ("2",), ("3",),
                                         ("0.75",)]),
    "fre_outside": ("fre", _fre("0.25"), [("0.5",), ("2",), ("3",),
                                           ("0.75",)]),
    "sharpness_L61": ("sharpness", _l61, [
        ("2", "0"), ("-1", "0"), ("3", "0"), ("2", "1"), ("-2", "0.5")]),
    "sharpness_L64": ("sharpness", _l64, [("0",), ("1",), ("0.5",),
                                          ("-1",)]),
    "sharpness_L67": ("sharpness", _l67, [
        ("2", "0"), ("3", "0"), ("2", "1"), ("4", "0.5")]),
    "picard_third_v": ("picard", _third_v, [("-1",), ("-0.5",), ("-2",),
                                            ("-0.25",)]),
    "simulate_n256": ("simulate", _simulate("256", "0.2"), [
        ("0.5", "0.5", "0.5", "2.0"), ("0.5", "0.4", "0.3", "2.0"),
        ("2", "0.5", "0.5", "2.0"), ("-1", "0.3", "0.5", "1.5"),
        ("0.5", "0.5", "0.4", "2.5")]),
    "simulate_n1024": ("simulate", _simulate("1024", "0.1"), [
        ("0.5", "0.5", "0.5", "2.0"), ("0.5", "0.4", "0.3", "2.0"),
        ("2", "0.5", "0.5", "2.0"), ("-1", "0.3", "0.5", "1.5"),
        ("0.5", "0.5", "0.4", "2.5")]),
    "ibps_check": ("ibps", _ibps, [
        ("0.5", "0.5", "0.5"), ("0.5", "0.4", "0.3"), ("2", "0.5", "0.5"),
        ("-1", "0.4", "0.4"), ("0.5", "0.3", "0.5")]),
}

WORKLOADS = {
    # loads regions, atlas_svg, fre, sharpness, picard and phases; no solver
    "certify": ["classify_inside", "classify_outside", "atlas",
                "fre_inside", "fre_outside", "sharpness_L61",
                "sharpness_L64", "sharpness_L67", "picard_third_v"],
    # pure solver stepping: numpy call overhead at n=256, FFT work at 1024
    "simulate": ["simulate_n256", "simulate_n1024"],
    # a short solve keeping every other state, then the n x n pair sums
    "ibps": ["ibps_check"],
}


class Item:
    """One CLI invocation of a workload."""

    def __init__(self, workload, name, kind, argv):
        self.workload = workload
        self.name = name
        self.kind = kind
        self.argv = argv

    @property
    def key(self):
        """Reference key: the argv as one line."""
        return " ".join(self.argv)


def _pick(seed, name, n):
    digest = hashlib.sha256(("%d:%s" % (seed, name)).encode()).digest()
    return int.from_bytes(digest[:8], "big") % n


def items(workload, seed):
    """The items of one workload for one seed, in run order."""
    out = []
    for name in WORKLOADS[workload]:
        kind, build, choices = ITEMS[name]
        params = choices[_pick(seed, name, len(choices))]
        out.append(Item(workload, name, kind, build(*params)))
    return out


def all_variants():
    """Every vetted item of every workload (for recording references)."""
    for workload, names in WORKLOADS.items():
        for name in names:
            kind, build, choices = ITEMS[name]
            for params in choices:
                yield Item(workload, name, kind, build(*params))
