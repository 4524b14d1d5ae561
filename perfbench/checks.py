"""Output checks: a fingerprint of every item and its validity limits.

A fingerprint is read back from the files the CLI wrote (stdlib only).
Each item must exit 0, meet the validity limit of its kind, and match
the fingerprint recorded for the same argv at the seed commit
(``reference.json``) within the tolerances below.

Tolerances: numbers agree when |x - ref| <= RTOL*|ref| + ATOL, with
RTOL = 1e-9 and ATOL = 1e-12, except for two differences of nearly
equal quantities whose low digits move with any reordering of the
arithmetic: the IBPS residual (relative 1e-3, absolute 1e-10; its
values of 1e-11 sit near round-off) and the simulate mass drift
(absolute 1e-12). Digests, strings and flags must be equal. A report
compared as a whole (classify) may gain keys, not lose or change them.
"""

import hashlib
import json
import math
import os
import struct

RTOL = 1e-9
ATOL = 1e-12
FIELD_TOL = {
    "residual": (1e-3, 1e-10),
    "mass_drift": (0.0, 1e-12),
}

# validity limits
FRE_INSIDE_MAX_SLOPE = 0.05      # bounded FRE inside the region
FRE_OUTSIDE_MIN_SLOPE = 0.2      # power growth outside it
LADDER_MIN_R2 = 0.99
MAX_MASS_DRIFT = 1e-8


def _canonical_digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _only(outdir, suffix):
    names = sorted(n for n in os.listdir(outdir) if n.endswith(suffix))
    if len(names) != 1:
        raise ValueError("expected one *%s output, found %r"
                         % (suffix, names))
    return os.path.join(outdir, names[0])


def _csv_rows(path):
    with open(path) as fh:
        lines = fh.read().split()
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def _fp_classify(outdir):
    return {"report": _load_json(os.path.join(outdir, "classify.json"))}


def _fp_atlas(outdir):
    with open(_only(outdir, ".svg"), "rb") as fh:
        svg = fh.read()
    segs = _load_json(_only(outdir, "_segments.json"))
    return {"svg_sha256": hashlib.sha256(svg).hexdigest(),
            "segments_digest": _canonical_digest(segs)}


def _fp_fre(outdir):
    rep = _load_json(os.path.join(outdir, "fre_scan.json"))
    return {"sup_values": rep["sup_values"],
            "growth_slope": rep["growth_slope"]}


def _fp_sharpness(outdir):
    rep = _load_json(_only(outdir, ".json"))
    return {"slope": rep["slope"], "r2": rep["r2"], "norms": rep["norms"],
            "pass": rep["pass"]}


def _fp_picard(outdir):
    rows = _csv_rows(os.path.join(outdir, "spectrum.csv"))
    xs = [r[0] for r in rows]
    f = [r[1] ** 2 + r[2] ** 2 for r in rows]
    area = sum((xs[i + 1] - xs[i]) * (f[i] + f[i + 1]) / 2.0
               for i in range(len(xs) - 1))
    return {"window_norm": math.sqrt(area), "max_abs": math.sqrt(max(f)),
            "samples": len(rows)}


def _snapshot_norms(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    L, n, t = struct.unpack("<3d", raw[:24])
    body = struct.unpack("<%dd" % (4 * int(n)), raw[24:])
    su = sum(x * x for i, x in enumerate(body) if i % 4 < 2)
    sv = sum(x * x for i, x in enumerate(body) if i % 4 >= 2)
    scale = 2.0 * math.pi / L
    return t, math.sqrt(su * scale), math.sqrt(sv * scale)


def _fp_simulate(outdir):
    rows = _csv_rows(os.path.join(outdir, "trajectory.csv"))
    first, last = rows[0], rows[-1]
    t, su, sv = _snapshot_norms(os.path.join(outdir, "final.snap"))
    return {"t_final": last[0], "u_norm": last[1], "v_norm": last[2],
            "mass_drift": abs(last[4] - first[4]) / abs(first[4]),
            "rows": len(rows), "snap_t": t, "snap_u_norm": su,
            "snap_v_norm": sv}


def _fp_ibps(outdir):
    rep = _load_json(os.path.join(outdir, "ibps_report.json"))
    return {"residual": rep["residual"], "pass": rep["pass"],
            "n_states": rep["n_states"]}


FINGERPRINTS = {
    "classify": _fp_classify, "atlas": _fp_atlas, "fre": _fp_fre,
    "sharpness": _fp_sharpness, "picard": _fp_picard,
    "simulate": _fp_simulate, "ibps": _fp_ibps,
}


def _close(a, b, rtol, atol):
    return abs(a - b) <= rtol * abs(b) + atol


def _validity(item, fp):
    """Problem with the program's own validity limits, or None."""
    kind = item.kind
    if kind == "fre":
        g = fp["growth_slope"]
        if item.name == "fre_inside" and abs(g) > FRE_INSIDE_MAX_SLOPE:
            return "growth_slope %g outside the bounded regime" % g
        if item.name == "fre_outside" and g < FRE_OUTSIDE_MIN_SLOPE:
            return "growth_slope %g shows no growth" % g
    elif kind == "sharpness":
        if not fp["pass"] or fp["r2"] < LADDER_MIN_R2:
            return "ladder failed: slope %g r2 %g" % (fp["slope"], fp["r2"])
    elif kind == "picard":
        if not (fp["window_norm"] > 0 and math.isfinite(fp["window_norm"])):
            return "third-iterate window norm %r" % fp["window_norm"]
    elif kind == "simulate":
        T = float(item.argv[item.argv.index("--T") + 1])
        if abs(fp["t_final"] - T) > 1e-9 or abs(fp["snap_t"] - T) > 1e-9:
            return "final time %g, wanted %g" % (fp["t_final"], T)
        if not fp["mass_drift"] <= MAX_MASS_DRIFT:
            return "mass drift %g" % fp["mass_drift"]
        for key in ("u_norm", "v_norm"):
            if not _close(fp["snap_" + key], fp[key], 1e-12, 0.0):
                return "snapshot %s disagrees with the trajectory" % key
    elif kind == "ibps":
        if fp["pass"] is not True:
            return "ibps residual %g above its limit" % fp["residual"]
    return None


def _differs(name, got, ref):
    if isinstance(ref, bool) or isinstance(ref, str) or ref is None:
        return got != ref
    if isinstance(ref, (int, float)):
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            return True
        rtol, atol = FIELD_TOL.get(name, (RTOL, ATOL))
        return not _close(float(got), float(ref), rtol, atol)
    if isinstance(ref, list):
        return (not isinstance(got, list) or len(got) != len(ref)
                or any(_differs(name, g, r) for g, r in zip(got, ref)))
    if isinstance(ref, dict):
        # keys the program adds later do not count as a difference
        return not isinstance(got, dict) or any(
            _differs(k, got.get(k), r) for k, r in ref.items())
    return got != ref


def check(item, code, outdir, reference):
    """(fingerprint, problem) for one finished item; problem None if ok."""
    if code != 0:
        return None, "exit code %d" % code
    try:
        fp = FINGERPRINTS[item.kind](outdir)
    except (OSError, ValueError, KeyError, IndexError, struct.error) as exc:
        return None, "unreadable output: %s" % exc
    problem = _validity(item, fp)
    if problem:
        return fp, problem
    if reference is None:
        return fp, None
    ref = reference.get(item.key)
    if ref is None:
        return fp, "no reference fingerprint for this argv"
    for name, want in ref.items():
        if _differs(name, fp.get(name), want):
            return fp, "%s = %r, reference %r" % (name, fp.get(name), want)
    return fp, None
