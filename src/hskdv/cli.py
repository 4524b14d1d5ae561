"""Batch front door: config parsing, subcommands, report emission.

Config files are line-oriented ``key = value`` with optional
``[section]`` headers (sections only group lines; keys are global).
Command-line flags mirror config keys (``--a 2`` is ``a=2``) and
override the file. Unknown keys are hard errors with a line number,
and every number (float and list keys, box bounds) must be finite.

Exit codes: 0 success, 2 config error, 3 numerical-validity failure,
4 acceptance-check failure. A parameter that a module rejects with
ValueError (say an odd mode count n or a negative dt) is a config
error too: one ``config error:`` line, no traceback, exit 2.
"""

import math
import os
import shutil
import sys
from fractions import Fraction

import numpy as np

from . import atlas_svg, fre, ibps, picard, regions, sharpness, spectral
from .phases import Coefficients, PhaseFloorError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ACCEPTANCE = 4

COMMANDS = ("classify", "atlas", "simulate", "picard", "ibps-check",
            "fre-scan", "sharpness")

# key -> (type tag, commands that accept it)
_ALL = tuple(COMMANDS)
KEY_TYPES = {
    "command": ("str", _ALL),
    "output_dir": ("str", _ALL),
    "a": ("float", _ALL),
    "k": ("rat", ("classify", "fre-scan", "sharpness")),
    "s": ("rat", ("classify", "fre-scan", "sharpness")),
    # ibps-check keeps beta = gamma = theta = 1, the system its
    # decomposition describes
    "beta": ("float", ("classify", "simulate")),
    "gamma": ("float", ("classify", "simulate")),
    "theta": ("float", ("classify", "simulate")),
    "k_max": ("float", ("atlas",)),
    "L": ("float", ("simulate", "ibps-check")),
    "n": ("int", ("simulate", "ibps-check")),
    "dt": ("float", ("simulate", "ibps-check")),
    "T": ("float", ("simulate", "ibps-check")),
    # ibps-check solves the nonlinear system its decomposition describes
    "nonlinear": ("bool", ("simulate",)),
    "store_every": ("int", ("simulate", "ibps-check")),
    "u0_amp": ("float", ("simulate", "ibps-check")),
    "v0_amp": ("float", ("simulate", "ibps-check")),
    "width": ("float", ("simulate", "ibps-check")),
    "delta_u": ("float", ("ibps-check",)),
    "delta_v": ("float", ("ibps-check",)),
    "eta": ("float", ("ibps-check",)),
    "max_residual": ("float", ("ibps-check",)),
    "iterate": ("str", ("picard",)),
    "t": ("float", ("picard",)),
    "u_boxes": ("boxes", ("picard",)),
    "v_boxes": ("boxes", ("picard",)),
    "window_lo": ("float", ("picard",)),
    "window_hi": ("float", ("picard",)),
    "gl_nodes": ("int", ("picard",)),
    "form": ("str", ("fre-scan",)),
    "lams": ("floatlist", ("fre-scan",)),
    "lemma": ("str", ("sharpness",)),
    "rho": ("float", ("sharpness",)),
    "N_ladder": ("floatlist", ("sharpness",)),
    "tol": ("float", ("sharpness",)),
}


class ConfigError(ValueError):
    pass


def _finite(text):
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(text)
    return x


def _parse_boxes(text):
    """'lo:hi' or 'lo:hi:rho' entries separated by ';'."""
    boxes = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        bits = part.split(":")
        if len(bits) not in (2, 3):
            raise ConfigError("bad box %r, want lo:hi[:rho]" % part)
        rho = _finite(bits[2]) if len(bits) == 3 else 0.0
        boxes.append(picard.FrequencyBox(_finite(bits[0]), _finite(bits[1]),
                                         rho))
    return picard.BoxData(boxes)


def _convert(key, raw):
    tag = KEY_TYPES[key][0]
    try:
        if tag == "str":
            return raw
        if tag == "int":
            return int(raw)
        if tag == "float":
            return _finite(raw)
        if tag == "rat":
            q = Fraction(raw)  # exact; the runners also take float(q)
            float(q)  # OverflowError past the float range
            return q
        if tag == "bool":
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if tag == "floatlist":
            return [_finite(x) for x in raw.replace(",", " ").split()]
        if tag == "boxes":
            return _parse_boxes(raw)
    except ConfigError:
        raise
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError("bad %s value %r" % (tag, raw))
    raise ConfigError("unhandled key type %r" % tag)


class RunConfig:
    def __init__(self, command, params, output_dir="."):
        if command not in COMMANDS:
            raise ConfigError("unknown command %r" % (command,))
        self.command = command
        self.params = dict(params)
        self.output_dir = output_dir

    def get(self, key, default=None):
        return self.params.get(key, default)

    def require(self, key):
        if key not in self.params:
            raise ConfigError("command %r needs key %r"
                              % (self.command, key))
        return self.params[key]


def parse_config(text, overrides=None):
    """Parse config text (plus flag overrides) into a RunConfig."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            continue
        if "=" not in stripped:
            raise ConfigError("line %d: expected key=value, got %r"
                              % (lineno, stripped))
        key, _, val = stripped.partition("=")
        key = key.strip()
        if key not in KEY_TYPES:
            raise ConfigError("line %d: unknown key %r" % (lineno, key))
        raw[key] = val.strip()
    for key, val in (overrides or {}).items():
        if key not in KEY_TYPES:
            raise ConfigError("unknown key %r" % (key,))
        raw[key] = val
    if "command" not in raw:
        raise ConfigError("missing required key 'command'")
    command = raw.pop("command")
    if command not in COMMANDS:
        raise ConfigError("unknown command %r" % (command,))
    output_dir = raw.pop("output_dir",
                         os.environ.get("HSKDV_OUT", "."))
    params = {}
    for key, val in raw.items():
        if command not in KEY_TYPES[key][1]:
            raise ConfigError("key %r does not apply to command %r"
                              % (key, command))
        params[key] = _convert(key, val)
    return RunConfig(command, params, output_dir)


def _fmt_float(x):
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return '"%s"' % x
    return "%.17g" % x


def to_json(obj, indent=0):
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    pad = "  " * indent
    pad1 = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append('%s"%s": %s' % (pad1, key,
                                         to_json(obj[key], indent + 1)))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = ["%s%s" % (pad1, to_json(x, indent + 1)) for x in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    return '"%s"' % str(obj).replace("\\", "\\\\").replace('"', '\\"')


class _Artifacts:
    """Tracks written files so failures leave no partial outputs.

    The output directory is made at the first path(); discard() removes
    the directories this run made.
    """

    def __init__(self, outdir):
        self.outdir = outdir
        self.paths = []
        self.made = None  # topmost directory this run created

    def path(self, name):
        if not os.path.isdir(self.outdir):
            top = os.path.abspath(self.outdir)
            while not os.path.isdir(os.path.dirname(top)):
                top = os.path.dirname(top)
            if not os.path.lexists(top):  # else makedirs fails, makes none
                self.made = top
            os.makedirs(self.outdir)
        p = os.path.join(self.outdir, name)
        self.paths.append(p)
        return p

    def write_text(self, name, text):
        p = self.path(name)
        with open(p, "w") as fh:
            fh.write(text)
        return p

    def write_json(self, name, obj):
        return self.write_text(name, to_json(obj) + "\n")

    def discard(self):
        for p in self.paths:
            try:
                os.remove(p)
            except OSError:
                pass
        if self.made is not None:
            shutil.rmtree(self.made, ignore_errors=True)


def _coeffs(cfg):
    return Coefficients(cfg.require("a"), cfg.get("beta", 1.0),
                        cfg.get("gamma", 1.0), cfg.get("theta", 1.0))


def _gaussian_state(cfg):
    L = cfg.get("L", 40.0)
    n = cfg.get("n", 256)
    grid = spectral.Grid(L, n)
    amp_u = cfg.get("u0_amp", 0.5)
    amp_v = cfg.get("v0_amp", 0.5)
    w = cfg.get("width", 2.0)
    x0 = L / 2.0
    u = lambda x: amp_u * np.exp(-((x - x0) / w) ** 2)
    v = lambda x: amp_v * np.exp(-((x - x0) / w) ** 2)
    return spectral.make_state(grid, u, v, _coeffs(cfg)), grid


def _run_classify(cfg, art):
    p = regions.RegularityPoint(cfg.require("k"), cfg.require("s"))
    a = cfg.require("a")
    verdict = regions.classify(a, p)
    out = verdict._asdict()
    if verdict.supported:
        coeffs = _coeffs(cfg)
        out["gwp"] = regions.classify_gwp(coeffs, p)
    out["a"] = a
    out["k"] = float(p.k)
    out["s"] = float(p.s)
    art.write_json("classify.json", out)
    return EXIT_OK


def _run_atlas(cfg, art):
    a = cfg.require("a")
    k_max = cfg.get("k_max", 8)
    segs = regions.boundary_segments(a, k_max=k_max)
    art.write_text("atlas_a%g.svg" % a, atlas_svg.render_svg(a, k_max, segs))
    art.write_json("atlas_a%g_segments.json" % a,
                   [s.as_dict() for s in segs])
    return EXIT_OK


def _run_simulate(cfg, art):
    state, grid = _gaussian_state(cfg)
    scfg = spectral.SolverConfig(
        dt=cfg.get("dt", 1e-4),
        nonlinear_enabled=cfg.get("nonlinear", True))
    final, stored = spectral.run(state, scfg, cfg.get("T", 0.5),
                                 store_every=cfg.get("store_every", 100))
    rows = []
    for st in stored:
        inv = spectral.invariants_eval(st)
        rows.append((st.t, spectral.sobolev_norm(st.uhat, 0.0),
                     spectral.sobolev_norm(st.vhat, 0.0),
                     inv["mean_u"], inv["M"], inv["E"]))
    spectral.trajectory_csv(art.path("trajectory.csv"), rows)
    spectral.save_snapshot(art.path("final.snap"), final)
    return EXIT_OK


def _run_picard(cfg, art):
    a = cfg.require("a")
    t = cfg.require("t")
    window = (cfg.require("window_lo"), cfg.require("window_hi"))
    gl = cfg.get("gl_nodes", picard.GL_NODES_DEFAULT)
    which = cfg.require("iterate")
    v0 = cfg.require("v_boxes")
    if which == "second_u":
        out = picard.second_iterate_u(v0, a, t, window, gl_nodes=gl)
    elif which == "second_v":
        out = picard.second_iterate_v(cfg.require("u_boxes"), v0, a, t,
                                      window, gl_nodes=gl)
    elif which == "third_v":
        out = picard.third_iterate_v(v0, a, t, window, gl_nodes=gl)
    else:
        raise ConfigError("iterate must be second_u, second_v or third_v")
    out.to_csv(art.path("spectrum.csv"))
    return EXIT_OK


def _run_ibps(cfg, art):
    state, _ = _gaussian_state(cfg)
    a = cfg.require("a")
    cut = ibps.CutoffParams(delta_u=cfg.get("delta_u", 0.05),
                            delta_v=cfg.get("delta_v", 0.05),
                            eta_sim=cfg.get("eta", 0.1))
    scfg = spectral.SolverConfig(dt=cfg.get("dt", 1e-4))
    T, every = cfg.get("T", 0.1), cfg.get("store_every", 2)
    nsteps = round(T / scfg.dt)  # Simpson needs an even interval count
    if every < 1 or nsteps < 1 or nsteps % (2 * every):
        raise ConfigError("T=%r, dt=%r, store_every=%r: ibps-check needs "
                          "round(T/dt) = %d to be a positive multiple of "
                          "2*store_every" % (T, scfg.dt, every, nsteps))
    # the final time by the float additions step() makes, so that it is
    # the last state's t bit for bit: the Simpson step h comes from it
    t_end = state.t
    for _ in range(nsteps):
        t_end += scfg.dt
    acc = ibps._SimpsonSum(t_end, nsteps // every, cut)
    spectral.run(state, scfg, T, store_every=every, stored=acc)
    res = acc.value()
    report = {
        "a": a,
        "delta_u": cut.delta_u,
        "delta_v": cut.delta_v,
        "eta": cut.eta_sim,
        "n_states": len(acc),
        "residual": res,
    }
    code = EXIT_OK
    max_res = cfg.get("max_residual")
    if max_res is not None:
        report["max_residual"] = max_res
        report["pass"] = bool(res <= max_res)
        if not report["pass"]:
            code = EXIT_ACCEPTANCE
    art.write_json("ibps_report.json", report)
    return code


def _run_fre(cfg, art):
    k = float(cfg.require("k"))
    s = float(cfg.require("s"))
    spec = fre.make_fre_spec(cfg.require("form"), k, s)
    a = cfg.require("a")
    lams = tuple(cfg.get("lams", (1e2, 1e3, 1e4)))
    report = fre.ratio_scan(spec, a, lams=lams)
    out = report._asdict()
    out["a"] = a
    out["form"] = cfg.require("form")
    out["k"] = k
    out["s"] = s
    art.write_json("fre_scan.json", out)
    return EXIT_OK


def _run_sharpness(cfg, art):
    lemma = sharpness.canonical_tag(cfg.require("lemma"))
    kwargs = dict(
        k=float(cfg.get("k", 0.0)), s=float(cfg.get("s", 0.0)),
        a=cfg.get("a"), rho=cfg.get("rho"))
    Ns = cfg.get("N_ladder")
    if Ns:
        kwargs["Ns"] = Ns
    if cfg.get("tol") is not None:
        kwargs["tol"] = cfg.get("tol")
    report = sharpness.ladder_report(lemma, **kwargs)
    art.write_json("sharpness_%s.json" % lemma, report)
    return EXIT_OK if report["pass"] else EXIT_ACCEPTANCE


_RUNNERS = {
    "classify": _run_classify,
    "atlas": _run_atlas,
    "simulate": _run_simulate,
    "picard": _run_picard,
    "ibps-check": _run_ibps,
    "fre-scan": _run_fre,
    "sharpness": _run_sharpness,
}

_NUMERICAL_ERRORS = (spectral.StabilityError, PhaseFloorError,
                     fre.RootFindingError, sharpness.HypothesisError)


def run(cfg):
    """Execute one parsed config; returns the process exit code."""
    art = _Artifacts(cfg.output_dir)
    try:
        return _RUNNERS[cfg.command](cfg, art)
    except _NUMERICAL_ERRORS as exc:
        art.discard()
        print("numerical validity failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERICAL
    # ConfigError, a parameter a module rejects, or an output path that
    # cannot be made or written
    except (ValueError, OSError) as exc:
        art.discard()
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        art.discard()
        raise


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: hskdv COMMAND [--config FILE] [--key value ...]\n"
              "commands: %s" % ", ".join(COMMANDS))
        return EXIT_OK if argv else EXIT_CONFIG
    command = argv.pop(0)
    text = ""
    overrides = {"command": command}
    try:
        while argv:
            flag = argv.pop(0)
            if not flag.startswith("--"):
                raise ConfigError("expected a --flag, got %r" % flag)
            if not argv:
                raise ConfigError("flag %s needs a value" % flag)
            val = argv.pop(0)
            key = flag[2:].replace("-", "_")
            if key == "config":
                with open(val) as fh:
                    text = fh.read()
            elif key == "out":
                overrides["output_dir"] = val
            else:
                overrides[key] = val
        cfg = parse_config(text, overrides)
    except (ConfigError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
