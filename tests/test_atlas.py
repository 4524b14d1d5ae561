from fractions import Fraction
import hashlib
import json
import random

import pytest

from hskdv import atlas_svg, cli, regions
from hskdv.atlas_svg import (build_layers, color_at, diagonal_threshold,
                             render_svg)
from hskdv.cli import to_json
from hskdv.regions import boundary_segments, classify, in_A, in_A0

F = Fraction


def test_layers_reject_degenerate_ratio():
    for a in (0, 1):
        with pytest.raises(ValueError):
            build_layers(a)


@pytest.mark.parametrize("a", [F(1, 2), F(1, 4), F(-1), F(-1, 8), F(2)])
def test_color_agrees_with_classifier(a):
    rng = random.Random(41)
    for _ in range(1000):
        k = F(rng.randint(-16, 64), 8)
        s = F(rng.randint(-40, 88), 8)
        c = color_at(a, k, s)
        if in_A0(a, (k, s)):
            assert c == "blue", (a, k, s, c)
        elif in_A(a, (k, s)):
            assert c == "gray", (a, k, s, c)
        else:
            v = classify(a, (k, s))
            if v.illposed == "C2":
                assert c == "red", (a, k, s, c)
            elif v.illposed == "C3":
                assert c == "orange", (a, k, s, c)
            else:
                # boundary or the a=-1/8 uncovered band: base layer
                assert c in ("red", "orange", "white"), (a, k, s, c)


def test_diagonal_threshold_cases():
    assert diagonal_threshold(F(-1)) == F(-3, 4)
    assert diagonal_threshold(F(1, 4)) == F(3, 4)
    assert diagonal_threshold(2) == 0
    assert diagonal_threshold(0) is None


def test_svg_markers_half_case():
    svg = render_svg(F(1, 2))
    assert svg.startswith("<svg") or svg.startswith("<?xml")
    assert svg.count("marker-open") == 2
    assert svg.count("marker-closed") == 1
    assert "region-blue" in svg and "region-gray" in svg
    assert "region-red" in svg
    assert "region-orange" not in svg


def test_svg_quarter_and_low_cases():
    svg = render_svg(F(1, 4))
    assert svg.count("marker-closed") >= 1
    svg = render_svg(F(-1))
    assert "region-orange" in svg
    # every boundary point of the a<1/4 region is excluded
    assert svg.count("marker-closed") == 0
    assert svg.count("marker-open") >= 3


def test_svg_deterministic():
    assert render_svg(F(1, 2)) == render_svg(F(1, 2))


# sha256 of the SVG and canonical digest of the segments JSON that
# `hskdv atlas --a A` writes at the default k_max
ATLAS_PINS = {
    0.5: ("667a6b64ef8ea79ba911a60fda03f60e2c5906df0c989a6f2db6d2d6b86742e2",
          "225b13a7d4b697ca8cec549a267cf1da999af812c4f35bc56835d7a29e2f769c"),
    2.0: ("642377159d598ab31712782273f80239fb2ebca49f3f9ebd35a0231d4107b18d",
          "225b13a7d4b697ca8cec549a267cf1da999af812c4f35bc56835d7a29e2f769c"),
    -1.0: ("22c582f381b7b0b8caedc0913470a58b12ac019e32c55f7eeab1386aaf8d164a",
           "1d6ce732c7d766ff539b0ac68aa9d9e897db8e0f1fdc8d3b3b5798ab5a589e27"),
    0.25: ("1cc8c00ed57ed7b26a0491228c492933c2ab9fdfe2bd17bca29f830c1cb977f1",
           "cb99bbd92dcfd9b69a9f1a837f46c6b4c3de04b8586a0131ae4fb7602c1fb1d3"),
    3.0: ("deab569978b4eda84a81b1dbcb835cc734b82593519ca9d30dd5495a2db34db6",
          "225b13a7d4b697ca8cec549a267cf1da999af812c4f35bc56835d7a29e2f769c"),
}

# classify, in_A, in_A0 and color_at over k in [-1, 5], s in [-2, 4] at
# step 1/4, a grid through every kink of A_a, A0_a, the C^2 wedges and
# the a = -1/8 gap
GRID_PIN = "6d91130cd2d5a81a14bcf2e9bac36a29fa8f10e957a5b149ffc45a2b657fa102"


@pytest.mark.parametrize("a", sorted(ATLAS_PINS))
def test_atlas_bytes_pinned(a):
    svg_sha, seg_digest = ATLAS_PINS[a]
    assert hashlib.sha256(render_svg(a).encode()).hexdigest() == svg_sha
    segs = json.loads(to_json([s.as_dict() for s in boundary_segments(a)]))
    text = json.dumps(segs, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == seg_digest


def _seg_digest(segs):
    text = json.dumps(segs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("a", sorted(ATLAS_PINS))
def test_atlas_command_derives_segments_once(a, tmp_path, monkeypatch):
    calls = []

    def counted(*args, real=regions.boundary_segments, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(regions, "boundary_segments", counted)
    monkeypatch.setattr(atlas_svg, "boundary_segments", counted)
    assert cli.main(["atlas", "--a", repr(a), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    svg_sha, seg_digest = ATLAS_PINS[a]
    svg = (tmp_path / ("atlas_a%g.svg" % a)).read_bytes()
    assert hashlib.sha256(svg).hexdigest() == svg_sha
    segs = (tmp_path / ("atlas_a%g_segments.json" % a)).read_text()
    assert _seg_digest(json.loads(segs)) == seg_digest


def test_region_grid_pinned():
    h = hashlib.sha256()
    for a in (F(1, 2), F(2), F(-1), F(1, 4), F(3), F(-1, 8)):
        for k in [F(i, 4) for i in range(-4, 21)]:
            for s in [F(j, 4) for j in range(-8, 17)]:
                v = classify(a, (k, s))
                h.update(("%s %s %s %s %s %s %s %s %s %s\n" % (
                    a, k, s, v.lwp, v.illposed, v.open_region, v.supported,
                    in_A(a, (k, s)), in_A0(a, (k, s)),
                    color_at(a, k, s))).encode())
    assert h.hexdigest() == GRID_PIN
