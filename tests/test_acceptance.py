"""Acceptance gate: one test per numbered criterion, one PASS/FAIL line each.

Lines print with capture suspended so they stay visible in plain pytest runs.
Criteria 5-8 stash their reports in _state; criterion 9 re-runs them and
demands byte-identical JSON.
"""

import json
import math
import time
import numpy as np
import pytest

from ifsproj import (
    RunConfig,
    Similarity,
    build_perturbed_ifs,
    certify_projection_intervals,
    closeness_report,
    get_builtin,
    l2_norm_estimate,
    measured_c9,
    omega_from_json,
    projected_histogram,
    similarity_dimension,
    stopping_cylinders,
)
from ifsproj.cli import _sample_e_rows, main
from ifsproj.ifs import MapArrays
from certificate_oracle import certify_line
from crowding_oracle import bad_word_cap, classify_good_words
from map_oracle import apply, compose_word
from renormalize_oracle import Line, invert_map, project_point, renormalize_map
from stopping_oracle import stopping_words

_state: dict = {}


@pytest.fixture
def emit(capfd):
    def _emit(n: int, ok: bool, detail: str) -> str:
        line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
        with capfd.disabled():
            print(line, flush=True)
        return line

    return _emit


def _random_similarity(rng) -> Similarity:
    return Similarity(
        float(rng.uniform(0.2, 0.9)),
        float(rng.uniform(0.0, 2.0 * math.pi)),
        bool(rng.integers(0, 2)),
        (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-1.0, 1.0))),
    )


def _line_close(u: Line, v: Line, tol: float) -> bool:
    if abs(u.theta - v.theta) < tol and abs(u.t - v.t) < tol:
        return True
    wrap = math.pi - abs(u.theta - v.theta)
    return wrap < tol and abs(u.t + v.t) < tol


def test_criterion_01_renormalization_equivariance(emit):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_on = 0.0
    off_failures = 0
    for _ in range(1000):
        f = _random_similarity(rng)
        u = Line(float(rng.uniform(0.0, math.pi)), float(rng.uniform(-2.0, 2.0)))
        v = renormalize_map(f, u)
        finv = invert_map(f)
        along = np.array([math.cos(u.theta), math.sin(u.theta)])
        normal = np.array([-math.sin(u.theta), math.cos(u.theta)])
        p = u.t * normal + float(rng.uniform(-2.0, 2.0)) * along
        worst_on = max(worst_on, abs(project_point(v.theta, apply(finv, p)) - v.t))
        h = float(rng.uniform(1e-3, 1.0)) * (1 if rng.integers(0, 2) else -1)
        if abs(project_point(v.theta, apply(finv, p + h * normal)) - v.t) <= 1e-4:
            off_failures += 1
    elapsed = time.perf_counter() - t0
    ok = worst_on <= 1e-9 and off_failures == 0 and elapsed < 1.0
    line = emit(
        1, ok, f"1000 on/off-line point triples, max on-line residual {worst_on:.3e} <= 1e-9, "
        f"{off_failures} off-line points misclassified, {elapsed:.2f}s < 1s"
    )
    assert ok, line


def test_criterion_02_two_letter_composition(emit):
    rng = np.random.default_rng(202)
    worst = 0.0
    mismatches = 0
    for _ in range(100):
        f1, f2 = _random_similarity(rng), _random_similarity(rng)
        u = Line(float(rng.uniform(0.0, math.pi)), float(rng.uniform(-2.0, 2.0)))
        folded = renormalize_map(MapArrays.of([f1]).compose(MapArrays.of([f2])).take(0), u)
        stepwise = renormalize_map(f2, renormalize_map(f1, u))
        if not _line_close(folded, stepwise, 1e-10):
            mismatches += 1
        dt = min(abs(folded.theta - stepwise.theta), math.pi - abs(folded.theta - stepwise.theta))
        worst = max(worst, dt)
    ok = mismatches == 0
    line = emit(
        2, ok, f"100 random two-letter words, {mismatches} folded/stepwise mismatches at 1e-10 "
        f"(max angle deviation {worst:.2e})"
    )
    assert ok, line


def test_criterion_03_line_certificates_vs_point_cloud(emit):
    dust = get_builtin("cantor_dust")
    t0 = time.perf_counter()
    pts, _ = stopping_cylinders(dust, 4.0**-10, point=(0.0, 0.0))
    thresh = 2.0 * math.sqrt(2.0) * 4.0**-10
    rng = np.random.default_rng(303)
    missed_completeness = 0  # oracle far => BFS must certify empty
    missed_soundness = 0  # BFS empty => no exact attractor point on the line
    n_oracle_empty = n_cert_empty = 0
    for _ in range(200):
        u = Line(float(rng.uniform(0.0, math.pi)), float(rng.uniform(-0.5, 1.5)))
        dist = float(np.abs(pts @ np.array([-math.sin(u.theta), math.cos(u.theta)]) - u.t).min())
        cert_empty = certify_line(dust, u, max_depth=8).verdict == "certified_empty"
        if dist > thresh:
            n_oracle_empty += 1
            if not cert_empty:
                missed_completeness += 1
        if cert_empty:
            n_cert_empty += 1
            # cloud coordinates are exact dyadics, so a line through an
            # attractor sample would leave only float rounding residue
            if dist <= 1e-12:
                missed_soundness += 1
    elapsed = time.perf_counter() - t0
    ok = (
        missed_completeness == 0
        and missed_soundness == 0
        and n_oracle_empty > 0
        and elapsed < 30.0
    )
    line = emit(
        3,
        ok,
        f"200 lines vs depth-10 cloud: {n_oracle_empty} oracle-empty all certified, "
        f"{n_cert_empty} certified-empty all off-cloud, {elapsed:.1f}s < 30s",
    )
    assert ok, line


def test_criterion_04_dimension_solver(emit):
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(100):
        ratios = rng.uniform(0.05, 0.7, size=int(rng.integers(2, 7)))
        d = similarity_dimension(ratios)
        worst = max(worst, abs(float((ratios**d).sum()) - 1.0))
    gasket = abs(get_builtin("sierpinski").dimension - math.log(3) / math.log(2))
    ok = worst < 1e-12 and gasket < 1e-10
    line = emit(4, ok, f"100 Moran residuals max {worst:.2e} < 1e-12; gasket dimension off by {gasket:.2e} < 1e-10")
    assert ok, line


def _criterion5_report() -> dict:
    rho_coarse = 4.0**-3
    sums = {}
    for name in ("sierpinski", "four_corner", "cantor_dust"):
        ifs = get_builtin(name)
        centers, ratios = stopping_cylinders(ifs, rho_coarse)
        cylinders = (centers, ratios**ifs.dimension)
        delta = math.sqrt(rho_coarse) / 8.0
        sums[name] = [
            float(projected_histogram(cylinders, j * math.pi / 12, delta).sum())
            for j in range(12)
        ]
    cfg = RunConfig()
    four = get_builtin("four_corner")
    centers, ratios = stopping_cylinders(four, cfg.rho)
    masses = projected_histogram((centers, ratios**four.dimension), 0.0, cfg.delta_value())
    return {
        "histogram_sums": sums,
        "four_corner_sum_desk": float(masses.sum()),
        "four_corner_l2_theta0": float(l2_norm_estimate(masses, cfg.delta_value())),
    }


def test_criterion_05_measure_sanity(emit):
    report = _criterion5_report()
    all_sums = [s for sums in report["histogram_sums"].values() for s in sums]
    all_sums.append(report["four_corner_sum_desk"])
    sum_err = max(abs(s - 1.0) for s in all_sums)
    l2_err = abs(report["four_corner_l2_theta0"] - 1.0)
    ok = sum_err <= 1e-9 and l2_err <= 0.05
    _state["r5"] = json.dumps(report, sort_keys=True)
    line = emit(
        5, ok, f"37 histogram sums within {sum_err:.1e} of 1; four-corner L2(0) = "
        f"{report['four_corner_l2_theta0']:.6f} within 5% of 1"
    )
    assert ok, line


def _criterion6_report(desk) -> dict:
    cfg = desk.cfg
    c9 = measured_c9(desk.ifs, cfg.rho, cfg.word_budget)
    words = stopping_words(desk.ifs, math.sqrt(cfg.rho))
    centers = np.array([apply(compose_word(desk.ifs, w), (0.5, 0.5)) for w in words])
    thetas = np.arange(desk.geom.n_theta) * desk.geom.pitch
    proj = centers @ np.stack([-np.sin(thetas), np.cos(thetas)])
    radius = math.sqrt(cfg.rho) / c9
    threshold = (1.0 / cfg.c6) * cfg.rho ** (-0.5 * (desk.ifs.dimension - 1.0))
    bad = np.empty(len(thetas), dtype=int)
    for j in range(len(thetas)):
        xs = np.sort(proj[:, j])
        crowd = np.searchsorted(xs, xs + radius, "left") - np.searchsorted(xs, xs - radius, "right")
        bad[j] = int((crowd > threshold).sum())
    for j in (0, len(thetas) // 2, len(thetas) - 1):
        wc = classify_good_words(desk.ifs, float(thetas[j]), words, cfg.rho, cfg.c6, c9)
        assert int((~wc.good).sum()) == bad[j]
    cap = bad_word_cap(desk.E.c5, cfg.c6, c9, cfg.rho, desk.ifs.dimension)
    e_rows = np.flatnonzero(desk.E.member)
    return {
        "n_words": len(words),
        "crowding_threshold": float(threshold),
        "cap": float(cap),
        "max_bad_all_rows": int(bad.max()),
        "max_bad_e_rows": int(bad[e_rows].max()),
    }


def test_criterion_06_bad_word_bound(desk, emit):
    report = _criterion6_report(desk)
    ok = report["max_bad_e_rows"] <= report["cap"] and report["max_bad_all_rows"] <= report["cap"]
    _state["r6"] = json.dumps(report, sort_keys=True)
    line = emit(
        6, ok, f"max bad-word count {report['max_bad_all_rows']} over all {desk.geom.n_theta} grid rows "
        f"({report['n_words']} words at scale sqrt(rho)) <= cap {report['cap']:.2f}"
    )
    assert ok, line


_C8_BASELINE = 0.666990296052791  # min |L(theta)| over E at default constants


def _criterion7_report(desk) -> dict:
    rows = np.flatnonzero(desk.E.member)
    measures = desk.cand.L.grid(desk.geom.n_t)[rows].sum(axis=1) * desk.geom.pitch
    return {
        "e_rows": int(len(rows)),
        "min_measure": float(measures.min()),
        "positive_rows": int((measures > 0).sum()),
        "baseline": _C8_BASELINE,
    }


def test_criterion_07_slice_measures_positive(desk, emit):
    report = _criterion7_report(desk)
    ok = (
        report["positive_rows"] == report["e_rows"]
        and report["min_measure"] >= 0.9 * _C8_BASELINE
    )
    _state["r7"] = json.dumps(report, sort_keys=True)
    line = emit(
        7, ok, f"|L(theta)| > 0 on all {report['e_rows']} E rows; c8_emp = {report['min_measure']:.6f} "
        f">= 0.9 x baseline {_C8_BASELINE:.6f}"
    )
    assert ok, line


def _box_max(normals, points, center, c1, rho, epsilon):
    """max over |phi| <= epsilon, |gamma| <= 1 of n . (center + R(phi)(p - center)
    + gamma c1 rho), per (normal, point): A cos(phi) + B sin(phi) peaks at
    atan2(B, A) when that lies in the box, else at an end."""
    d = points - center
    a = normals @ d.T
    b = normals @ np.stack([-d[:, 1], d[:, 0]], axis=1).T
    peak = np.arctan2(b, a)
    ends = np.maximum(a * math.cos(epsilon) + b * math.sin(epsilon), a * math.cos(epsilon) - b * math.sin(epsilon))
    rot = np.where(np.abs(peak) <= epsilon, np.hypot(a, b), ends)
    return (normals @ center)[:, None] + rot + c1 * rho * np.abs(normals).sum(axis=1)[:, None]


def farthest_line(layer, geom, points) -> tuple[float, int, int]:
    """(distance, row, col) of the set cell of a layer farthest from the convex
    hull of points; each row's extreme cells suffice because the distance is
    convex in t."""
    best = (0.0, -1, -1)
    for row in np.flatnonzero(layer.any(axis=1)):
        cols = np.flatnonzero(layer[row])
        proj = points @ np.array([-math.sin(row * geom.pitch), math.cos(row * geom.pitch)])
        for col in (cols[0], cols[-1]):
            t = (col - geom.m) * geom.pitch
            dist = max(t - proj.max(), proj.min() - t)
            if dist > best[0]:
                best = (float(dist), int(row), int(col))
    return best


def obstruction_faults(obs, ifs, cand, c1: float, epsilon: float) -> list[str]:
    """Independent re-check of a search report's hull obstruction. Returns the
    reasons it fails to prove that no assignment in the closed box
    |phi| <= epsilon, |gamma| <= 1 passes the search rule (L1 into L0 within
    pitch) or the check rule (L into L within rho/2); empty when it holds."""
    if not obs:
        return ["no obstruction certificate"]
    geom = cand.geom
    try:
        poly = np.asarray(obs["polygon"], dtype=float).reshape(-1, 2)
        cells = {rule: obs[rule] for rule in ("search", "check")}
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed certificate: {exc!r}"]
    faults = []
    edges = np.roll(poly, -1, axis=0) - poly
    area = float((poly[:, 0] * np.roll(poly[:, 1], -1) - np.roll(poly[:, 0], -1) * poly[:, 1]).sum())
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    if len(poly) < 3 or area <= 0 or not (lengths > 0).all():
        return ["polygon is not a counterclockwise polygon"]
    normals = np.stack([edges[:, 1], -edges[:, 0]], axis=1) / lengths[:, None]
    offsets = (normals * poly).sum(axis=1)
    if (normals @ poly.T > offsets[:, None] + 1e-12).any():
        faults.append("polygon is not convex")
    for a in ifs.alphabet:
        f = ifs.maps[a]
        images = apply(f, poly)
        if a in ifs.part_one:
            center = apply(f, (0.5, 0.5))
            reach = _box_max(normals, images, center, c1, cand.rho, epsilon).max(axis=1)
        else:
            reach = (normals @ images.T).max(axis=1)
        if (reach > offsets - 1e-12).any():
            faults.append(f"map {a} sends the polygon outside itself")
    radius = float(np.hypot(poly[:, 0], poly[:, 1]).max())
    expansion = 1.0 / max(f.ratio for f in ifs.maps.values()) ** 2
    rules = {"search": ("L1", "L0", geom.pitch), "check": ("L", "L", cand.rho / 2.0)}
    layers = {name: getattr(cand, name).grid(geom.n_t) for name in ("L0", "L", "L1")}
    for rule, (source, target, slack) in rules.items():
        try:
            row, col = int(cells[rule]["cell"]["row"]), int(cells[rule]["cell"]["col"])
            claimed = float(cells[rule]["distance"])
        except (KeyError, TypeError, ValueError) as exc:
            faults.append(f"{rule}: malformed cell: {exc!r}")
            continue
        if not (0 <= row < geom.n_theta and 0 <= col < geom.n_t and layers[source][row, col]):
            faults.append(f"{rule}: cell ({row}, {col}) is not in {source}")
            continue
        theta, t = row * geom.pitch, (col - geom.m) * geom.pitch
        proj = poly @ np.array([-math.sin(theta), math.cos(theta)])
        dist = max(t - proj.max(), proj.min() - t, 0.0)
        if abs(dist - claimed) > 1e-9:
            faults.append(f"{rule}: claimed distance {claimed:.6f} != {dist:.6f}")
        # 1e-6 pitch covers the membership test's 1e-9 index guard and rounding
        window = slack + 1e-6 * geom.pitch
        bound = (farthest_line(layers[target], geom, poly)[0] + window * (1 + radius)) / expansion
        if not dist > bound:
            faults.append(f"{rule}: distance {dist:.6f} <= bound {bound:.6f}")
    return faults


def settlement_faults(report: dict, ifs, cand, c1: float, epsilon: float) -> list[str]:
    """Why a search report leaves its outcome unsettled: an accepted omega0
    must recur in full and come without an obstruction, and a negative
    outcome must carry an obstruction that `obstruction_faults` accepts."""
    if report["status"] != "omega0 found":
        return obstruction_faults(report.get("obstruction"), ifs, cand, c1, epsilon)
    faults = []
    if report["check"]["fraction"] != 1.0:
        faults.append("omega0 does not recur in full")
    if report.get("obstruction") is not None:
        faults.append("omega0 reported next to an obstruction")
    return faults


def test_criterion_08_end_to_end_search(desk, tmp_path, emit):
    cfg_path = tmp_path / "cfg.json"
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    cfg_path.write_text(json.dumps({"ifs": "sierpinski", "seed": 0, "out": str(out1)}))
    t0 = time.perf_counter()
    rc = main(["search", "--config", str(cfg_path)])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    report = json.loads((out1 / "search_report.json").read_text())
    rc2 = main(["search", "--config", str(cfg_path), "--out", str(out2)])
    assert rc2 == 0
    _state["search_reports"] = (
        (out1 / "search_report.json").read_bytes(),
        (out2 / "search_report.json").read_bytes(),
    )

    cfg = desk.cfg
    found = report["status"] == "omega0 found"
    faults = settlement_faults(report, desk.ifs, desk.cand, cfg.c1, cfg.epsilon)
    if faults:
        verdict = f", but the outcome is not settled ({'; '.join(faults)})"
    elif found:
        verdict = ""
    else:
        obstruction = report["obstruction"]
        parts = " and ".join(
            f"{obstruction[rule]['source']} line at row {obstruction[rule]['cell']['row']} lies "
            f"{obstruction[rule]['distance']:.4f} > {obstruction[rule]['bound']:.4f}"
            for rule in ("search", "check")
        )
        verdict = (
            f", and none exists: {parts} outside an invariant "
            f"{len(obstruction['polygon'])}-gon (R = {obstruction['radius']:.3f})"
        )
    if found:
        closeness = report["closeness"]
        certs = report["certified_intervals"]
    else:
        best = omega_from_json(desk.ifs, report["best_assignment"])
        perturbed = build_perturbed_ifs(desk.ifs, best, cfg.c1, cfg.rho)
        closeness = closeness_report(desk.ifs, perturbed, cfg.epsilon, cfg.c1, cfg.rho, cfg.c0)
        thetas = _sample_e_rows(desk.E, desk.cand, cfg.n_theta_sample, cfg.seed)
        # only the gap certificates' verdicts are read below
        certs = [
            cert.to_json_dict()
            for cert in certify_projection_intervals(perturbed, thetas, cfg.cert_resolution, cfg.word_budget)
        ]
    close_ok = bool(closeness["epsilon_ok"])
    n_cert = sum(1 for c in certs if c["certified"])
    cert_ok = n_cert >= 0.9 * len(certs)
    time_ok = elapsed < 600.0
    ok = not faults and close_ok and cert_ok and time_ok
    subject = "accepted omega0" if found else "best unaccepted assignment"
    line = emit(
        8,
        ok,
        f"search {'found omega0' if found else 'found no omega0'} in {report['attempts']} of "
        f"{report['budget']} samples (coverage {report['coverage']:.4f}){verdict}; epsilon distance "
        f"of {subject} {closeness['epsilon_distance']:.4f} {'<' if close_ok else '>='} 0.3; "
        f"certified {n_cert}/{len(certs)} sampled directions at 1e-3; {elapsed:.0f}s < 600s",
    )
    if not ok:
        pytest.fail(line, pytrace=False)


def test_criterion_09_determinism(desk, emit):
    pieces = []
    ok = True
    if "r5" in _state:
        same = json.dumps(_criterion5_report(), sort_keys=True) == _state["r5"]
        ok &= same
        pieces.append(f"measure report {'stable' if same else 'DRIFTED'}")
    else:
        ok = False
        pieces.append("measure report missing")
    if "r6" in _state:
        same = json.dumps(_criterion6_report(desk), sort_keys=True) == _state["r6"]
        ok &= same
        pieces.append(f"bad-word report {'stable' if same else 'DRIFTED'}")
    else:
        ok = False
        pieces.append("bad-word report missing")
    if "r7" in _state:
        same = json.dumps(_criterion7_report(desk), sort_keys=True) == _state["r7"]
        ok &= same
        pieces.append(f"slice report {'stable' if same else 'DRIFTED'}")
    else:
        ok = False
        pieces.append("slice report missing")
    if "search_reports" in _state:
        a, b = _state["search_reports"]
        same = a == b
        ok &= same
        pieces.append(f"search reports {'byte-identical' if same else 'DIFFER'}")
    else:
        ok = False
        pieces.append("search reports missing")
    line = emit(9, bool(ok), "; ".join(pieces))
    assert ok, line
