import json
import math
from pathlib import Path

import numpy as np
import pytest

from ifsproj import ConfigError, RecurrentCandidate, RowRuns, RunConfig, SearchOutcome, SliceBuilder, get_builtin
from ifsproj import cli
from ifsproj.cli import main
from ifsproj.config import config_from_json_dict, load_config, override

ROOT = Path(__file__).resolve().parent.parent

# --- config ---


def test_defaults_resolve():
    cfg = RunConfig()
    assert cfg.rho == 4.0**-4
    assert cfg.n_theta == math.ceil(4 * math.pi / cfg.rho)
    assert cfg.geometry().pitch == pytest.approx(math.pi / cfg.n_theta)
    assert cfg.delta == pytest.approx(math.sqrt(cfg.rho) / 8)
    phi = cfg.resolve()
    assert len(phi) == 33 and -cfg.epsilon < phi.min() and phi.max() < cfg.epsilon


def test_every_rho_gives_the_row_route_a_slack_of_two_pitches():
    """The grid follows from rho alone: pitch pi / ceil(4 pi / rho), at most
    rho/4. So the check slack rho/2 is at least two pitches and L and L1
    are at least 2 and 4 cells thick at every rho, and no config reaches
    the row route's refusal of a slack below half a pitch."""
    used = [4.0**-4, 4.0**-5, 4.0**-6, 2.0**-5, 2.0**-7, 1 / 16]  # by the configs, bench, scripts and tests
    no_cells = np.zeros(0, dtype=np.int64)
    for rho in [*np.geomspace(1e-4, 0.999, 500).tolist(), *used]:
        geom = RunConfig(rho=rho).geometry()
        cand = RecurrentCandidate(geom, rho, RowRuns(np.zeros(geom.n_theta + 1, np.int64), no_cells, no_cells))
        assert cand.check_slack > 1.99 * geom.pitch, rho
        assert cand.r_cells >= 2 and cand.r1_cells >= 4, rho


@pytest.mark.parametrize(
    "kwargs, field",
    [
        (dict(rho=1.5), "rho"),
        (dict(rho=-0.1), "rho"),
        (dict(epsilon=2.0), "epsilon"),
        (dict(epsilon=math.pi / 2), "epsilon"),
        (dict(seed=-1), "seed"),
        (dict(search_mode="annealing"), "search_mode"),
        (dict(cert_resolution=-0.01), "cert_resolution"),
        (dict(c1=0.0), "c1"),
        (dict(word_budget=0), "word_budget"),
        (dict(search_budget="33"), "search_budget"),
        (dict(word_budget=33.0), "word_budget"),
        (dict(word_budget=True), "word_budget"),
        (dict(seed=True), "seed"),
        (dict(search_budget=True), "search_budget"),
        (dict(c1=True), "c1"),
        (dict(out=5), "out"),
        (dict(cert_resolution=2.0), "cert_resolution"),
        (dict(rho=math.nan), "rho"),
        (dict(epsilon=math.inf), "epsilon"),
    ],
)
def test_validation_names_offending_field(kwargs, field):
    with pytest.raises(ConfigError, match=f"^{field}"):
        RunConfig(**kwargs)


def test_nested_blocks():
    cfg = config_from_json_dict(
        {
            "ifs": "four_corner",
            "constants": {"rho": 0.05, "c1": 2.0},
            "grid": {"search_budget": 8, "word_budget": 9},
            "seed": 7,
        }
    )
    assert cfg.ifs == "four_corner" and cfg.rho == 0.05
    assert cfg.c1 == 2.0 and cfg.search_budget == 8 and cfg.word_budget == 9 and cfg.seed == 7


def test_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="bogus: unknown key"):
        config_from_json_dict({"bogus": 1})
    with pytest.raises(ConfigError, match="constants.q: unknown key"):
        config_from_json_dict({"constants": {"q": 1}})
    removed = (
        ("constants", "c2"),
        ("constants", "c3"),
        ("constants", "c6"),
        ("constants", "c7"),
        ("constants", "c9"),
        ("constants", "c10"),
        ("grid", "grid_size"),
        ("grid", "max_depth"),
        ("grid", "survivor_budget"),
        ("grid", "t_pitch"),
        ("constants", "c0"),
        ("constants", "c5"),
        ("constants", "delta"),
        ("grid", "t_max"),
        ("grid", "raster_size"),
        ("grid", "n_theta_sample"),
        ("grid", "n_phi"),
        ("grid", "theta_pitch"),
    )
    for block, key in removed:
        with pytest.raises(ConfigError, match=f"{block}.{key}: unknown key"):
            config_from_json_dict({block: {key: 1}})
        with pytest.raises(ConfigError, match=f"^{key}: unknown key"):
            config_from_json_dict({key: 1})
    # one spelling per key: a block key only in its block, a top-level key
    # only at top level, so no key can be given twice
    with pytest.raises(ConfigError, match="^rho: unknown key"):
        config_from_json_dict({"rho": 0.1, "constants": {"rho": 0.1}})
    with pytest.raises(ConfigError, match="^search_budget: unknown key"):
        config_from_json_dict({"search_budget": 9})
    with pytest.raises(ConfigError, match="^grid.seed: unknown key"):
        config_from_json_dict({"grid": {"seed": 1}})
    with pytest.raises(ConfigError, match="^constants.search_budget: unknown key"):
        config_from_json_dict({"constants": {"search_budget": 9}})
    for block, value in (("constants", "x"), ("grid", [1])):
        with pytest.raises(ConfigError, match=f"^{block}: expected a JSON object"):
            config_from_json_dict({block: value})


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="no such file"):
        load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(bad))
    with pytest.raises(ConfigError, match="^config: cannot read"):
        load_config(str(tmp_path))
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"seed": 1, "out": "r\xe9sultats"}'.encode("latin-1"))
    with pytest.raises(ConfigError, match="^config: malformed file .*invalid JSON"):
        load_config(str(latin1))


def test_override_drops_none():
    cfg = RunConfig()
    assert override(cfg, seed=None, rho=None) is cfg
    assert override(cfg, seed=5).seed == 5


def test_load_ifs_spec_sources(tmp_path):
    assert RunConfig(ifs="sierpinski").load_ifs_spec().alphabet == ("a", "b", "c")
    inline = RunConfig(
        ifs={
            "alphabet": ["a", "b"],
            "maps": {
                "a": {"r": 0.5, "tx": 0.0, "ty": 0.0},
                "b": {"r": 0.5, "tx": 0.5, "ty": 0.5},
            },
        }
    )
    assert inline.load_ifs_spec().part_one == ("a",)
    with pytest.raises(ConfigError, match="neither a builtin .* nor a readable file"):
        RunConfig(ifs=str(tmp_path / "absent.json")).load_ifs_spec()


def test_shipped_configs_parse():
    for name in ("sierpinski", "four_corner", "cantor_dust"):
        cfg = load_config(f"configs/{name}.json")
        cfg.load_ifs_spec()


# --- cli ---


def coarse_config(tmp_path, **extra):
    data = {
        "ifs": "four_corner",
        "constants": {"rho": 0.05},
        "grid": {"cert_resolution": 0.05, "search_budget": 3},
        "seed": 3,
        "out": str(tmp_path / "out"),
    }
    data.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_malformed_config_is_config_error(tmp_path, capsys):
    assert main(["build-l", "--config", coarse_config(tmp_path, grid={"search_budget": "33"})]) == 2
    assert capsys.readouterr().err.startswith("search_budget: must be a positive integer")
    # attractor samples at scale cert_resolution / 2 need that scale below 1
    coarse = coarse_config(tmp_path, grid={"cert_resolution": 4.0})
    assert main(["certify", "--config", coarse, "--theta", "0.5"]) == 2
    assert capsys.readouterr().err.startswith("cert_resolution: must be < 2")
    assert main(["build-l", "--config", coarse_config(tmp_path, ifs=5)]) == 2
    assert capsys.readouterr().err.startswith("ifs: expected a name, path, or inline spec, got int")
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert main(["build-l", "--config", str(listed)]) == 2
    assert capsys.readouterr().err.startswith("config: expected a JSON object, got list")


@pytest.mark.parametrize(
    "command",
    [["scan"], ["build-l"], ["search"], ["verify", "--omega", "omega.json"], ["certify", "--theta", "0.5"], ["render"]],
)
def test_out_that_cannot_be_a_directory_is_config_error(tmp_path, capsys, command):
    """--out naming an existing file, or a directory beneath one, exits 2
    with an `out:` message before any work, and leaves the file as it was."""
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n")
    for out in (blocker, blocker / "sub"):
        assert main([*command, "--ifs", "four_corner", "--rho", "0.05", "--out", str(out)]) == 2, out
        err = capsys.readouterr().err
        assert err.startswith(f"out: cannot create directory {str(out)!r}: "), err
    assert blocker.read_text() == "kept\n"


def test_dimension_output(capsys):
    assert main(["dimension", "--ifs", "sierpinski"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "d = 1.584962500721"
    assert out[1].startswith("OSC: satisfied")
    assert main(["dimension", "--ifs", "four_corner"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "d = 2.000000000000"


def test_dimension_past_64(tmp_path, capsys):
    """Two maps of ratio 0.999 have d = log 2 / -log 0.999, about 692.8:
    dimension reports it, and build-l stops at the word budget (exit 3)."""
    slow = {
        "alphabet": ["a", "b"],
        "maps": {"a": {"r": 0.999, "tx": 0.0, "ty": 0.0}, "b": {"r": 0.999, "tx": 0.001, "ty": 0.0}},
    }
    p = tmp_path / "slow.json"
    p.write_text(json.dumps(slow))
    assert main(["dimension", "--ifs", str(p)]) == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("d = 692.800549")
    assert float(line[4:]) == pytest.approx(math.log(2.0) / -math.log(0.999), rel=1e-12)
    assert main(["build-l", "--ifs", str(p), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("budget exceeded")


def test_constants_past_the_float_range_are_config_errors(tmp_path, capsys):
    """A JSON integer too large for a float is not a positive number:
    epsilon, c1 or cert_resolution given as 10^400 exits 2 with the
    field's message."""
    huge = 10**400
    for block, name in (("constants", "epsilon"), ("constants", "c1"), ("grid", "cert_resolution")):
        cfg = coarse_config(tmp_path, **{block: {name: huge}})
        assert main(["build-l", "--config", cfg]) == 2, name
        assert capsys.readouterr().err.startswith(f"{name}: must be a positive number, got {huge}"), name


def test_dimension_reports_osc_failure(tmp_path, capsys):
    overlapping = {
        "alphabet": ["a", "b"],
        "maps": {
            "a": {"r": 0.9, "tx": 0.0, "ty": 0.0},
            "b": {"r": 0.9, "tx": 0.1, "ty": 0.1},
        },
    }
    p = tmp_path / "fat.json"
    p.write_text(json.dumps(overlapping))
    assert main(["dimension", "--ifs", str(p)]) == 0
    out = capsys.readouterr().out
    assert "OSC: not verified" in out and "a/b" in out


def test_malformed_ifs_is_config_error(tmp_path, capsys):
    spec = {
        "alphabet": ["a", "b", "c"],
        "maps": {
            "a": {"r": 0.5, "tx": 0.0, "ty": 0.0},
            "b": {"r": 0.5, "tx": 0.5, "ty": 0.0},
        },
    }
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(spec))
    assert main(["dimension", "--ifs", str(p)]) == 2
    assert "maps: missing symbol 'c'" in capsys.readouterr().err
    full = {**spec["maps"], "c": {"r": 0.5, "tx": 0.0, "ty": 0.5}}
    # an empty block: part_one empty, or the whole alphabet
    bad = (
        ("alphabet", 5),
        ("alphabet", [1, 2]),
        ("maps", 5),
        ("maps", ["a"]),
        ("part_one", 5),
        ("part_one", "ab"),
        ("part_one", []),
        ("part_one", ["a", "b", "c"]),
    )
    for field, value in bad:
        p.write_text(json.dumps({**spec, "maps": full, field: value}))
        assert main(["dimension", "--ifs", str(p)]) == 2, (field, value)
        assert capsys.readouterr().err.startswith(f"{field}: must be"), (field, value)
    # the system's own checks: two or more distinct symbols, part_one a set
    # of them
    partition = "part_one: part_one and part_two must partition the alphabet"
    systems = (
        ({"alphabet": ["a"], "maps": {"a": full["a"]}}, "alphabet: must have at least 2 symbols"),
        ({"alphabet": ["a", "a", "b", "c"], "maps": full}, "alphabet: has repeated symbols"),
        ({**spec, "maps": full, "part_one": ["a", "a"]}, partition),
        ({**spec, "maps": full, "part_one": ["z"]}, partition),
    )
    for system, message in systems:
        p.write_text(json.dumps(system))
        assert main(["dimension", "--ifs", str(p)]) == 2, system
        assert capsys.readouterr().err.startswith(message), system
    # map entries: an object, reflect a JSON boolean, numbers not strings or
    # booleans, r given, positive and below 1, no unknown key, no symbol
    # outside the alphabet
    entries = (
        ("a", {"r": 0.5, "tx": 0.0, "ty": 0.0, "reflect": "false"}, "reflect"),
        ("a", {"r": 0.5, "tx": 0.0, "ty": 0.0, "refelct": True}, "refelct"),
        ("b", {"r": 0.5, "tx": 0.5, "ty": 0.0, "angel": 0.5}, "angel"),
        ("c", {"r": 0.5, "tx": "0.25", "ty": 0.5}, "tx"),
        ("c", {"r": 0.5, "angle": False, "tx": 0.0, "ty": 0.5}, "angle"),
        ("b", {"r": 0.5, "tx": float("nan"), "ty": 0.0}, "tx"),
        ("z", {"r": 0.5, "tx": 0.5, "ty": 0.5}, "alphabet"),
        ("c", 5, "expected an object"),
        ("c", {"tx": 0.0, "ty": 0.5}, "missing 'r'"),
        ("c", {"r": -0.5, "tx": 0.0, "ty": 0.5}, "must be positive"),
        ("a", {"r": 1.0, "tx": 0.0, "ty": 0.0}, "not a contraction"),
    )
    for symbol, entry, word in entries:
        p.write_text(json.dumps({**spec, "maps": {**full, symbol: entry}}))
        assert main(["dimension", "--ifs", str(p)]) == 2, (symbol, entry)
        err = capsys.readouterr().err
        assert err.startswith("maps: ") and repr(symbol) in err and word in err, err
    p.write_text("{not json")
    assert main(["dimension", "--ifs", str(p)]) == 2
    assert capsys.readouterr().err.startswith("ifs: malformed file")
    assert main(["dimension", "--ifs", str(tmp_path)]) == 2
    assert "is neither a builtin" in capsys.readouterr().err


def test_thin_system_guard(tmp_path, capsys):
    """The d <= 1 refusal comes before the direction scan, so a budget too
    small for the stopping cover at rho (256 words > 10) does not turn it
    into a budget exit."""
    for budget in ([], ["--budget", "10"]):
        assert main(["build-l", "--ifs", "cantor_dust", *budget, "--out", str(tmp_path)]) == 2, budget
        assert capsys.readouterr().err == "d ≤ 1, theorem hypotheses unmet\n", budget


def test_symbols_are_one_character(tmp_path, capsys):
    """Word names join two symbols, so a longer symbol could merge two
    names (a·aa and aa·a are both "aaa") and drop counts from
    `witness_counts`: verify on the gasket's maps under the alphabet
    a, aa, b exits 2 naming the symbol."""
    gasket = get_builtin("sierpinski")
    symbols = ["a", "aa", "b"]
    maps = {
        s: {"r": m.ratio, "tx": m.translation[0], "ty": m.translation[1]}
        for s, m in zip(symbols, (gasket.maps[a] for a in gasket.alphabet))
    }
    ifs, omega = tmp_path / "merged.json", tmp_path / "omega.json"
    ifs.write_text(json.dumps({"alphabet": symbols, "maps": maps}))
    omega.write_text(json.dumps({a: {"phi": 0.01, "gamma": [0.0, 0.0]} for a in ("a", "aa")}))
    argv = ["verify", "--ifs", str(ifs), "--rho", "0.0625", "--omega", str(omega)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("alphabet: symbol 'aa' is not one character")


def test_empty_candidate_is_a_config_error(tmp_path, capsys, monkeypatch):
    """A candidate left empty, by a slice test that passes no cell, exits
    2 from build-l and search with one line naming the cause. certify
    needs the candidate only for its recurrence row: it warns with the
    same cause, writes the gap certificate with the recurrence fields null
    and exits 0."""

    def no_members(builder):
        none = np.empty(0, dtype=np.int64)
        return RowRuns.from_rows(builder.geom.n_theta, none, none, none)

    monkeypatch.setattr(SliceBuilder, "all_rows", no_members)
    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"ifs": "sierpinski", "constants": {"rho": 0.0625}}))
    out = tmp_path / "out"
    for command in (["build-l"], ["search"], ["certify", "--theta", "0.5"]):
        code = 0 if command[0] == "certify" else 2
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == code, command
        err = capsys.readouterr().err
        prefix = "warning: " if code == 0 else ""
        suffix = "; no recurrence row" if code == 0 else ""
        assert err.startswith(f"{prefix}slice test: "), err
        assert err.endswith(f"; the candidate is empty{suffix}\n") and err.count("\n") == 1, err
    report = json.loads((out / "certify_report.json").read_text())
    assert report["theta"] == 0.5 and report["n_samples"] > 0
    for key in ("recurrence_interval", "recurrence_length", "recurrence_certified"):
        assert report[key] is None, key


def test_certify_needs_no_candidate(tmp_path, capsys):
    """certify on the Cantor dust, which the pipeline refuses (d = 1),
    still writes its gap certificate: at slope 1/2 the projection is an
    interval of length 3/sqrt(5), and on the diagonal its largest gap is
    0.25/sqrt(2), both within the resolution 1e-3. The omega file is read
    before the pipeline, so a missing one exits 2 with no warning."""
    cfg = str(ROOT / "configs" / "cantor_dust.json")
    argv = ["certify", "--config", cfg, "--out", str(tmp_path)]
    assert main([*argv, "--theta", "0.5", "--omega", str(tmp_path / "absent.json")]) == 2
    assert capsys.readouterr().err.startswith("omega: no such file")
    for theta in (math.atan(0.5), math.pi / 4):
        assert main([*argv, "--theta", repr(theta)]) == 0
        assert capsys.readouterr().err == "warning: d ≤ 1, theorem hypotheses unmet; no recurrence row\n"
        report = json.loads((tmp_path / "certify_report.json").read_text())
        assert report["theta"] == theta and report["omega_file"] is None
        for key in ("recurrence_interval", "recurrence_length", "recurrence_certified"):
            assert report[key] is None, key
        if theta == math.pi / 4:
            assert not report["certified"]
            assert report["largest_gap"] == pytest.approx(0.25 / math.sqrt(2), abs=1e-3)
        else:
            assert report["certified"]
            assert report["length"] == pytest.approx(3 / math.sqrt(5), abs=1e-3)


def grid_225(tmp_path, **extra) -> str:
    """A coarse config (`coarse_config`) on the 15 x 15 grid of maps of
    ratio 1/15: d = 2, the open-square test holds, and its 225 one-character
    symbols make 50,625 two-letter words, more than an int16 witness
    indexes."""
    symbols = [chr(0x100 + k) for k in range(225)]
    maps = {a: {"r": 1 / 15, "tx": (k % 15) / 15, "ty": (k // 15) / 15} for k, a in enumerate(symbols)}
    return coarse_config(tmp_path, ifs={"alphabet": symbols, "maps": maps}, **extra)


def test_alphabet_past_the_witness_index_is_refused(tmp_path, capsys):
    """build-l exits 2 on the 225-map grid, naming the cause, before the E
    scan."""
    assert main(["build-l", "--config", grid_225(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("alphabet: 225 symbols make 50625 two-letter words") and err.count("\n") == 1


def test_certify_past_the_witness_index(tmp_path, capsys):
    """certify needs the candidate only for its recurrence row: on the
    225-map grid at resolution 1e-2 it certifies from the 50,625 two-letter
    stopping words, warns, and writes null recurrence fields."""
    config = grid_225(tmp_path, grid={"cert_resolution": 1e-2})
    assert main(["certify", "--config", config, "--theta", "0.5"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("warning: alphabet: ") and err.endswith("; no recurrence row\n")
    report = json.loads((tmp_path / "out" / "certify_report.json").read_text())
    assert report["certified"] and report["n_samples"] == 225**2
    for key in ("recurrence_interval", "recurrence_length", "recurrence_certified"):
        assert report[key] is None, key


def test_budget_exit_code(tmp_path, capsys):
    assert main(["render", "--ifs", "sierpinski", "--budget", "1", "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err != ""


def test_word_budget_bounds_the_stopping_cover(tmp_path, capsys):
    """The direction scan counts the stopping words at rho under the word
    budget: at rho 1e-9 that cover has 4^30 words, far more than budget
    1000 (and at rho 1e-16 more than the default budget), so build-l exits
    3 before any map is composed."""
    for extra in (["--rho", "1e-9", "--budget", "1000"], ["--rho", "1e-16"]):
        assert main(["build-l", "--ifs", "four_corner", *extra, "--out", str(tmp_path)]) == 3, extra
        assert capsys.readouterr().err.startswith("budget exceeded"), extra


def test_render_pgm(tmp_path):
    rc = main(
        ["render", "--ifs", "sierpinski", "--rho", "0.2", "--out", str(tmp_path), "--size", "32"]
    )
    assert rc == 0
    raw = (tmp_path / "attractor.pgm").read_bytes()
    header = b"P5 32 32 255\n"
    assert raw.startswith(header)
    body = np.frombuffer(raw[len(header):], dtype=np.uint8)
    assert body.size == 32 * 32
    assert set(np.unique(body)) <= {0, 255} and (body == 255).any()


def test_render_rejects_bad_size(tmp_path, capsys):
    for size in ("0", "-3"):
        argv = ["render", "--ifs", "sierpinski", "--out", str(tmp_path), f"--size={size}"]
        assert main(argv) == 2, size
        assert capsys.readouterr().err.startswith("size: must be a positive integer")
    assert not (tmp_path / "attractor.pgm").exists()


def test_scan_csv_format_and_determinism(tmp_path, capsys):
    cfg = coarse_config(tmp_path, constants={"rho": 0.8})  # ceil(4 pi / 0.8) = 16 rows
    assert main(["scan", "--config", cfg]) == 0
    csv = tmp_path / "out" / "scan.csv"
    lines = csv.read_text().splitlines()
    assert lines[0] == "theta,l2_estimate,in_E"
    assert len(lines) == 18  # header + 16 rows + footer
    for row in lines[1:-1]:
        theta, l2, member = row.split(",")
        float(theta), float(l2)
        assert member in ("true", "false")
    assert lines[-1].startswith("# excluded_fraction,")
    first = csv.read_bytes()
    assert main(["scan", "--config", cfg]) == 0
    assert csv.read_bytes() == first
    capsys.readouterr()


def test_scan_render_flag(tmp_path, capsys):
    """scan has no --render flag: `render` writes the raster, at its
    --size."""
    cfg = coarse_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--config", cfg, "--render"])
    assert exc.value.code == 2 and "--render" in capsys.readouterr().err
    assert main(["render", "--config", cfg, "--size", "16"]) == 0
    assert (tmp_path / "out" / "attractor.pgm").read_bytes().startswith(b"P5 16 16 255\n")
    capsys.readouterr()


def test_build_l_outputs(tmp_path, capsys):
    cfg = coarse_config(tmp_path)
    assert main(["build-l", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads((tmp_path / "out" / "candidate.json").read_text())
    assert set(summary) == {
        "rho", "n_theta", "pitch", "t_max", "c5", "excluded_fraction", "e_rows", "counts",
        "min_slice_measure", "empty_e_slices", "candidate_file",
    }
    assert summary["counts"]["L0"] <= summary["counts"]["L"] <= summary["counts"]["L1"]
    assert summary["e_rows"] > 0 and summary["min_slice_measure"] > 0
    assert (tmp_path / "out" / "candidate.npz").exists()
    capsys.readouterr()


def test_search_reports_and_is_deterministic(tmp_path, capsys):
    cfg = coarse_config(tmp_path)
    assert main(["search", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "seed = 3" in out
    lines = out.splitlines()
    verdict = next(i for i, line in enumerate(lines) if line.startswith("hull obstruction: "))
    outcome = next(i for i, line in enumerate(lines) if "omega0 found" in line)
    assert verdict < outcome
    report_path = tmp_path / "out" / "search_report.json"
    report = json.loads(report_path.read_text())
    assert report["seed"] == 3 and report["mode"] == "iid"
    assert report["status"] in ("omega0 found", "no omega0 found")
    assert report["attempts"] <= 3
    first = report_path.read_bytes()
    assert main(["search", "--config", cfg, "--out", str(tmp_path / "out2")]) == 0
    assert (tmp_path / "out2" / "search_report.json").read_bytes() == first
    capsys.readouterr()


def test_verify_identity_assignment(tmp_path, capsys):
    cfg = coarse_config(tmp_path)
    omega = tmp_path / "omega.json"
    omega.write_text(
        json.dumps(
            {
                "a": {"phi": 0.0, "gamma": [0.0, 0.0]},
                "b": {"phi": 0.0, "gamma": [0.0, 0.0]},
            }
        )
    )
    assert main(["verify", "--config", cfg, "--omega", str(omega)]) == 0
    out = capsys.readouterr().out
    assert "recurrence:" in out
    report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
    assert report["closeness"]["epsilon_distance"] == 0.0
    assert 0.0 < report["check"]["fraction"] <= 1.0
    assert len(report["certified_intervals"]) == cli._N_THETA_SAMPLE


def test_perturbed_square_outside_is_a_plain_warning(tmp_path, capsys):
    """verify and certify report a perturbed square that leaves I as one
    plain `warning:` line on stderr, not in Python's
    warning format with a source path; both still exit 0."""
    cfg = coarse_config(tmp_path)
    omega = tmp_path / "omega.json"
    zero = {"phi": 0.0, "gamma": [0.0, 0.0]}
    omega.write_text(json.dumps({"a": {"phi": 0.2, "gamma": [0.0, 0.0]}, "b": zero}))
    for extra in (["verify"], ["certify", "--theta", "0.5"]):
        assert main([*extra, "--config", cfg, "--omega", str(omega)]) == 0, extra
        err = capsys.readouterr().err.splitlines()
        assert "warning: maps ['a'] send the unit square outside itself" in err, extra
        assert not any("UserWarning" in line or ".py:" in line for line in err), extra


def check_bad_omega_rejected(tmp_path, capsys, monkeypatch, command):
    """Each faulty omega file exits 2 with an `omega:` message, before any
    pipeline work; a file of integers is accepted, and verify echoes it as
    floats, read from the omega row."""

    def no_pipeline(cfg):
        raise AssertionError("pipeline built before the omega file was checked")

    monkeypatch.setattr(cli, "build_pipeline", no_pipeline)
    cfg = coarse_config(tmp_path)
    extra = ["--theta", "0.0"] if command == "certify" else []
    zero = '{"phi": 0.0, "gamma": [0.0, 0.0]}'
    faults = {
        "absent.json": (None, "omega: no such file"),
        "syntax.json": ("{not json", "omega: malformed"),
        "no_gamma.json": ('{"a": {"phi": 0.0}}', "omega: malformed"),
        "text_phi.json": ('{"a": {"phi": "x", "gamma": [0.0, 0.0]}}', "omega: malformed"),
        "short_gamma.json": ('{"a": {"phi": 0.0, "gamma": [0.0]}}', "omega: malformed"),
        # past the float range, a true and a false: numbers only by Python's rules
        "huge_phi.json": ('{"a": {"phi": 1%s, "gamma": [0.0, 0.0]}}' % ("0" * 400), "omega: malformed"),
        "bool_phi.json": ('{"a": {"phi": true, "gamma": [0.0, 0.0]}}', "omega: malformed"),
        "bool_gamma.json": ('{"a": {"phi": 0.0, "gamma": [false, 0.0]}}', "omega: malformed"),
        "list.json": ("[]", "omega: malformed"),
        # |gamma| < 1 in each component, gamma a pair, each entry an object
        "gamma_one.json": ('{"a": {"phi": 0.0, "gamma": [1.0, 0.0]}, "b": %s}' % zero, "omega: malformed"),
        "gamma_minus_one.json": ('{"a": {"phi": 0.0, "gamma": [0.0, -1.0]}, "b": %s}' % zero, "omega: malformed"),
        "long_gamma.json": ('{"a": {"phi": 0.0, "gamma": [0.0, 0.0, 0.0]}, "b": %s}' % zero, "omega: malformed"),
        "number_entry.json": ('{"a": 0.5, "b": %s}' % zero, "omega: malformed"),
        # a key beside phi and gamma, as the IFS file refuses one beside its map's numbers
        "extra_key.json": (
            '{"a": {"phi": 0.0, "gamma": [0.0, 0.0], "x": 1}, "b": %s}' % zero,
            "omega: malformed perturbation file: unknown key 'x' in the entry for symbol 'a'",
        ),
        "wrong_domain.json": ('{"a": {"phi": 0.0, "gamma": [0.0, 0.0]}}', "part_one"),
        "extra_symbol.json": ('{"a": %s, "b": %s, "c": %s}' % (zero, zero, zero), "part_one"),
        "a_directory": ("", "omega: cannot read"),
    }
    for name, (text, message) in faults.items():
        path = tmp_path / name
        if name == "a_directory":
            path.mkdir()
        elif text is not None:
            path.write_text(text)
        assert main([command, "--config", cfg, "--omega", str(path), *extra]) == 2, name
        err = capsys.readouterr().err
        assert err.startswith("omega: ") and message in err, (name, err)
    monkeypatch.undo()
    path = tmp_path / "integers.json"
    path.write_text('{"a": {"phi": 0, "gamma": [0, 0]}, "b": {"phi": 0, "gamma": [0, 0]}}')
    assert main([command, "--config", cfg, "--omega", str(path), *extra]) == 0
    capsys.readouterr()
    if command == "verify":
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        want = {a: json.loads(zero) for a in ("a", "b")}
        assert json.dumps(report["omega"], sort_keys=True) == json.dumps(want, sort_keys=True)


def test_verify_rejects_bad_omega(tmp_path, capsys, monkeypatch):
    check_bad_omega_rejected(tmp_path, capsys, monkeypatch, "verify")


def test_certify_rejects_bad_omega(tmp_path, capsys, monkeypatch):
    check_bad_omega_rejected(tmp_path, capsys, monkeypatch, "certify")


def test_certify_rejects_nonfinite_theta(tmp_path, capsys, monkeypatch):
    """A theta that is not a finite number exits 2 with a `theta:` message,
    before any pipeline work."""

    def no_pipeline(cfg):
        raise AssertionError("pipeline built before theta was checked")

    monkeypatch.setattr(cli, "build_pipeline", no_pipeline)
    cfg = coarse_config(tmp_path)
    for theta in ("nan", "inf", "-inf"):
        assert main(["certify", "--config", cfg, f"--theta={theta}"]) == 2, theta
        assert capsys.readouterr().err.startswith("theta: must be finite"), theta
    # finite, but theta / pitch overflows the row index, on this grid and the desk's
    desk = str(ROOT / "configs" / "sierpinski.json")
    for config, theta in ((cfg, "1e308"), (cfg, "-1.7e308"), (desk, "1e308")):
        assert main(["certify", "--config", config, f"--theta={theta}"]) == 2, theta
        assert capsys.readouterr().err.startswith(f"theta: {float(theta)!r} is too large"), theta


def test_search_success_report_matches_verify(tmp_path, capsys, monkeypatch):
    """The report of a search that finds omega0 carries the same check,
    closeness and certified intervals as verify on the omega0 it writes."""

    def accept_identity(ifs, cand, budget, seed, mode, c1, epsilon):
        identity = np.zeros((len(ifs.part_one), 3))
        return SearchOutcome(
            omega0=identity,
            attempts=1,
            accepted_attempt=0,
            best_assignment=identity,
            coverage=1.0,
            mode=mode,
        )

    monkeypatch.setattr(cli, "search_omega0", accept_identity)
    cfg = coarse_config(tmp_path)
    assert main(["search", "--config", cfg]) == 0
    assert "omega0 found at attempt 0" in capsys.readouterr().out
    out = tmp_path / "out"
    search = json.loads((out / "search_report.json").read_text())
    assert search["status"] == "omega0 found"
    omega = json.loads((out / "omega0.json").read_text())
    part_one = get_builtin("four_corner").part_one
    assert omega == {a: {"phi": 0.0, "gamma": [0.0, 0.0]} for a in part_one}
    assert search["omega0"] == omega
    assert main(["verify", "--config", cfg, "--omega", str(out / "omega0.json")]) == 0
    verify = json.loads((out / "verify_report.json").read_text())
    for key in ("check", "closeness", "certified_intervals"):
        assert search[key] is not None and search[key] == verify[key], key
    assert len(search["certified_intervals"]) == cli._N_THETA_SAMPLE
    capsys.readouterr()


def test_certify_full_projection(tmp_path, capsys):
    cfg = coarse_config(tmp_path)
    assert main(["certify", "--config", cfg, "--theta", "0.0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("interval [")
    report = json.loads((tmp_path / "out" / "certify_report.json").read_text())
    assert report["certified"] and report["length"] >= 0.5
    gaps = (tmp_path / "out" / "certify_gaps.csv").read_text().splitlines()
    assert gaps[0] == "left,right,gap"
    assert gaps[-1].startswith("# interval,")


def test_certify_without_a_wide_gap(tmp_path, capsys):
    """certify on four_corner at cert_resolution 0.2: the samples at scale
    0.1 lie on the lattice of pitch 1/16, so no gap exceeds the resolution,
    and the projection, at most sqrt 2 long, is shorter than 10
    resolutions. No interval, and the largest gap is reported as null."""
    grid = {"cert_resolution": 0.2, "search_budget": 3}
    assert main(["certify", "--config", coarse_config(tmp_path, grid=grid), "--theta", "0.5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("no interval at resolution 0.2; no gap wider than the resolution\n")
    text = (tmp_path / "out" / "certify_report.json").read_text()
    assert '"largest_gap": null' in text and not json.loads(text)["certified"]
    gaps = (tmp_path / "out" / "certify_gaps.csv").read_text().splitlines()
    assert gaps == ["left,right,gap", "# no interval,largest_gap,null"]


def certify_c3(tmp_path, theta: float) -> tuple[dict, list[list[float]], str]:
    """certify on C3 = C x C, four maps of ratio 1/3 at the corners of the
    unit square, at theta, rho 2^-5 and the other constants of
    configs/four_corner.json: the report, the rows of certify_gaps.csv and
    its trailer."""
    third = 1.0 / 3.0
    corners = {"a": (0, 0), "b": (2, 0), "c": (0, 2), "d": (2, 2)}
    maps = {a: {"r": third, "tx": x * third, "ty": y * third} for a, (x, y) in corners.items()}
    ifs = tmp_path / "c3.json"
    ifs.write_text(json.dumps({"alphabet": list(corners), "maps": maps}))
    out = tmp_path / f"c3_{theta}"
    config = str(ROOT / "configs" / "four_corner.json")
    argv = ["--config", config, "--ifs", str(ifs), "--rho", "0.03125", "--out", str(out)]
    assert main(["certify", *argv, "--theta", repr(theta)]) == 0
    report = json.loads((out / "certify_report.json").read_text())
    header, *rows, trailer = (out / "certify_gaps.csv").read_text().splitlines()
    assert header == "left,right,gap"
    return report, [[float(x) for x in row.split(",")] for row in rows], trailer


def test_certify_c3_known_answer(tmp_path, capsys):
    """C3 projects at theta = 0 onto the middle-thirds Cantor set C
    (Newhouse 1979). Its 4^7 samples at scale 5e-4 are the left ends of the
    level-7 intervals of C, so the sample gaps wider than the resolution
    1e-3 are the 63 gaps of levels 1-6 of C, each widened by 3^-7; the
    largest is 1/3 + 3^-7, and no interval is certified. At theta = 0.2
    the offsets are cos 0.2 (y - lambda x) with lambda = tan 0.2 < 1/3, so
    the projection has the one gap of width (1/3 - lambda) cos 0.2 between
    the images of the two columns of C, levels 2 on are filled, and an
    interval is certified; the sample widens the gap by less than twice
    its scale."""
    report, gaps, trailer = certify_c3(tmp_path, 0.0)
    assert not report["certified"] and report["n_samples"] == 4**7
    assert len(gaps) == 63 and trailer.startswith("# no interval,largest_gap,")
    assert report["largest_gap"] == pytest.approx(1.0 / 3.0 + 3.0**-7, abs=1e-12)

    report, gaps, trailer = certify_c3(tmp_path, 0.2)
    lam = math.tan(0.2)
    assert report["certified"] and len(gaps) == 1 and trailer.startswith("# interval,")
    assert gaps[0][2] == pytest.approx((1 - 3 * lam) / 3 * math.cos(0.2), abs=1e-3)
    capsys.readouterr()
