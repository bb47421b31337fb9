"""Scenario schema, orchestration, and report-writing tests.

Oracles: the builtin scenario numbers are pinned against the engine-level
results (domain constancy at machine precision, junction prediction for the
delta relation, Simpson vs boundary charge expression) and against format
contracts (header strings, byte determinism, 17-digit cells).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gcelab
from gcelab import _fmt17
from gcelab.scenario import (
    OUTPUT_KINDS,
    ReportBundle,
    Scenario,
    ScenarioFormatError,
    builtin_scenario_names,
    load_builtin,
    load_scenario,
    order_verdict,
    resolve_scenario,
    run_scenario,
    save_scenario,
    scan_scenario,
    scenario_from_dict,
    serialize_scenario,
    set_delta_strength,
    solution_bundle,
    write_reports,
    _BLOCK_CELLS,
    _atomic_write,
    _csv_chunks,
    _solve_stack,
)
from conftest import EPS, assert_same_bits, system_profile
from gcelab.solvers import (
    InitialValue,
    PotentialProfile,
    Scattering,
    Segment,
    solve_dirac,
    solve_schrodinger,
)

ALL_BUILTINS = ("fig1a", "fig1b", "fig2", "free2", "globalpair", "translate", "unequal")


# Cells whose %.17g forms are easy to get wrong: signed zeros, infinities,
# nan, the smallest subnormal, the largest subnormal, the smallest normal,
# the largest double, integers at and above 2**53, exact powers of ten and
# their neighbours, 17-digit carries, and an exact 18-digit tie (2**-25).
SPECIAL_CELLS = np.array(
    [-0.0, 0.0, 1.0, math.inf, -math.inf, math.nan, 5e-324, 3.0, -7.0, 2.0**53,
     1e17, 0.1, 1.0 / 3.0, 1.7976931348623157e308, -2.2250738585072014e-308,
     2.2250738585072009e-308, -5e-324, 2.0**53 + 2, 2.0**63, 123456789012345680.0,
     1e22, 1e23, 9.9999999999999998e16, 0.99999999999999989, 1.0000000000000002,
     1e-5, 9.9999999999999991e-5, 1e16, 2.0**-25, -3 * 2.0**-25, 1e280, 1e-280]
)


def tricky_cells(rng) -> dict:
    """Seeded tables of cells that stress a %.17g writer, by name."""
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    neighbours = np.stack(
        [np.nextafter(powers, 0.0), powers, np.nextafter(powers, math.inf)], axis=1
    )
    # n * 2**-j with n odd and n * 5**j of 18 digits: exact decimal ties.
    ties = []
    for j in range(2, 26):
        lo, hi = -(-10**17 // 5**j), min((10**18 - 1) // 5**j, 2**53 - 1)
        ties += [(int(n) | 1) * 2.0**-j for n in rng.integers(lo, hi, 20)]
    ties = np.array(ties)
    bits = rng.integers(0, 2**64, 10**5 + 4, dtype=np.uint64)
    return {
        "bits5": bits[:50000].view(np.float64).reshape(-1, 5),
        "bits9": bits[50000:].view(np.float64).reshape(-1, 9),
        "powers": np.concatenate([neighbours, -neighbours], axis=1),
        "integers": (rng.integers(2**53, 2**63, 5000, dtype=np.int64) * 1.0).reshape(-1, 5),
        "ties": np.concatenate([ties, -ties]).reshape(-1, 5),
        "special": np.stack([np.roll(SPECIAL_CELLS, k)[:9] for k in range(SPECIAL_CELLS.size)]),
    }


def reference_csv(header, columns) -> bytes:
    """The per-cell writer that the block format replaced: the test oracle."""
    lines = [",".join(header)]
    lines += [",".join(f"{float(v):.17g}" for v in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def loop_built_digit_tables() -> tuple:
    """The %.17g kernel's digit tables, built one entry at a time: the oracle
    of the array-built ones, in the order ``_fmt17._tables()`` returns them."""

    def words(strings):
        return np.frombuffer(b"".join(strings), dtype=np.uint64)

    xs = range(-400, 401)
    heads = words(b"-0.000%d." % d for d in range(10))
    chunks = words(
        b"%d.%d.%d.%d." % (c // 1000, c // 100 % 10, c // 10 % 10, c % 10)
        for c in range(10**4)
    )
    exponents = words(b"e%+04d,\0\0" % x for x in xs)
    classes = np.array([x + 4 if -4 <= x <= 16 else 21 + (abs(x) >= 100) for x in xs])
    tz = np.array([4] + [len(str(c)) - len(str(c).rstrip("0")) for c in range(1, 10**4)])
    return heads, chunks, exponents, classes * 34, tz * 2


def loop_built_power_tables() -> tuple:
    """The (hi, hi's two halves, lo) tables of 10**s, each pair from its own
    power by exact integer arithmetic: the oracle of the incremental build."""
    his, los = [], []
    for s in range(_fmt17._S_MIN, _fmt17._S_MAX + 1):
        if s >= 0:
            n = 10**s
            hi = float(n)
            lo = float(n - int(hi))
        else:
            d = 10**-s
            hi = 1 / d  # int / int division rounds correctly
            num, den = hi.as_integer_ratio()
            lo = (den - num * d) / (den * d)  # exactly 1/d - hi, rounded
        his.append(hi)
        los.append(lo)
    hi = np.array(his)
    return (hi, *_fmt17._split(hi), np.array(los))


def loop_built_layout() -> tuple:
    """The mask rows of the %.17g kernel, one (class, zeros, sign) row at a
    time, as words, with the count of bytes each row keeps."""
    f = _fmt17
    layout = np.zeros((f._FALLBACK + 1, f._WIDTH), dtype=bool)
    layout[:, f._SEP] = True
    for cls in range(f._CLASSES):
        x = cls - 4
        for zeros in range(17):
            row = layout[(cls * 17 + zeros) * 2]
            if x > 16:  # classes 21 and 22: "e" and two or three digits
                row[f._EXP:f._SEP] = True
                row[f._EXP + 2] = cls == 22
                n_int = 1
            elif x < 0:
                row[1:2 - x] = True  # "0." and -X - 1 zeros
                n_int = 0
            else:
                n_int = x + 1
            n_digits = max(17 - zeros, n_int)
            row[f._DIGIT0:f._DIGIT0 + 2 * n_digits:2] = True
            if 0 < n_int < n_digits:
                row[f._DIGIT0 + 2 * n_int - 1] = True
            layout[(cls * 17 + zeros) * 2 + 1] = row
            layout[(cls * 17 + zeros) * 2 + 1, 0] = True
    lengths = layout.sum(axis=1)
    return (layout * np.uint8(0xFF)).view(np.uint64), lengths


def written_tables(bundle, out_dir) -> dict:
    """CSV bytes by table name, as write_reports leaves them."""
    paths = write_reports(bundle, str(out_dir))
    return {
        Path(p).stem: Path(p).read_bytes() for p in paths if p.endswith(".csv")
    }


def minimal_doc(**overrides) -> dict:
    doc = {
        "model": "dirac",
        "n_systems": 2,
        "profile": {
            "segments": [
                {"x_lo": -1.0, "x_hi": 0.0, "v": [[0.0, 0.0], [0.0, 0.3]]},
                {"x_lo": 0.0, "x_hi": 1.0, "v": [[0.2, 0.0], [0.0, 0.2]]},
            ]
        },
        "energies": [1.0, 1.0],
        "boundaries": [
            {"kind": "incoming", "amplitude": 1.0},
            {"kind": "incoming", "amplitude": 1.0},
        ],
        "grid": {"x_min": -0.9, "x_max": 0.9, "n_points": 101},
        "requested_outputs": ["currents"],
    }
    doc.update(overrides)
    return doc


def file_digests(paths) -> dict:
    out = {}
    for p in paths:
        with open(p, "rb") as fh:
            out[p.rsplit("/", 1)[-1]] = hashlib.sha256(fh.read()).hexdigest()
    return out


class TestSchema:
    def test_minimal_document_parses(self):
        s = scenario_from_dict(minimal_doc())
        assert s.model == "dirac"
        assert s.n_systems == 2
        assert s.pair == (1, 2)
        assert s.quadrature_points == 10001

    def test_missing_required_key_named(self):
        doc = minimal_doc()
        del doc["energies"]
        with pytest.raises(ScenarioFormatError, match="energies"):
            scenario_from_dict(doc)

    def test_unknown_top_level_key_named(self):
        with pytest.raises(ScenarioFormatError, match="spline"):
            scenario_from_dict(minimal_doc(spline=True))

    def test_overlapping_segments_named(self):
        doc = minimal_doc()
        doc["profile"]["segments"][1]["x_lo"] = -0.5
        with pytest.raises(ScenarioFormatError, match="profile.segments"):
            scenario_from_dict(doc)

    def test_wrong_matrix_shape_named(self):
        doc = minimal_doc()
        doc["profile"]["segments"][0]["v"] = [[0.0]]
        with pytest.raises(ScenarioFormatError, match=r"profile.segments\[0\].v"):
            scenario_from_dict(doc)

    def test_bad_boundary_kind_named(self):
        doc = minimal_doc()
        doc["boundaries"][0] = {"kind": "outgoing", "amplitude": 1.0}
        with pytest.raises(ScenarioFormatError, match=r"boundaries\[0\].kind"):
            scenario_from_dict(doc)

    def test_complex_entries_accept_re_im_pairs(self):
        doc = minimal_doc()
        doc["profile"]["segments"][0]["v"] = [[0.0, [0.1, -0.2]], [[0.1, 0.2], 0.0]]
        s = scenario_from_dict(doc)
        assert s.segments[0].v[0][1] == 0.1 - 0.2j

    def test_non_hermitian_like_junk_rejected(self):
        doc = minimal_doc()
        doc["profile"]["segments"][0]["v"][0][0] = "zero"
        with pytest.raises(ScenarioFormatError, match=r"v\[0\]\[0\]"):
            scenario_from_dict(doc)

    def test_unknown_output_named(self):
        with pytest.raises(ScenarioFormatError, match="requested_outputs"):
            scenario_from_dict(minimal_doc(requested_outputs=["plots"]))

    def test_pair_outside_system_range(self):
        with pytest.raises(ScenarioFormatError, match="pair"):
            scenario_from_dict(minimal_doc(pair=[1, 3]))

    def test_energies_length_must_match_systems(self):
        with pytest.raises(ScenarioFormatError, match="energies"):
            scenario_from_dict(minimal_doc(energies=[1.0]))

    def test_grid_invariants(self):
        with pytest.raises(ScenarioFormatError, match="grid.n_points"):
            scenario_from_dict(minimal_doc(grid={"x_min": 0, "x_max": 1, "n_points": 2}))
        with pytest.raises(ScenarioFormatError, match="grid.x_min"):
            scenario_from_dict(minimal_doc(grid={"x_min": 1, "x_max": 0, "n_points": 9}))

    def test_convention_only_for_dirac(self):
        doc = minimal_doc(convention="default")
        doc["model"] = "schrodinger"
        with pytest.raises(ScenarioFormatError, match="convention"):
            scenario_from_dict(doc)

    def test_mass_only_for_schrodinger(self):
        with pytest.raises(ScenarioFormatError, match="mass"):
            scenario_from_dict(minimal_doc(mass=2.0))

    def test_parse_error_reports_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"model": "dirac",\n  "n_systems": }\n')
        with pytest.raises(ScenarioFormatError, match="line 2"):
            load_scenario(str(p))

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ScenarioFormatError, match="no such scenario"):
            load_scenario(str(tmp_path / "absent.json"))


class TestRoundTrip:
    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_builtin_round_trip_equality(self, name):
        s = load_builtin(name)
        assert scenario_from_dict(serialize_scenario(s)) == s

    def test_file_round_trip_equality(self, tmp_path):
        s = load_builtin("fig2")
        path = str(tmp_path / "copy.json")
        save_scenario(s, path)
        assert load_scenario(path) == s

    def test_save_is_byte_deterministic(self, tmp_path):
        s = load_builtin("fig1a")
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_scenario(s, p1)
        save_scenario(s, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()


class TestBuiltins:
    def test_names_enumerate_shipped_files(self):
        assert tuple(builtin_scenario_names()) == ALL_BUILTINS

    def test_unknown_builtin_lists_known(self):
        with pytest.raises(ScenarioFormatError, match="known:"):
            load_builtin("nope")

    def test_resolve_prefers_builtin_for_bare_names(self, tmp_path):
        assert resolve_scenario("fig1a") == load_builtin("fig1a")
        path = str(tmp_path / "own.json")
        save_scenario(load_builtin("fig1a"), path)
        assert resolve_scenario(path) == load_builtin("fig1a")

    def test_fig2_structure(self):
        s = load_builtin("fig2")
        assert s.model == "dirac" and s.convention == "vector"
        assert s.transform is not None and s.transform.sigma == -1
        assert s.transform.rho == 0.0
        assert len(s.deltas) == 1 and s.deltas[0].x0 == 0.0
        strength = np.array(s.deltas[0].strength)
        assert strength[0, 0] == pytest.approx(math.pi / 3, abs=1e-15)
        assert strength[1, 1] == 0.0
        # Mirror-symmetric segment landscape: V11(x) == V22(-x).
        prof = s.profile
        for x in (-1.0, -0.2, 0.2, 1.0, 2.0):
            assert prof.matrix_at(x)[0, 0] == prof.matrix_at(-x)[1, 1]

    def test_free2_is_zero_potential(self):
        s = load_builtin("free2")
        assert s.model == "schrodinger"
        assert all(np.abs(np.array(seg.v)).max() == 0.0 for seg in s.segments)

    def test_set_delta_strength_replaces_first_entry(self):
        s = set_delta_strength(load_builtin("fig2"), 0.25)
        assert s.deltas[0].strength[0][0] == 0.25
        assert s.deltas[0].strength[1][1] == 0.0

    def test_set_delta_strength_requires_a_delta(self):
        with pytest.raises(ScenarioFormatError, match="no delta barrier"):
            set_delta_strength(load_builtin("translate"), 1.0)


class TestRunScenario:
    def test_fig1a_single_domain_and_locality_guard(self):
        b = run_scenario(load_builtin("fig1a"))
        assert b.passed
        doms = b.summary["domains"]
        sampled = [it for it in doms["items"] if it["sampled"]]
        assert len(sampled) == 1
        assert sampled[0]["x_lo"] == 0.0 and sampled[0]["x_hi"] == 2.0
        assert sampled[0]["rel_dev"] <= 1e-8
        assert doms["outside"]["rel_variation"] >= 0.1
        assert b.summary["residuals"]["rms"] <= 1e-6

    def test_fig2_zero_strength_single_domain_equal_constants(self):
        s = set_delta_strength(load_builtin("fig2"), 0.0)
        b = run_scenario(s)
        assert b.passed
        assert b.summary["domains"]["count"] == 1
        d = b.summary["delta_relation"]
        c_minus = complex(d["re_c_minus"], d["im_c_minus"])
        c_plus = complex(d["re_c_plus"], d["im_c_plus"])
        assert abs(c_minus - c_plus) <= 1e-12
        assert d["passed"]

    def test_fig2_default_strength_two_domains_and_prediction(self):
        b = run_scenario(load_builtin("fig2"))
        assert b.passed
        doms = b.summary["domains"]
        assert doms["count"] == 2
        edges = [(it["x_lo"], it["x_hi"]) for it in doms["items"]]
        assert edges == [(-math.inf, 0.0), (0.0, math.inf)]
        assert all(it["rel_dev"] <= 1e-10 for it in doms["items"])
        d = b.summary["delta_relation"]
        assert d["deviation"] <= 1e-10
        c_minus = complex(d["re_c_minus"], d["im_c_minus"])
        c_plus = complex(d["re_c_plus"], d["im_c_plus"])
        assert abs(c_minus - c_plus) > 1e-3

    def test_parity_and_translation_scenarios_pass(self):
        for name in ("fig1b", "translate"):
            b = run_scenario(load_builtin(name))
            assert b.passed, name
            assert b.summary["domains"]["count"] == 2

    def test_globalpair_charge_relation(self):
        b = run_scenario(load_builtin("globalpair"))
        assert b.passed
        rel = b.summary["charge_relation"]
        assert rel["discrepancy"] <= 1e-6
        assert rel["quadrature_points"] == 10001

    def test_free2_schrodinger_constant_current(self):
        b = run_scenario(load_builtin("free2"))
        assert b.passed
        item = b.summary["domains"]["items"][0]
        assert math.isinf(item["x_lo"]) and math.isinf(item["x_hi"])
        assert item["rel_dev"] <= 1e-10

    def test_outputs_override_and_canonical_order(self):
        s = load_builtin("fig1a")
        b = run_scenario(s, outputs=("domains", "currents"))
        assert b.summary["outputs"] == ["currents", "domains"]
        assert set(b.tables) == {"currents", "domains"}
        assert set(OUTPUT_KINDS) >= set(b.summary["outputs"])

    def test_grid_override_changes_row_count(self):
        b = run_scenario(load_builtin("free2"), n_points=501)
        header, columns = b.tables["currents"]
        assert len(columns[0]) == 501 and b.summary["grid"]["n_points"] == 501

    def test_verdict_failure_still_produces_summary(self):
        s = load_builtin("fig1a")
        # Shrink the tolerance below roundoff to force a domain failure.
        b = run_scenario(s, tol=1e-18)
        assert not b.passed
        assert b.summary["passed"] is False
        assert b.summary["domains"]["all_passed"] is False
        failing = [c for c in b.checks if not c["passed"]]
        assert [(c["name"], c["where"], c["tol"]) for c in failing] == [
            ("domain_constancy", [0.0, 2.0], 1e-18)
        ]
        assert failing[0]["value"] == b.summary["domains"]["items"][0]["rel_dev"]

    def test_fig2_delta_relation_is_three_checks_at_the_delta(self):
        b = run_scenario(load_builtin("fig2"))
        rel = b.summary["delta_relation"]
        checks = [c for c in b.checks if c["name"].startswith("delta_relation.")]
        assert [c["name"] for c in checks] == [
            "delta_relation.deviation",
            "delta_relation.rel_dev_minus",
            "delta_relation.rel_dev_plus",
        ]
        for c in checks:
            assert c["value"] == rel[c["name"].split(".")[1]]
            assert c["where"] == rel["x0"] and c["tol"] == rel["tol"] and c["passed"]

    def test_passed_is_read_only(self):
        b = run_scenario(load_builtin("fig1a"), outputs=())
        assert b.checks == [] and b.passed
        with pytest.raises(AttributeError):
            b.passed = False
        with pytest.raises(TypeError):
            ReportBundle(scenario=b.scenario, grid=b.grid, passed=False)

    def test_solver_errors_carry_scenario_context(self):
        s = load_builtin("free2")
        bad = dataclasses.replace(s, energies=(-1.0, -1.0))
        with pytest.raises(ValueError, match="solving the scenario systems"):
            run_scenario(bad)

    def test_delta_relation_requires_dirac_and_delta(self):
        with pytest.raises(ScenarioFormatError, match="dirac"):
            run_scenario(load_builtin("free2"), outputs=("delta_relation",))
        with pytest.raises(ScenarioFormatError, match="delta"):
            run_scenario(load_builtin("translate"), outputs=("delta_relation",))

    def test_charge_relation_requires_interval(self):
        with pytest.raises(ScenarioFormatError, match="charge_interval"):
            run_scenario(load_builtin("fig1a"), outputs=("charge_relation",))

    @pytest.mark.parametrize(
        "name, energies, joint",
        [("fig1a", None, True), ("unequal", None, False), ("free2", (1.0, 1.5), False)],
    )
    def test_solution_columns_match_per_element_reference(self, name, energies, joint):
        s = load_builtin(name)
        if energies is not None:
            # Unequal energies: each system at its own.
            s = dataclasses.replace(s, energies=energies)
        grid = s.grid_array(201)
        samples = _solve_stack(s).evaluate(grid)
        n = s.n_systems
        # Each single-system solve sits in its rows of the stack's layout.
        for i in range(1, n + 1) if not joint else ():
            sub, e = system_profile(s.profile, i), s.energies[i - 1]
            amp = Scattering([s.boundaries[i - 1].amplitudes[0]])
            if s.model == "dirac":
                member, rows = solve_dirac(sub, e, amp, s.convention), [2 * i - 2, 2 * i - 1]
            else:
                member, rows = solve_schrodinger(sub, e, amp, s.mass), [i - 1, n + i - 1]
            assert_same_bits(samples[:, rows], member.evaluate(grid))
        expected_header = ["x"]
        for c in range(samples.shape[1]):
            expected_header += [f"re_u{c + 1}", f"im_u{c + 1}"]
        expected = []
        for k, x in enumerate(grid):
            row = [x]
            for c in range(samples.shape[1]):
                row += [samples[k, c].real, samples[k, c].imag]
            expected.append(row)
        header, columns = solution_bundle(s, n_points=201).tables["solution"]
        assert header == expected_header
        assert all(c.dtype == np.float64 for c in columns)
        assert np.array_equal(np.column_stack(columns), np.array(expected))

    def test_solution_bundle_shape(self):
        b = solution_bundle(load_builtin("fig1a"), n_points=201)
        header, columns = b.tables["solution"]
        assert header[0] == "x" and len(header) == 1 + 2 * 4
        assert len(columns[0]) == 201
        assert b.summary["components"] == 4


class TestReports:
    def test_currents_header_contract(self, tmp_path):
        b = run_scenario(load_builtin("free2"), n_points=101)
        paths = write_reports(b, str(tmp_path))
        by_name = {p.rsplit("/", 1)[-1]: p for p in paths}
        with open(by_name["currents.csv"]) as fh:
            lines = fh.read().split("\n")
        assert lines[0] == "x,re_j1,im_j1,re_j0,im_j0"
        assert len(lines) == 1 + 101 + 1  # header + rows + trailing newline
        assert all("," in ln for ln in lines[1:-1])

    def test_cells_round_trip_doubles_exactly(self, tmp_path):
        b = run_scenario(load_builtin("fig1a"), n_points=101)
        paths = write_reports(b, str(tmp_path))
        path = [p for p in paths if p.endswith("currents.csv")][0]
        lines = Path(path).read_text().rstrip("\n").split("\n")[1:]
        _, columns = b.tables["currents"]
        for ln, row in zip(lines, zip(*columns), strict=True):
            cells = [float(c) for c in ln.split(",")]
            # 17 significant digits make the double round trip bit exact.
            assert cells == [float(v) for v in row]
        assert "-2.7999999999999998" in lines[0]

    def test_empty_outputs_writes_only_summary(self, tmp_path):
        b = run_scenario(load_builtin("fig1a"), outputs=())
        paths = write_reports(b, str(tmp_path))
        assert [p.rsplit("/", 1)[-1] for p in paths] == ["summary.json"]

    def test_rerun_byte_determinism(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        d1 = file_digests(write_reports(run_scenario(load_builtin("fig2")), str(out1)))
        d2 = file_digests(write_reports(run_scenario(load_builtin("fig2")), str(out2)))
        assert d1 == d2
        assert set(d1) == {"currents.csv", "domains.csv", "summary.json"}

    def test_summary_is_json_with_verdicts(self, tmp_path):
        b = run_scenario(load_builtin("fig2"))
        paths = write_reports(b, str(tmp_path))
        with open([p for p in paths if p.endswith("summary.json")][0]) as fh:
            doc = json.load(fh)
        assert doc["passed"] is True
        assert doc["domains"]["items"][0]["x_lo"] == -math.inf
        assert doc["scenario"]["model"] == "dirac"

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_every_summary_lists_its_checks(self, name, tmp_path):
        for bundle in (
            run_scenario(load_builtin(name), n_points=401),
            solution_bundle(load_builtin(name), n_points=401),
            scan_scenario(load_builtin(name), [2e-2, 1e-2]),
        ):
            doc = json.loads(Path(write_reports(bundle, str(tmp_path))[-1]).read_text())
            checks = doc["checks"]
            assert all(
                set(c) == {"name", "value", "tol", "passed", "where"} for c in checks
            )
            assert doc["passed"] is all(c["passed"] for c in checks) is bundle.passed
        assert checks[0]["name"] == "scan_order"

    def test_summary_names_the_package_version(self):
        b = run_scenario(load_builtin("free2"), n_points=11, outputs=())
        assert b.summary["tool"] == f"gcelab {gcelab.__version__}"

    def test_bulk_format_matches_per_cell_writer(self, tmp_path):
        cells = np.array(
            [
                [-0.0, 0.0, 1.0, 0.0],
                [math.inf, -math.inf, math.nan, 5e-324],
                [3.0, -7.0, 2.0**53, 1e17],
                [0.1, 1.0 / 3.0, 1.7976931348623157e308, -2.2250738585072014e-308],
            ]
        )
        bundle = ReportBundle(scenario=load_builtin("free2"), grid=np.zeros(2))
        bundle.tables["cells"] = (["a", "b", "flag", "d"], list(cells.T))
        bundle.tables["empty"] = (["x", "y"], [np.empty(0), np.empty(0)])
        for name, rows in tricky_cells(np.random.default_rng(2025)).items():
            bundle.tables[name] = ([f"c{k}" for k in range(rows.shape[1])], list(rows.T))
        got = written_tables(bundle, tmp_path)
        assert set(got) == set(bundle.tables)
        for table, (header, columns) in bundle.tables.items():
            assert got[table] == reference_csv(header, columns), table
        assert got["cells"].split(b"\n")[1] == b"-0,0,1,0"
        assert got["empty"] == b"x,y\n"

    def test_digit_tables_match_loop_built_reference(self):
        names = ("heads", "chunks", "exponents", "keys", "zero_keys")
        got = _fmt17._tables()[4:9]
        for name, table, ref in zip(names, got, loop_built_digit_tables(), strict=True):
            assert table.dtype == ref.dtype, name
            assert table.shape == ref.shape, name
            assert table.tobytes() == ref.tobytes(), name
            assert not table.flags.writeable, name

    def test_power_and_layout_tables_match_loop_built_reference(self):
        tables = _fmt17._tables()
        got = {"hi": tables[0], "hi_head": tables[1], "hi_tail": tables[2], "lo": tables[3],
               "layout": tables[9], "lengths": tables[10]}
        refs = (*loop_built_power_tables(), *loop_built_layout())
        for (name, table), ref in zip(got.items(), refs, strict=True):
            assert table.dtype == ref.dtype, name
            assert table.shape == ref.shape, name
            assert table.tobytes() == ref.tobytes(), name
            assert not table.flags.writeable, name

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_builtin_tables_match_per_cell_writer(self, name, tmp_path):
        s = load_builtin(name)
        for i, bundle in enumerate(
            [run_scenario(s, n_points=101), solution_bundle(s, n_points=101)]
        ):
            got = written_tables(bundle, tmp_path / str(i))
            assert set(got) == set(bundle.tables)
            for table, (header, columns) in bundle.tables.items():
                assert len(columns) == len(header)
                assert all(c.dtype == np.float64 and c.ndim == 1 for c in columns)
                assert got[table] == reference_csv(header, columns), table

    def test_version_has_one_source(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        doc = tomllib.loads(pyproject.read_text(encoding="utf-8"))
        assert "version" not in doc["project"]
        assert "version" in doc["project"]["dynamic"]
        attr = doc["tool"]["setuptools"]["dynamic"]["version"]["attr"]
        assert attr == "gcelab.scenario.__version__"
        assert gcelab.scenario.__version__ == gcelab.__version__

    def test_no_partial_files_on_rewrite(self, tmp_path):
        b = run_scenario(load_builtin("free2"), n_points=11)
        paths = write_reports(b, str(tmp_path))
        again = write_reports(b, str(tmp_path))
        assert paths == again
        leftovers = [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_failed_table_write_keeps_the_earlier_file(self, tmp_path):
        header = ["a", "b", "c", "d", "e"]
        per_block = _BLOCK_CELLS // len(header)
        good = ReportBundle(scenario=load_builtin("free2"), grid=np.zeros(2))
        good.tables["cells"] = (header, [np.ones(2 * per_block + 1)] * len(header))
        before = file_digests(write_reports(good, str(tmp_path)))
        # A cell that cannot be formatted in the second block fails the write
        # after the first block has reached the .tmp file.
        rows = np.ones((2 * per_block + 1, len(header)), dtype=object)
        rows[per_block + 1, 2] = "not a number"
        bad = ReportBundle(scenario=good.scenario, grid=good.grid)
        bad.tables["cells"] = (header, list(rows.T))
        with pytest.raises(TypeError):
            write_reports(bad, str(tmp_path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cells.csv", "summary.json"]
        paths = [str(tmp_path / "cells.csv"), str(tmp_path / "summary.json")]
        assert file_digests(paths) == before

    def test_failed_stream_removes_the_tmp_file(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_bytes(b"old\n")

        def chunks():
            yield b"new,partial\n"
            raise OSError("disk full")

        with pytest.raises(OSError, match=r"writing .*table\.csv: disk full"):
            _atomic_write([(str(path), chunks())])
        assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]
        assert path.read_bytes() == b"old\n"

    @pytest.mark.parametrize("n_cols", [5, 9])
    def test_block_boundaries_match_per_cell_writer(self, n_cols, tmp_path):
        per_block = _BLOCK_CELLS // n_cols
        rng = np.random.default_rng(n_cols)
        bundle = ReportBundle(scenario=load_builtin("free2"), grid=np.zeros(2))
        header = [f"c{k}" for k in range(n_cols)]
        for n_rows in (0, 1, per_block - 1, per_block, per_block + 1, 2 * per_block + 1):
            shape = (n_rows, n_cols)
            rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
            # Special values in the first and last row of every block.
            edges = [i for i in range(n_rows) if i % per_block in (0, per_block - 1)]
            for k, i in enumerate(edges + [n_rows - 1] if n_rows else []):
                rows[i] = np.roll(SPECIAL_CELLS, k)[:n_cols]
            bundle.tables[f"rows{n_rows}"] = (header, list(rows.T))
            assert len(list(_csv_chunks(header, list(rows.T)))) == 1 + -(-n_rows // per_block)
        got = written_tables(bundle, tmp_path)
        for table, (header, columns) in bundle.tables.items():
            assert got[table] == reference_csv(header, columns), table

    @pytest.mark.parametrize("name", ALL_BUILTINS)
    def test_fine_grid_tables_match_per_cell_writer(self, name, tmp_path):
        bundle = run_scenario(load_builtin(name), n_points=40001)
        cells = [sum(map(len, columns)) for _, columns in bundle.tables.values()]
        assert max(cells) > 20 * _BLOCK_CELLS
        got = written_tables(bundle, tmp_path)
        for table, (header, columns) in bundle.tables.items():
            assert got[table] == reference_csv(header, columns), table

    @pytest.mark.parametrize("shape", [(10001, 5), (100001, 9)])
    def test_write_memory_does_not_grow_with_the_table(self, shape, tmp_path):
        bundle = ReportBundle(scenario=load_builtin("free2"), grid=np.zeros(2))
        rows = np.random.default_rng(0).standard_normal(shape)
        bundle.tables["cells"] = ([f"c{k}" for k in range(shape[1])], list(rows.T))
        tracemalloc.start()
        try:
            write_reports(bundle, str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A whole-table write holds about 60 bytes per cell: 2.9 MiB at
        # 10001 x 5 and 52 MiB at 100001 x 9.
        assert peak < 2 * 2**20


def test_fine_grid_run_holds_its_tables_and_one_block():
    """A 40001-point fig1a run holds the engine's results its tables refer
    to plus one block of samples; sampling the whole grid for its currents
    and residuals held about 197 bytes per point (8.65 MiB)."""
    s = load_builtin("fig1a")
    run_scenario(s, n_points=101)  # lazy imports and table builds
    tracemalloc.start()
    try:
        run_scenario(s, n_points=40001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * 2**20


def traced_report_peak(make, name: str, n_points: int, out_dir) -> int:
    """tracemalloc peak of building a builtin's bundle and writing it."""
    s = load_builtin(name)
    tracemalloc.start()
    try:
        write_reports(make(s, n_points=n_points), str(out_dir))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "make, name",
    [
        (run_scenario, "fig1a"),
        (solution_bundle, "fig2"),
        (solution_bundle, "fig1a"),
        (solution_bundle, "unequal"),
    ],
)
def test_report_memory_per_point(make, name, tmp_path):
    """A report grows only with the engine's arrays, which its tables refer
    to.  Stacked copies of every table grew by 145 (fig1a run) and 141
    (fig2 solve) bytes per point; the engine's arrays take about 88 and 86.
    A solve holds its samples (64 bytes per point for N = 2) and the grid;
    sampling the whole grid at once grew by 92 (fig2), 120 (fig1a) and 113
    (unequal) bytes per point."""
    write_reports(make(load_builtin(name), n_points=101), str(tmp_path))  # lazy tables
    small, large = (traced_report_peak(make, name, n, tmp_path) for n in (20001, 60001))
    assert (large - small) / 40000 <= (110 if make is run_scenario else 85)


def owner(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory a view reads."""
    while a.base is not None:
        a = a.base
    return a


class TestTableColumns:
    def test_columns_refer_to_the_engine_arrays(self):
        s = load_builtin("fig1a")
        b = run_scenario(s, n_points=501)
        x, re_j1, im_j1, re_j0, im_j0 = b.tables["currents"][1]
        assert x is b.grid
        # The four current columns are views of one complex (2, n) result.
        assert all(owner(c) is owner(re_j1) for c in (im_j1, re_j0, im_j0))
        x, re_res, im_res = b.tables["residuals"][1]
        assert x is b.grid and not re_res.flags.writeable
        assert im_res.strides == (0,) and not im_res.any()
        x, *parts = solution_bundle(s, n_points=501).tables["solution"][1]
        assert all(owner(c) is owner(parts[0]) for c in parts)

    @pytest.mark.parametrize(
        "columns", [[np.zeros(3), np.zeros(4)], [np.zeros(3)], [np.zeros(3)] * 3]
    )
    def test_mismatched_columns_raise_before_any_write(self, columns, tmp_path):
        bundle = ReportBundle(scenario=load_builtin("free2"), grid=np.zeros(2))
        bundle.tables["cells"] = (["a", "b"], columns)
        with pytest.raises(ValueError, match="one column per name"):
            write_reports(bundle, str(tmp_path))
        assert list(tmp_path.iterdir()) == []


class TestMixedBoundaryKinds:
    """A diagonal stack with an incoming and an initial-valued system; each
    system's rows are its single-system solve, bit for bit for Dirac."""

    LEADS = (-2.0, 0.0, 1.0, 2.0)

    def stack(self, model, v2, **extra) -> Scenario:
        steps = (0.0, 0.4, 0.0)
        segments = [
            {"x_lo": lo, "x_hi": hi, "v": [[v1, 0.0], [0.0, v2]]}
            for lo, hi, v1 in zip(self.LEADS[:-1], self.LEADS[1:], steps)
        ]
        return scenario_from_dict({
            "model": model, "n_systems": 2, "profile": {"segments": segments},
            "energies": [1.0, 1.0],
            "boundaries": [
                {"kind": "incoming", "amplitude": [0.8, 0.3]},
                {"kind": "initial", "value": [[0.6, 0.1], -0.4]},
            ],
            "grid": {"x_min": -3.0, "x_max": 3.0, "n_points": 601},
            "requested_outputs": ["currents", "residuals"],
            **extra,
        })

    def singles(self, v2):
        steps = (0.0, 0.4, 0.0)
        p1 = PotentialProfile([
            Segment(lo, hi, [[v1]]) for lo, hi, v1 in zip(self.LEADS[:-1], self.LEADS[1:], steps)
        ])
        p2 = PotentialProfile([
            Segment(lo, hi, [[v2]]) for lo, hi in zip(self.LEADS[:-1], self.LEADS[1:])
        ])
        return p1, p2, Scattering([0.8 + 0.3j]), InitialValue([0.6 + 0.1j, -0.4])

    def check_rows(self, s, members, rows, eps=None):
        """Bit for bit, or within ``eps`` eps of the samples' size."""
        bundle = run_scenario(s)
        assert set(bundle.tables) == {"currents", "residuals"}
        for grid in (s.grid_array(), np.linspace(-2.5, 2.5, 101)):
            for side in ("left", "right"):
                flat = _solve_stack(s).evaluate(grid, side)
                for member, r in zip(members, rows):
                    direct = member.evaluate(grid, side)
                    if eps is None:
                        assert_same_bits(flat[:, r], direct)
                    else:
                        assert np.abs(flat[:, r] - direct).max() <= eps * EPS * np.abs(direct).max()

    def test_dirac_incoming_and_initial(self):
        s = self.stack("dirac", 0.5, convention="default")
        p1, p2, incoming, initial = self.singles(0.5)
        members = [solve_dirac(p1, 1.0, incoming), solve_dirac(p2, 1.0, initial)]
        self.check_rows(s, members, ([0, 1], [2, 3]))

    def test_schrodinger_initial_system_in_an_evanescent_lead(self):
        s = self.stack("schrodinger", 3.0, mass=1.0)
        p1, p2, incoming, initial = self.singles(3.0)
        members = [solve_schrodinger(p1, 1.0, incoming), solve_schrodinger(p2, 1.0, initial)]
        # A wave system's rows interleave with the other's (values,
        # derivatives), and their complex sums round in another order: up
        # to 1.4 eps of the samples' size (OpenBLAS, x86-64).
        self.check_rows(s, members, ([0, 2], [1, 3]), eps=3)
        # The same lead refuses a scattering boundary.
        with pytest.raises(ValueError, match="system 2 is evanescent"):
            _solve_stack(dataclasses.replace(s, boundaries=(s.boundaries[0],) * 2))


class TestCoupledStacksRefused:
    def unequal_doc(self) -> dict:
        return json.loads((Path(gcelab.__file__).parent / "scenarios" / "unequal.json").read_text())

    def test_a_coupling_delta_is_named(self):
        doc = self.unequal_doc()
        doc["profile"]["deltas"] = [{"x0": -0.4, "strength": [[0.3, 0.1], [0.1, 0.3]]}]
        with pytest.raises(ValueError, match=(
            r"profile\.deltas\[0\] couples systems 1 and 2 at energies 1\.5 and 1\.1"
        )):
            run_scenario(scenario_from_dict(doc))

    def test_equal_energies_with_mixed_boundaries_are_named(self):
        doc = self.unequal_doc()
        doc["profile"]["segments"][0]["v"] = [[0.2, 0.2], [0.2, 0.5]]
        doc["energies"] = [1.5, 1.5]
        doc["boundaries"][1] = {"kind": "initial", "value": [1.0, 0.0]}
        with pytest.raises(ValueError, match=(
            r"profile\.segments\[0\] couples systems 1 and 2 at energies 1\.5 and 1\.5; "
            r"a coupled profile needs one energy and one boundary kind"
        )):
            run_scenario(scenario_from_dict(doc))


class TestScan:
    def test_unequal_scan_detects_second_order(self):
        b = scan_scenario(load_builtin("unequal"), [1e-2, 5e-3, 2.5e-3])
        assert b.passed
        assert b.summary["scan"]["mean_order"] == pytest.approx(2.0, abs=0.2)
        header, columns = b.tables["scan"]
        assert header == ["h", "rms"]
        assert len(columns[0]) == 3

    def test_scan_summary_reports_rounding_floors(self):
        scan = scan_scenario(load_builtin("unequal"), [1e-2, 5e-3]).summary["scan"]
        assert scan["at_rounding"] is False
        assert len(scan["floors"]) == 2
        assert all(0.0 < f < r for f, r in zip(scan["floors"], scan["rms"]))
        free = scan_scenario(load_builtin("free2"), [1e-2, 5e-3, 2.5e-3])
        assert free.passed
        assert free.summary["scan"]["at_rounding"] is True
        assert free.summary["scan"]["mean_order"] is None
        assert free.checks == [{
            "name": "scan_order", "value": None, "tol": 0.2, "passed": True, "where": None
        }]
        assert free.summary["checks"] == free.checks

    def test_order_rule(self):
        hs = [1e-2, 5e-3, 2.5e-3]
        floors = [1e-15, 2e-15, 4e-15]
        # First order, well above rounding: judged and failed.
        v = order_verdict(hs, [1e-4, 5e-5, 2.5e-5], floors)
        assert v["mean_order"] == pytest.approx(1.0)
        assert not v["at_rounding"] and not v["passed"]
        # Second order above rounding passes.
        assert order_verdict(hs, [4e-6, 1e-6, 2.5e-7], floors)["passed"]
        # Every RMS below its floor (growing as 1/h, like free2): passes at rounding.
        v = order_verdict(hs, [0.4e-15, 0.8e-15, 1.6e-15], floors)
        assert v == {
            "orders": [None, None], "mean_order": None, "at_rounding": True, "passed": True
        }
        # Some RMS above the floor but no pair of neighbours: nothing judged, fails.
        v = order_verdict(hs, [1e-10, 1e-15, 1e-10], floors)
        assert v["orders"] == [None, None]
        assert not v["at_rounding"] and not v["passed"]

    def test_scan_needs_two_spacings(self):
        with pytest.raises(ScenarioFormatError, match="two spacings"):
            scan_scenario(load_builtin("unequal"), [1e-2])
