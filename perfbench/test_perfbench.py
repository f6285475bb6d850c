"""Tests for the benchmark's own code: tracer, correctness gate, seed mapping."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import gate
import run
import tracer
import workloads
from frobmatch import cli  # noqa: F401  (loads every frobmatch module)
from frobmatch.elliptic import CurveQ, ap_naive


def _bindings() -> dict[tuple[str, str], object]:
    """Every binding of a traced function name in the loaded frobmatch modules."""
    attrs = {attr for _, attr in tracer.TARGETS + tracer.COUNTED}
    return {
        (name, attr): vars(mod)[attr]
        for name, mod in list(sys.modules.items())
        if mod is not None and name.split(".")[0] == "frobmatch"
        for attr in attrs & vars(mod).keys()
    }


def test_tracer_patches_every_importing_module_and_restores_originals():
    before = _bindings()
    assert ("frobmatch.experiment", "ap_bsgs") in before
    assert ("frobmatch.sieve", "jacobi_symbol") in before
    tr = tracer.Tracer()
    with tr:
        assert all(vars(sys.modules[n])[a] is not fn for (n, a), fn in before.items())
        import frobmatch.experiment as experiment
        import frobmatch.sieve as sieve

        a_p = experiment.ap_bsgs(CurveQ(2, 3), 1009)
        sieve.jacobi_symbol(2, 7)
    assert all(vars(sys.modules[n])[a] is fn for (n, a), fn in before.items())
    assert a_p == ap_naive(CurveQ(2, 3), 1009)
    [span] = [s for s in tr.spans if s.name == "elliptic.ap_bsgs"]
    assert span.arg == 1009 and span.parent == -1 and span.end >= span.start
    assert tr.calls["arith.jacobi_symbol"] == 1


def test_tracer_records_parents_of_nested_calls():
    tr = tracer.Tracer()
    with tr:
        import frobmatch.frobenius as frobenius

        frobenius.scan_pair(CurveQ(2, 3), CurveQ(5, 7), 50)
    names = [s.name for s in tr.spans]
    root = names.index("frobenius.scan_pair")
    children = {tr.spans[i].name for i, s in enumerate(tr.spans) if s.parent == root}
    assert {"frobenius.good_primes", "arith.squarefree_part"} <= children
    [primes] = [s for s in tr.spans if s.name == "arith.primes_in"]
    assert tr.spans[primes.parent].name == "frobenius.good_primes"


def test_self_time_subtracts_union_of_children():
    S = tracer.Span
    spans = [
        S("root", 0.0, 10.0, -1),
        S("a", 1.0, 4.0, 0),
        S("b", 3.0, 6.0, 0),  # overlaps a: children cover [1, 6]
        S("a.leaf", 2.0, 3.0, 1),
        S("b.leaf", 5.5, 7.0, 2),  # sticks out of b: only [5.5, 6] counts
    ]
    assert tracer.self_times(spans) == pytest.approx([5.0, 2.0, 2.5, 1.0, 1.5])
    assert tracer.union_length([(0, 1), (2, 3), (2.5, 4)]) == pytest.approx(3.0)
    assert tracer.union_length([]) == 0.0


def test_layer_time_counts_overlapping_spans_once():
    S = tracer.Span
    spans = [
        S("elliptic.ap_bsgs", 0.0, 2.0, -1),
        S("elliptic.ap_naive", 1.0, 1.5, 0),
        S("sieve.sieve_bound_v2", 3.0, 4.0, -1),
    ]
    assert tracer.layer_time(spans, "elliptic") == pytest.approx(2.0)
    assert tracer.layer_time(spans, "sieve") == pytest.approx(1.0)


def test_digest_gate_flags_a_one_byte_change(tmp_path):
    for i, name in enumerate(gate.ARTIFACTS):
        (tmp_path / name).write_bytes(f"artifact {i}\n".encode() * 100)
    expected = gate.artifact_digests(str(tmp_path))
    assert gate.digest_mismatches(str(tmp_path), expected) == []

    data = bytearray((tmp_path / "residue.csv").read_bytes())
    data[57] ^= 1
    (tmp_path / "residue.csv").write_bytes(bytes(data))
    assert gate.digest_mismatches(str(tmp_path), expected) == ["residue.csv"]

    (tmp_path / "growth.svg").unlink()
    assert gate.digest_mismatches(str(tmp_path), expected) == ["residue.csv", "growth.svg"]


def test_goldens_cover_every_pair_and_window():
    goldens = gate.load_goldens()
    for pair in workloads.PAIRS:
        for wl in workloads.workloads().values():
            entry = goldens[workloads.pair_label(pair)][f"fixed{wl.z}"]
            assert set(entry) == set(gate.ARTIFACTS)


def test_seed_to_pair_mapping_is_deterministic():
    assert workloads.pair_for_seed(0) == ((2, 3), (5, 7))
    first = [workloads.pair_for_seed(s) for s in range(20)]
    assert first == [workloads.pair_for_seed(s) for s in range(20)]
    assert set(first) == set(workloads.PAIRS)


def test_oracle_sample_is_seeded_and_catches_a_wrong_row(tmp_path):
    e1, e2 = CurveQ(2, 3), CurveQ(5, 7)
    lines = ["p,a_p,b_p,D1,D2,matched"]
    for p in (1009, 1013, 1019, 1021, 1031, 1033):
        a, b = ap_naive(e1, p), ap_naive(e2, p)
        d1 = gate.squarefree_decompose(4 * p - a * a).D
        d2 = gate.squarefree_decompose(4 * p - b * b).D
        lines.append(f"{p},{a},{b},{d1},{d2},{'true' if d1 == d2 else 'false'}")
    csv_path = tmp_path / "match.csv"
    csv_path.write_text("\n".join(lines) + "\n")

    rows = gate.sample_rows(str(csv_path), seed=7, n_random=3)
    assert rows == gate.sample_rows(str(csv_path), seed=7, n_random=3)
    assert all(gate.check_row(r, e1, e2) == [] for r in rows)

    bad = dict(rows[0], a_p=str(int(rows[0]["a_p"]) + 2))
    assert f"a_p at p={bad['p']}" in gate.check_row(bad, e1, e2)


def test_config_text_parses_to_the_workload():
    from frobmatch.config import parse_config

    for wl in workloads.workloads().values():
        cfg = parse_config(workloads.config_text(workloads.PAIRS[1], wl.z, wl.threads, "c"))
        assert (cfg.curve1.A, cfg.curve1.B, cfg.curve2.A, cfg.curve2.B) == (1, 1, 3, 5)
        assert cfg.x_max == workloads.X_MAX and cfg.x_checkpoints == workloads.CHECKPOINTS
        assert (cfg.z_policy, cfg.z_fixed, cfg.threads) == ("fixed", wl.z, wl.threads)


def test_benchmark_json_lists_what_run_py_prints():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.workloads())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.LAYER_METRICS
