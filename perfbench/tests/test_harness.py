"""Tests of the benchmark harness itself (not of the program).

    python3 -m pytest perfbench/tests
"""

import itertools
import json
import os
import types

import numpy as np
import pytest

from perfbench import calibration, fngi, layers, run, workloads
from perfbench.tracer import Tracer


def _fake_module(name, source):
    module = types.ModuleType(name)
    exec(source, module.__dict__)
    return module


FAKE = """
def outer():
    inner()
    inner()
    return 1

def inner():
    return 2

def recurse(n):
    return recurse(n - 1) if n else 0

class Box:
    def method(self):
        return inner()

    @classmethod
    def make(cls):
        return cls()

    @property
    def size(self):
        return 3
"""


def _ticking_clock():
    ticks = itertools.count()
    return lambda: float(next(ticks))


def test_self_time_of_nested_spans():
    module = _fake_module("fake", FAKE)
    tracer = Tracer(clock=_ticking_clock()).install([module])
    module.outer()  # outer [0, 5], inner [1, 2] and [3, 4]
    tracer.uninstall()
    summary = tracer.summary()
    assert summary["fake.outer"] == {"calls": 1, "s": 5.0, "self_s": 3.0}
    assert summary["fake.inner"] == {"calls": 2, "s": 2.0, "self_s": 2.0}


def test_recursion_is_counted_once_in_inclusive_time():
    module = _fake_module("fake", FAKE)
    tracer = Tracer(clock=_ticking_clock()).install([module])
    module.recurse(2)  # spans [0, 5] > [1, 4] > [2, 3]
    tracer.uninstall()
    stats = tracer.summary()["fake.recurse"]
    assert stats["calls"] == 3
    assert stats["s"] == 5.0
    assert stats["self_s"] == 5.0  # 2 + 2 + 1: each level's own share


def test_overlapping_children_are_covered_once():
    tracer = Tracer()
    tracer.names = ["root", "a", "b"]
    tracer.starts = [0.0, 1.0, 2.0]
    tracer.ends = [10.0, 4.0, 12.0]  # b overlaps a and runs past the root's end
    tracer.parents = [-1, 0, 0]
    assert tracer.summary()["root"]["self_s"] == pytest.approx(1.0)


def test_methods_are_wrapped_on_their_classes_and_restored():
    module = _fake_module("fake", FAKE)
    original = module.Box.__dict__["method"]
    tracer = Tracer().install([module])
    box = module.Box.make()
    assert box.method() == 2 and box.size == 3
    assert {"fake.Box.method", "fake.Box.make"} <= tracer.wrapped
    assert "fake.Box.size" not in tracer.wrapped
    tracer.uninstall()
    assert module.Box.__dict__["method"] is original
    assert tracer.names.count("fake.Box.method") == 1


def test_absent_names_are_reported_and_read_as_zero():
    module = _fake_module("fake", FAKE)
    tracer = Tracer().install([module])
    module.outer()
    tracer.uninstall()
    assert tracer.absent(["fake.outer", "fake.renamed", "fake.Box.gone"]) == ["fake.Box.gone", "fake.renamed"]
    values = layers.layer_metrics(tracer, rounds=1)  # none of the program's names exist here
    assert set(values) >= {name for name, _ in layers.PER_LAYER if not name.startswith(("trace.", "e2e."))}
    assert values["backbone.encode.s"] == 0 and values["autodiff.other.s"] == 0


def test_counter_errors_do_not_fail_the_call():
    module = _fake_module("fake", FAKE)

    def broken(counts, args, kwargs, result):
        raise KeyError("api changed")

    tracer = Tracer(counters={"fake.inner": broken}).install([module])
    assert module.outer() == 1
    tracer.uninstall()
    assert tracer.counter_errors["fake.inner"] == 2


def test_per_layer_metric_names_fit_the_contract():
    names = [name for name, _ in layers.PER_LAYER]
    assert len(names) == len(set(names)) <= 128
    assert all(len(name) <= 64 for name in names)


# ---------------------------------------------------------------------------
# correctness checks catch perturbed outputs
# ---------------------------------------------------------------------------


def _unit_rows(n, rng):
    segs = [rng.standard_normal((n, 64)) for _ in workloads.SEGMENTS]
    return np.concatenate([s / np.linalg.norm(s, axis=1, keepdims=True) for s in segs], axis=1).astype(np.float32)


def _write_banks(out, rows, labels):
    os.makedirs(out, exist_ok=True)
    for split in ("train", "test"):
        sections = {"labels": labels[split], "fused": rows[split], "embedding": rows[split][:, -64:]}
        sections.update({f"grad::{s}": rows[split][:, :64] for s in ("kl", "dino", "simclr")})
        fngi.write(os.path.join(out, f"bank_{split}.fngi"), sections)


@pytest.fixture
def extract_state(tmp_path):
    rng = np.random.default_rng(0)
    labels = {"train": np.array([0, 1], dtype=np.int32), "test": np.array([0], dtype=np.int32)}
    rows = {"train": _unit_rows(2, rng), "test": _unit_rows(1, rng)}
    state = {"out": str(tmp_path / "banks"), "labels": labels}
    _write_banks(state["out"], rows, labels)
    return state, rows


def _check_extract(state, reference=None):
    op = workloads.Op("extract", 1.0)
    workload = workloads.ExtractViews()
    workload.check(op, state)
    if reference is not None:
        workload.compare(op, reference, {"segment_cosine": 0.999})
    return op


def test_extract_check_accepts_good_banks_and_matches_its_own_record(extract_state):
    state, _ = extract_state
    op = _check_extract(state)
    assert op.ok, op.problems
    assert _check_extract(state, workloads.ExtractViews().record([op])).ok


def test_extract_check_catches_a_non_unit_segment(extract_state):
    state, rows = extract_state
    reference = workloads.ExtractViews().record([_check_extract(state)])
    rows["test"][0, 70] += 0.5
    _write_banks(state["out"], rows, state["labels"])
    op = _check_extract(state, reference)
    assert not op.ok
    assert any("dino not unit-norm" in p for p in op.problems)
    assert any("dino row cosine" in p for p in op.problems)


def test_extract_check_catches_a_corrupted_crc(extract_state):
    state, _ = extract_state
    path = os.path.join(state["out"], "bank_train.fngi")
    data = bytearray(open(path, "rb").read())
    data[-10] ^= 0xFF  # inside the last section's payload
    open(path, "wb").write(bytes(data))
    op = _check_extract(state)
    assert not op.ok and any("crc mismatch" in p for p in op.problems)


def test_eval_compare_catches_a_moved_accuracy():
    workload = workloads.WORKLOADS["eval-banks.probe"]
    tol = {"knn": 0.002, "probe": 0.002, "retrieval": 1e-5, "cluster": 0.01, "cka": 1e-4}
    ref = {"eval": {"knn_top1_fused": 0.9}}
    good = workloads.Op("eval", 1.0, values={"knn_top1_fused": 0.901})
    workload.compare(good, ref, tol)
    assert good.ok
    bad = workloads.Op("eval", 1.0, values={"knn_top1_fused": 0.895})
    workload.compare(bad, ref, tol)
    assert not bad.ok


def test_eval_check_rejects_accuracy_at_one(tmp_path):
    workload = workloads.WORKLOADS["eval-banks.probe"]
    (tmp_path / "probe.csv").write_text("# config_hash=x\nmetric,class,value\nprobe_top1_fused,,1.000000\n")
    op = workloads.Op("probe", 1.0)
    workload.check(op, {"out": str(tmp_path)})
    assert not op.ok


def test_segment_compare_catches_flipped_patches():
    workload = workloads.SegmentDense()
    grid = np.zeros((32, 32), dtype=np.int32)
    ref = {"rows": 10, "miou": 0.8, "grids": ["0" * 1024]}
    tol = {"pixel_agreement": 0.99, "miou": 0.02}
    op = workloads.Op("query0", 1.0, values={"grid": grid, "miou": 0.8})
    workload.compare(op, ref, tol)
    assert op.ok
    grid.ravel()[:20] = 1  # 2% of the cells
    op = workloads.Op("query0", 1.0, values={"grid": grid, "miou": 0.8})
    workload.compare(op, ref, tol)
    assert not op.ok


# ---------------------------------------------------------------------------
# the workload seed changes the inputs and nothing else
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fungi():
    module = run.load_fungi()
    assert module is not None
    return module


def test_eval_banks_seed_changes_only_the_rows(fungi, tmp_path):
    workload = workloads.WORKLOADS["eval-banks.probe"]
    states = []
    for i, seed in enumerate((1, 1, 2)):
        (tmp_path / str(i)).mkdir()
        states.append(workload.setup(fungi, seed, str(tmp_path / str(i))))
    banks = [fngi.read(s["train"]) for s in states]
    assert all(np.array_equal(banks[0][k], banks[1][k]) for k in banks[0])
    assert not np.array_equal(banks[0]["fused"], banks[2]["fused"])
    for key in ("config_echo", "config_hash", "objectives", "split", "ids"):
        assert np.array_equal(banks[0][key], banks[2][key])


def test_extract_views_seed_changes_only_the_images(fungi, tmp_path):
    workload = workloads.ExtractViews()
    a = workload.setup(fungi, 1, str(tmp_path / "a"))
    b = workload.setup(fungi, 2, str(tmp_path / "b"))
    assert open(a["cfg"]).read() == open(b["cfg"]).read()
    for split in ("train", "test"):
        da = fngi.read(os.path.join(a["data"], f"{split}.fngi"))
        db = fngi.read(os.path.join(b["data"], f"{split}.fngi"))
        assert np.array_equal(da["labels"], db["labels"])
        assert not np.array_equal(da["images"], db["images"])


def test_segment_dense_seed_changes_only_the_images(fungi, tmp_path):
    workload = workloads.SegmentDense()
    a = workload.setup(fungi, 1, str(tmp_path / "a"))
    b = workload.setup(fungi, 2, str(tmp_path / "b"))
    assert a["params"].checksum() == b["params"].checksum()
    assert np.array_equal(a["head"].weight.data, b["head"].weight.data)
    assert a["seg_cfg"] == b["seg_cfg"] and a["seeds"] == b["seeds"]
    assert not np.array_equal(a["train_images"][0], b["train_images"][0])


def test_run_exits_nonzero_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    assert run.main(["--workload", "eval-banks.probe", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_lists_the_metrics_the_run_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    reported = run.end_to_end([1.0], 1.0, {"round_s": 1.0, "op_max_s": 1.0, "op_geomean_s": 1.0}, 1.0)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {k: unit for k, (_, unit) in reported.items()}
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(layers.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)


def test_eval_workloads_run_each_command_once_with_one_long_command_each():
    groups = [[c for c, _ in w.commands] for w in workloads.WORKLOADS.values() if w.ref_key == "eval-banks"]
    assert sorted(c for g in groups for c in g) == sorted(workloads.EvalBanks.ARGS)
    assert all(len(set(g) & set(workloads.EvalBanks.HEADLINE)) == 1 for g in groups)


def test_round_times_are_scaled_by_the_calibration():
    cal = calibration.Calibration()
    cal.times = [2 * calibration.REFERENCE_S, 4 * calibration.REFERENCE_S, 3 * calibration.REFERENCE_S]
    assert cal.scale() == pytest.approx(1 / 3)  # a machine at a third of the reference speed
    reported = run.end_to_end([0.5], 1.0, {"round_s": 6.0, "op_max_s": 3.0, "op_geomean_s": 1.5}, cal.scale())
    assert reported["round_ref_s"][0] == pytest.approx(2.0)
    assert reported["op_geomean_ref_s"][0] == pytest.approx(0.5)
    assert reported["setup_s"][0] == pytest.approx(0.5 / 3)


def test_outputs_must_match_an_earlier_run_of_the_same_code(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "STATE_DIR", str(tmp_path))
    workload = workloads.WORKLOADS["eval-banks.probe"]

    def rounds(*digests):
        return [[workloads.Op("cka", 1.0, digest=d)] for d in digests]

    first = rounds("a", "a")
    run.verify(workload, 99, first, {})
    assert all(op.ok for r in first for op in r)
    drifted = rounds("a", "b")  # a later round differs from the first
    run.verify(workload, 99, drifted, {})
    assert drifted[0][0].ok and not drifted[1][0].ok
    changed = rounds("c")  # same code and seed, other bytes than the earlier run
    run.verify(workload, 99, changed, {})
    assert not changed[0][0].ok
