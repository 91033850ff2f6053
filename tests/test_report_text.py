"""The report emitter writes the bytes of `json.dumps(x, indent=2,
sort_keys=True, default=...)`, whose `default` writes a complex128 array as
its [re, im] pairs and any other array as its `tolist()`; that stays here as
its oracle: on the reports of every subcommand, on a synthetic report of
json's edge cases, and on random trees with numpy array leaves."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nogosuper import cli, text


def complex_pairs(a: np.ndarray) -> np.ndarray:
    """Entries in C order as the rows [re, im] of a (k, 2) float array."""
    return np.stack([a.real, a.imag], -1).reshape(-1, 2)


def array_json(a):
    if isinstance(a, np.ndarray) and a.dtype == np.complex128:
        return complex_pairs(a)
    return np.ndarray.tolist(a)  # TypeError for anything but an array


def oracle(x) -> str:
    return json.dumps(x, indent=2, sort_keys=True, default=array_json)


def usd_states(n, dim):
    z = np.random.default_rng(8).standard_normal((n, dim, 2))
    return z.tolist()


@pytest.mark.parametrize("argv", [
    ["verify", "--dim", "3"],
    ["verify", "--dim", "16", "--phase-policy", "canonical_hash"],
    ["demo", "--trials", "1000", "--success-policy", "overlap_scaled"],
    ["usd", "{states}", "--trials", "1000", "--truth-index", "5"],
    ["scan", "--grid-step", "0.1", "--csv", "{csv}"],
])
@pytest.mark.parametrize("deterministic", [True, False])
def test_subcommand_reports_match_json_dumps(argv, deterministic, monkeypatch, tmp_path):
    states = tmp_path / "states.json"
    states.write_text(json.dumps(usd_states(8, 16)))
    argv = [a.format(states=states, csv=tmp_path / "grid.csv") for a in argv]
    emitted = []
    real = cli.json_text

    def spy(x):
        written = real(x)
        emitted.append((x, written))
        return written

    monkeypatch.setattr(cli, "json_text", spy)
    out = tmp_path / "report.json"
    flags = ["--deterministic"] if deterministic else []
    assert cli.main([*argv, *flags, "-o", str(out)]) == 0
    [(report, written)] = emitted
    assert written == oracle(report)
    assert out.read_text() == written + "\n"


EDGE_FLOATS = [-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]


def complex_array(re, im) -> np.ndarray:
    z = np.empty(np.shape(re), np.complex128)
    z.real, z.imag = re, im
    return z


def synthetic_report() -> dict:
    return {
        "scalars": {f"f{i}": x for i, x in enumerate(EDGE_FLOATS)},
        "float_list": EDGE_FLOATS,
        "finite_floats": [-0.0, 5e-324, 1e308, 0.1, -2.5],
        "pairs": [[x, -x] for x in EDGE_FLOATS],
        "finite_pairs": [[-0.0, 5e-324], [1e308, -1e-310]],
        "nested_pairs": [[[0.5, -0.5], [0.0, 1.0]], [[1.0, 2.0]]],
        "empty": [[], {}, [[]], [{}], {"a": []}, {"b": {}}],
        "bool_int_float": [True, 1, 1.0, False, 0, 0.0, None],
        "np_float64": [np.float64(0.1), np.float64(-0.0), np.float64(math.nan)],
        "np_pairs": [[np.float64(0.25), np.float64(-1.5)]],
        "np_scalar": np.float64(1e-300),
        "mixed": [1.0, 2, 3.0],
        "int_pairs": [[1, 2], [3, 4]],
        "short_and_long_pairs": [[1.0], [1.0, 2.0, 3.0]],
        "tuple_pairs": [(1.0, 2.0), (3.0, 4.0)],
        "big_int": 10**40,
        "float_array": np.array(EDGE_FLOATS),
        "pair_array": np.array([[x, -x] for x in EDGE_FLOATS]),
        "complex_arrays": [complex_array(EDGE_FLOATS, EDGE_FLOATS[::-1]),
                           complex_array([[0.5, -1e-5], [2.0, 0.25]], [[-0.0, 1.0], [0.1, 3e-4]]),
                           np.array(0.5 - 2j), np.empty(0, np.complex128),
                           np.empty((2, 0), np.complex128)],
        "arrays_not_slotted": [np.empty(0), np.empty((0, 2)), np.float64(0.5) + np.zeros(()),
                               np.zeros((2, 3)), np.ones(2, np.float32), np.arange(3),
                               np.array([True, False]), np.ones((2, 2))[:, :0]],
        "strings": ["café ψ⟩", "ctl \x00\x1f\x7f\n\t\"\\", "lone \ud800 surrogate",
                    "astral \U0001f600", ""],
        "csv_path": "/tmp/été/grid.csv",
        "é key": 1,
        "": "empty key",
    }


def test_synthetic_report_matches_json_dumps():
    report = synthetic_report()
    assert text.json_text(report) == oracle(report)
    for value in report.values():
        assert text.json_text(value) == oracle(value)


@pytest.mark.parametrize("value", [np.int64(1), np.bool_(True), np.array([1j], np.complex64),
                                   1 + 2j, {1: 2}, {"a": {1, 2}}, [object()]])
def test_non_json_values_raise_type_error(value):
    with pytest.raises(TypeError):
        text.json_text(value)


FLOATS = st.floats(allow_nan=True, allow_infinity=True)
LEAVES = (st.none() | st.booleans() | st.integers() | FLOATS | FLOATS.map(np.float64)
          | st.text()
          | st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4)
          | st.lists(st.lists(FLOATS, min_size=1, max_size=3), max_size=4)
          | hnp.arrays(np.float64, st.sampled_from([(), (0,), (0, 2), (1,), (4,), (1, 2), (3, 2),
                                                    (2, 3)]), elements=FLOATS)
          | hnp.arrays(st.sampled_from([np.float32, np.int64, np.bool_, np.complex128]),
                       hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3)))
TREES = st.recursive(
    LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.tuples(children, children)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(TREES)
def test_random_trees_match_json_dumps(tree):
    assert text.json_text(tree) == oracle(tree)


def test_synthetic_report_through_the_kernel(monkeypatch):
    # at a crossover of 0 every report, even one without list floats, takes
    # one kernel call
    monkeypatch.setattr(text, "_KERNEL_MIN_FLOATS", 0)
    test_synthetic_report_matches_json_dumps()


def test_random_trees_through_the_kernel(monkeypatch):
    monkeypatch.setattr(text, "_KERNEL_MIN_FLOATS", 0)
    test_random_trees_match_json_dumps()


def report_of(count: int) -> dict:
    """A report with `count` array floats: signed values in every decade of
    [1e-4, 1), the edges of that range, zeros, subnormals, large and
    non-finite values, half in a (k,) array and half in a (k, 2) array."""
    rng = np.random.default_rng(count)
    edges = [1e-4, -1e-4, math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0), 1.0, -1.0,
             0.0, -0.0, 5e-324, -2.5e-310, 9.99e-5, 123.25, math.nan, -math.inf]
    values = np.concatenate([edges, rng.choice([-1.0, 1.0], count)
                             * 10.0 ** rng.uniform(-4.5, 0.2, count)])[:count]
    half = count // 4 * 2  # an even count of floats in pairs
    return {"schema": 1, "result": {"elements": values[:half].reshape(-1, 2),
                                    "probabilities": values[half:],
                                    "label": "100% %s %%d", "%": -0.5}}


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_one_kernel_call_from_the_crossover_on(offset, monkeypatch):
    calls = []
    kernel = text._shortest_digits
    monkeypatch.setattr(text, "_shortest_digits", lambda x: calls.append(x.size) or kernel(x))
    count = text._KERNEL_MIN_FLOATS + offset
    report = report_of(count)
    assert text.json_text(report) == oracle(report)
    assert calls == ([] if offset < 0 else [count])
