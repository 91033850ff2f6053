"""The report emitter writes the bytes of `json.dumps(x, indent=2,
sort_keys=True, default=...)`, whose `default` writes a complex128 array as
its [re, im] pairs and any other array as its `tolist()`; that stays here as
its oracle: on the reports of every subcommand, on a synthetic report of
json's edge cases, and on random trees with numpy array leaves. The scan CSV
writer is held to `csv.writer` with `repr` cells, and the digit kernel to
`repr` on any double."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nogosuper import cli, pipeline, text

SQ2 = 1.0 / math.sqrt(2.0)


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
    """A report with `count` array floats that the digit kernel prints,
    signed values in every decade of [1e-4, 1) and the edges of that range,
    and 10 more that it does not: zeros, subnormals, large and non-finite
    values; half in a (k,) array and half in a (k, 2) array."""
    rng = np.random.default_rng(count)
    edges = [1e-4, -1e-4, math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0)]
    outside = [1.0, -1.0, 0.0, -0.0, 5e-324, -2.5e-310, 9.99e-5, 123.25, math.nan, -math.inf]
    inside = rng.choice([-1.0, 1.0], count) * 10.0 ** rng.uniform(-4.0, -1e-9, count)
    values = np.concatenate([edges, outside, inside[:count - len(edges)]])
    half = values.size // 4 * 2  # an even count of floats in pairs
    return {"schema": 1, "result": {"elements": values[:half].reshape(-1, 2),
                                    "probabilities": values[half:],
                                    "label": "100% %s %%d", "%": -0.5}}


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_one_kernel_call_from_the_crossover_on(offset, monkeypatch):
    # the fork counts the floats the kernel prints, not the 10 it does not
    calls = []
    kernel = text._shortest_digits
    monkeypatch.setattr(text, "_shortest_digits", lambda x: calls.append(x.size) or kernel(x))
    count = text._KERNEL_MIN_FLOATS + offset
    report = report_of(count)
    assert text.json_text(report) == oracle(report)
    assert calls == ([] if offset < 0 else [count + 10])


@pytest.mark.parametrize("offset", [0, 2, 1000])
def test_each_out_of_range_double_spelled_once(offset, monkeypatch):
    # a scan's detected thetas repeat, most of them >= 1: from the crossover
    # on, each distinct bit pattern outside [1e-4, 1) is spelled by one
    # `_float_text` call, 0.0 and -0.0 by one each
    calls = []
    spell = text._float_text
    monkeypatch.setattr(text, "_float_text", lambda x: calls.append(x) or spell(x))
    fast = [0.25, -5e-4]
    slow = [0.0, -0.0, 1.0, -2.5, 3 * math.pi / 2, 1e300, 5e-324, math.nan, -math.inf]
    count = text._KERNEL_MIN_FLOATS + offset  # of each
    rng = np.random.default_rng(count)
    values = rng.permutation(np.concatenate([rng.choice(fast, count), rng.choice(slow, count)]))
    report = {"detected_pairs": values.reshape(-1, 2)}
    assert text.json_text(report) == oracle(report)
    bits = values.view(np.int64)
    spelled = np.unique(bits[~np.isin(bits, np.array(fast).view(np.int64))])
    assert sorted(np.array(calls).view(np.int64).tolist()) == spelled.tolist()


def balanced_params():
    return pipeline.standard_params(SQ2, SQ2)


def write_csv_reference(scan, path):
    """The scan CSV through csv.writer, one row per call (reference writer)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["theta21", "theta31", "min_singular_value", "rank"])
        for i, t21 in enumerate(scan.thetas):
            for j, t31 in enumerate(scan.thetas):
                writer.writerow([
                    repr(float(t21)), repr(float(t31)),
                    repr(float(scan.min_singular_values[i, j])),
                    int(scan.ranks[i, j]),
                ])


class TestScanCsv:
    def test_writer_memory_grows_with_the_side_not_the_area(self, tmp_path):
        # the writer holds one block of rows: doubling the side doubles its
        # peak, where holding the whole grid would quadruple it
        peaks = []
        for step in (math.pi / 180.0, math.pi / 360.0):
            scan = pipeline.scan_degeneracy_numeric(balanced_params(), SQ2, SQ2, step)
            tracemalloc.start()
            try:
                text.write_scan_csv(scan, tmp_path / "grid.csv")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2.5 * peaks[0]

    def test_csv_bytes_match_the_reference_writer(self, tmp_path):
        # row 4 mixes rank-1 and rank-2 cells in [1e-4, 1) with plain cells;
        # every cell of row 5 takes the "repr,rank" field (kind -1)
        small = pipeline.ScanResult(
            thetas=0.05 * np.arange(6),
            min_singular_values=np.array(
                [[0.0, 5e-324, 1e-300, 0.5, np.nan, 0.75],
                 [0.1, 0.30000000000000004, 1.0, 0.25, 0.7, np.inf],
                 [2.5e-17, 123456.789, 1e22, 1e-4, 0.015625, 0.3],
                 [np.nextafter(1e-4, 0.0), np.nextafter(1.0, 0.0), 0.5 + 2.0**-17,
                  1e-3, 0.2, 0.6],
                 [0.5, 0.123, 0.25, 1e-3, 0.9, 0.004],
                 [0.5, 1.5, 0.0, 0.25, 2e-5, 1e-3]]),
            ranks=np.array([[2, 2, 2, 3, 2, 3], [3, 3, 3, 3, 3, 3], [2, 3, 3, 3, 3, 3],
                            [3, 3, 3, 3, 3, 3], [2, 3, 1, 3, 2, 3], [2, 3, 3, 1, 3, 2]]),
            detected=np.empty((0, 2)),
        )
        kinds = text._csv_fields(small.min_singular_values, small.ranks)[0]
        assert kinds[4].tolist() == [-1, 3, -1, 1, -1, 1]
        assert (kinds[5] == -1).all()
        # the 1 degree grid has on-grid locus points, sigma about 1e-16, and
        # step 0.1 has 63 rows, not a whole number of blocks
        balanced = pipeline.scan_degeneracy_numeric(balanced_params(), SQ2, SQ2,
                                                    math.pi / 180.0)
        assert balanced.min_singular_values.min() < 1e-4
        real = pipeline.scan_degeneracy_numeric(balanced_params(), SQ2, SQ2, 0.1)
        assert real.thetas.size % text._BLOCK_ROWS != 0
        for scan in (small, balanced, real):
            text.write_scan_csv(scan, tmp_path / "new.csv")
            write_csv_reference(scan, tmp_path / "reference.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def sigma_texts(values):
    """Each value's text from `_csv_fields` at rank 3, the decade prefix and
    digits or the kind -1 text before its rank, and how many cells took the
    `repr` fallback (kind -1)."""
    kinds, fields = text._csv_fields(np.asarray(values, dtype=float), np.full(len(values), 3))
    texts = [field.decode().rpartition(",")[0] if kind == -1
             else text._PREFIXES[kind] + str(field)
             for kind, field in zip(kinds.tolist(), fields)]
    return texts, int(np.count_nonzero(kinds == -1))


def ulp_neighbours(x):
    """x and its neighbours 1 and 2 ulps away on either side."""
    down, up = np.nextafter(x, 0.0), np.nextafter(x, np.inf)
    return np.concatenate([x, down, up, np.nextafter(down, 0.0), np.nextafter(up, np.inf)])


class TestSigmaText:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats() | st.floats(1e-4, 1.0, exclude_max=True),
                    min_size=1, max_size=8))
    def test_equals_repr_for_any_double(self, values):
        assert sigma_texts(values)[0] == [repr(float(v)) for v in values]

    def test_equals_repr_next_to_short_decimals_and_powers(self):
        rng = np.random.default_rng(11)
        # decimals of 1 to 16 significant digits, m * 10**(E + 1 - digits)
        short = np.array([float(f"{m}e{e + 1 - digits}") for digits in range(1, 17)
                          for m, e in zip(rng.integers(10**(digits - 1), 10**digits, 200).tolist(),
                                          rng.integers(-4, 0, 200).tolist())])
        assert short.min() >= 1e-4 and short.max() < 1.0
        powers = np.concatenate([10.0 ** np.arange(-4, 1), 2.0 ** np.arange(-14, 0)])
        values = ulp_neighbours(np.concatenate([short, powers]))
        assert sigma_texts(values)[0] == [repr(x) for x in values.tolist()]

    def test_uniform_values_take_no_fallback(self):
        values = np.random.default_rng(12).uniform(1e-3, 1.0, 10**5)
        texts, fallbacks = sigma_texts(values)
        assert fallbacks == 0
        assert texts == [repr(x) for x in values.tolist()]


def tie_doubles():
    """+-k / 2**17 for odd k, |x| in [0.1, 1): 17 significant digits ending
    in 5, so the 16-digit rounding is an exact tie, both neighbours read
    back and `repr` takes the even one. Random doubles almost never tie."""
    x = np.arange(13109, 2**17, 2) / 2.0**17
    return np.concatenate([x, -x])


def assert_same_lines(got, want):
    """Line by line, so that a failure names a few lines, not a diff of megabytes."""
    got, want = got.splitlines(), want.splitlines()
    wrong = [(g, w) for g, w in zip(got, want) if g != w]
    assert (len(got), wrong[:3], len(wrong)) == (len(want), [], 0)


class TestRoundHalfToEven:
    def test_kernel_digits(self):
        x = tie_doubles()
        assert len(x) == 117_964 and np.abs(x).min() >= 0.1
        kinds, digits = text._shortest_digits(x)
        texts = [head + str(d) for head, d in zip(text._PREFIXES[kinds].tolist(), digits.tolist())]
        assert_same_lines("\n".join(texts), "\n".join(map(repr, x.tolist())))

    def test_json_text(self):
        x = tie_doubles()
        assert_same_lines(text.json_text({"x": x}), json.dumps({"x": x.tolist()}, indent=2))

    def test_scan_csv(self, tmp_path):
        n = 344  # n * n >= 117,964 cells
        sigma = np.resize(tie_doubles(), (n, n))
        scan = pipeline.ScanResult(0.01 * np.arange(n), sigma, np.full((n, n), 3),
                                   np.empty((0, 2)))
        text.write_scan_csv(scan, tmp_path / "new.csv")
        write_csv_reference(scan, tmp_path / "reference.csv")
        assert_same_lines((tmp_path / "new.csv").read_text(),
                          (tmp_path / "reference.csv").read_text())


def signed_texts(values):
    """Each value's text from the report fields, through one kernel call:
    sign-and-decade prefix and digits for |x| in [1e-4, 1), json's text
    otherwise, and how many values took the kernel's digits."""
    with mock.patch.object(text, "_KERNEL_MIN_FLOATS", 0):
        fields = text._float_fields([np.asarray(values)])
    texts = [f"{head}{tail}" for head, tail in zip(fields[::2], fields[1::2])]
    return texts, sum(tail != "" for tail in fields[1::2])


class TestSignedDigits:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats() | st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
                    min_size=1, max_size=8))
    def test_equals_repr_for_any_double(self, values):
        assert signed_texts(values)[0] == list(map(json.dumps, values))

    def test_equals_repr_next_to_powers_and_edges(self):
        powers = np.concatenate([10.0 ** np.arange(-4, 1), 2.0 ** np.arange(-14, 1)])
        near = ulp_neighbours(powers)
        edges = [-0.0, 0.0, 5e-324, -5e-324, 2.0**-1050, -2.0**-1030, 1e-4, -1e-4,
                 math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0)]
        values = [*near.tolist(), *(-near).tolist(), *edges]
        texts, digits = signed_texts(values)
        assert texts == [repr(x) for x in values]
        # every value with |x| in [1e-4, 1) takes the kernel's digits
        assert digits == sum(1e-4 <= abs(x) < 1.0 for x in values)
        assert digits > len(values) // 2

    def test_kernel_digits_carry_the_sign(self):
        values = np.random.default_rng(13).uniform(1e-4, 1.0, 1000)
        kinds, digits = text._shortest_digits(np.concatenate([values, -values]))
        assert (kinds[1000:] == kinds[:1000] + 4).all()
        assert (digits[1000:] == digits[:1000]).all()
        assert [text._PREFIXES[k] + str(d) for k, d in
                zip(kinds.tolist(), digits.tolist())] == [repr(x) for x in
                                                          [*values.tolist(), *(-values).tolist()]]


class TestDigitKernel:
    def test_dekker_products_are_exact(self):
        # y = a * 10**(16 - E) is exact as p + err only if each partial
        # product of the Veltkamp halves is; checked with fractions
        a = np.random.default_rng(41).uniform(1e-4, 1.0, 2000)
        halves = text._veltkamp(a)
        assert np.array_equal(halves[0] + halves[1], a)
        assert np.array_equal(text._SCALE_HI + text._SCALE_LO, text._DECADE_SCALES)
        for s, s_hi, s_lo in zip(text._DECADE_SCALES.tolist(), text._SCALE_HI.tolist(),
                                 text._SCALE_LO.tolist()):
            for x, hi, lo in zip(a.tolist(), *(h.tolist() for h in halves)):
                products = (hi * s_hi, hi * s_lo, lo * s_hi, lo * s_lo)
                assert sum(map(Fraction, products)) == Fraction(x) * Fraction(s)

    def test_values_outside_the_range_get_kind_minus_one(self):
        # the trailing-zero loop would never end on a 0, so a regression must
        # not hang the suite: the calls run in a subprocess under a timeout
        code = ("import numpy as np\n"
                "from nogosuper import text\n"
                "for v in (0.0, -0.0, float('nan'), float('inf'), -float('inf'), 1.0, -1.0,\n"
                "          5e-5, -5e-5):\n"
                "    kinds = text._shortest_digits(np.array([0.5, v]))[0]\n"
                "    if kinds.tolist() != [3, -1]:\n"
                "        raise SystemExit(f'{v!r}: kinds {kinds.tolist()}')\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            os.path.join(os.path.dirname(__file__), os.pardir, "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr + proc.stdout

    def test_out_of_range_placeholder_has_17_digits(self):
        # its digits end in no zero, so the trailing-zero loop makes no pass
        # over the floats outside [1e-4, 1)
        kinds, digits = text._shortest_digits(np.array([0.0, 2.5, math.nan, -math.inf]))
        assert kinds.tolist() == [-1] * 4
        assert [len(str(d)) for d in digits.tolist()] == [17] * 4
        assert (digits % 10 != 0).all()

    def test_empty_input_gives_empty_fields(self):
        kinds, digits = text._shortest_digits(np.empty(0))
        assert kinds.size == digits.size == 0

    def test_any_shape_gives_the_raveled_fields(self):
        x = np.linspace(0.1, 0.9, 12).reshape(3, 4)
        for shaped in (x, x.T):
            kinds, digits = text._shortest_digits(shaped)
            flat_kinds, flat_digits = text._shortest_digits(shaped.ravel())
            assert kinds.shape == digits.shape == (12,)
            assert kinds.tolist() == flat_kinds.tolist()
            assert digits.tolist() == flat_digits.tolist()

    def test_peak_memory_is_a_small_multiple_of_the_input(self):
        # the two outputs and the live temporaries: about 9 input-sized
        # arrays at the peak, where keeping every temporary took 19
        x = np.random.default_rng(14).uniform(1e-4, 1.0, 10**5)
        tracemalloc.start()
        try:
            text._shortest_digits(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * x.nbytes
