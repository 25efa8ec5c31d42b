import json
import math

import numpy as np
import pytest

from pwckit.clustering import (
    CapacityClustering,
    FirstOrderClustering,
    HArray,
    HSequence,
    SecondOrderClustering,
    SpecConfigError,
    capacity_uniform,
    dgff_spec,
    first_linear,
    first_logcorrected,
    load_spec_file,
    parse_preset,
    random_capacity,
    random_first_order,
    random_second_order,
    save_spec_file,
    spec_from_doc,
    zero_spec,
)
from pwckit import analysis, dp, oracle
from pwckit.dp import zeta
from pwckit.sampler import Sampler
from pwckit.tree import LeafSet

from paper import check_monotone, is_nondecreasing, phi

LN2 = math.log(2.0)


def test_hsequence_list_backed():
    h = HSequence([0.0, 1.0, 3.0])
    assert h(2) == 3.0
    assert h.max_age == 2
    assert is_nondecreasing(h)
    with pytest.raises(IndexError):
        h(3)


def test_hsequence_closed_form():
    h = HSequence(lambda k: 0.5 * k)
    assert h.max_age == math.inf
    assert h(1000) == 500.0
    assert is_nondecreasing(h, kmax=100)


def test_harray_domain():
    h = HArray(lambda k, l: k + l)
    assert h(3, 1) == 4.0
    with pytest.raises(ValueError):
        h(2, 2)
    with pytest.raises(ValueError):
        h(1, 3)
    table = HArray([[0, 0], [1.0, 0]])
    assert table(1, 0) == 1.0
    with pytest.raises(IndexError):
        table(2, 0)


def test_harray_dense_array():
    h = HArray(lambda k, l: 10 * k + l)
    arr = h.array(1)
    assert arr.shape == (3, 3)
    assert arr[2, 1] == 21.0
    assert arr[1, 1] == 0.0  # outside l < k


def test_phi_zero():
    assert phi(zero_spec(), LeafSet(3, (0, 5))) == 0.0
    assert phi(zero_spec(), LeafSet(3, ())) == 0.0


def test_phi_first_order_by_hand():
    spec = FirstOrderClustering(HSequence([0.0, 1.0, 10.0]), 100.0)
    # {0,1}: one joint of age 1.
    assert phi(spec, LeafSet(2, (0, 1))) == pytest.approx(101.0)
    # {0,3}: one joint of age 2.
    assert phi(spec, LeafSet(2, (0, 3))) == pytest.approx(110.0)
    # {0,1,2}: joints of ages 1 and 2.
    assert phi(spec, LeafSet(2, (0, 1, 2))) == pytest.approx(111.0)
    assert phi(spec, LeafSet(2, ())) == 0.0


def test_phi_first_order_default_const():
    spec = first_linear(2.0)
    # Default constant is h_n at the working depth.
    assert phi(spec, LeafSet(3, (4,))) == pytest.approx(6.0)
    assert phi(spec, LeafSet(2, (1,))) == pytest.approx(4.0)


def test_phi_second_order_by_hand():
    h = HArray(lambda k, l: 10.0 * k + l)
    spec = SecondOrderClustering(h, 1000.0)
    # {0,1,2} at depth 2: pairs (1,0) x2, (2,0), (2,1), (3,2).
    want = 2 * 10.0 + 20.0 + 21.0 + 32.0 + 1000.0
    assert phi(spec, LeafSet(2, (0, 1, 2))) == pytest.approx(want)


def test_phi_second_order_default_const():
    spec = SecondOrderClustering(HArray(lambda k, l: k + l))
    # Default constant is h[n+1][n]; a singleton pays (n+1, 0) + const.
    n = 2
    assert phi(spec, LeafSet(n, (0,))) == pytest.approx((n + 1) + (2 * n + 1))


def test_phi_capacity():
    spec = capacity_uniform(1.0)
    assert phi(spec, LeafSet(3, (0,))) == pytest.approx(1.0 / 3.0)


def test_dgff_values():
    h = dgff_spec().h
    assert h(10, 5) == pytest.approx(5 * LN2 + 1.5 * math.log(5.0), abs=1e-14)
    assert h(7, 0) == 0.0
    assert h(2, 1) == pytest.approx(LN2, abs=1e-15)


def test_logcorrected_values():
    h = first_logcorrected().h
    assert h(1) == pytest.approx(LN2, abs=1e-15)
    assert h(8) == pytest.approx(8 * LN2 + math.log(8.0), abs=1e-14)


@pytest.mark.parametrize(
    "text,variant",
    [
        ("zero", "first"),
        ("dgff", "second"),
        ("first:logcorrected", "first"),
        ("capacity:uniform", "capacity"),
        ("capacity:uniform:2.5", "capacity"),
    ],
)
def test_parse_preset_variants(text, variant):
    assert parse_preset(text).variant == variant


def test_parse_preset_linear_forms():
    for text in ("first:linear:3ln2", "first:linear3ln2"):
        spec = parse_preset(text)
        assert spec.h(1) == pytest.approx(3 * LN2, abs=1e-15)
    assert parse_preset("first:linear:2.5").h(2) == pytest.approx(5.0)
    assert parse_preset("first:linear:ln2").h(1) == pytest.approx(LN2)


def test_parse_preset_rejects_unknown():
    with pytest.raises(SpecConfigError):
        parse_preset("first:quadratic")
    with pytest.raises(SpecConfigError):
        parse_preset("nosuch")


def test_spec_doc_roundtrip_first(tmp_path):
    spec = FirstOrderClustering(HSequence([0.0, 0.5, 2.0]), 3.0)
    path = tmp_path / "spec.json"
    save_spec_file(spec, path)
    back = load_spec_file(path)
    assert back.variant == "first"
    assert back.h_const == 3.0
    assert [back.h(k) for k in range(3)] == [0.0, 0.5, 2.0]


def test_spec_doc_roundtrip_second_order_table(tmp_path):
    spec = random_second_order(4, np.random.default_rng(3))
    path = tmp_path / "second.json"
    save_spec_file(spec, path)
    back = load_spec_file(path)
    assert back.variant == "second" and back.h_const == spec.h_const
    assert zeta(back, 4, [-1.0, 0.5]).tolist() == zeta(spec, 4, [-1.0, 0.5]).tolist()


def test_spec_doc_roundtrip_preset(tmp_path):
    path = tmp_path / "dgff.json"
    save_spec_file(dgff_spec(), path)
    back = load_spec_file(path)
    assert back.variant == "second"
    assert back.h(10, 5) == dgff_spec().h(10, 5)


def test_spec_doc_errors_name_keys():
    with pytest.raises(SpecConfigError) as e:
        spec_from_doc({"variant": "first"})
    assert "'h'" in str(e.value)
    with pytest.raises(SpecConfigError) as e:
        spec_from_doc({"variant": "warp"})
    assert "'variant'" in str(e.value)
    with pytest.raises(SpecConfigError) as e:
        spec_from_doc({"variant": "first", "h": {"kind": "list", "values": []}})
    assert "values" in str(e.value)


@pytest.mark.parametrize(
    "spec,key",
    [
        (FirstOrderClustering(HSequence([0.0, math.inf])), "'h.values'"),
        (FirstOrderClustering(HSequence([0.0, 1.0]), math.nan), "'h_const'"),
        (CapacityClustering(HSequence([1.0, math.inf])),
         "'conductance.values'"),
        (CapacityClustering(HSequence(lambda l: 1.0)), "'conductance'"),
        (SecondOrderClustering(HArray(lambda k, l: 0.0)), "'h'"),
    ],
    ids=["inf-weight", "nan-const", "inf-conductance", "untagged-conductance",
         "untagged-second"],
)
def test_save_refuses_what_load_refuses(tmp_path, spec, key):
    # The loader's own rules name the key, and the file is left as it was.
    path = tmp_path / "spec.json"
    path.write_text("kept\n")
    with pytest.raises(SpecConfigError) as e:
        save_spec_file(spec, path)
    assert str(e.value).startswith("key %s" % (key,))
    assert path.read_text() == "kept\n"


def test_save_bytes_pinned(tmp_path):
    path = tmp_path / "spec.json"
    cases = [
        (FirstOrderClustering(HSequence([0.0, 0.5, 2.0]), 3.0),
         '{\n  "h": {\n    "kind": "list",\n    "values": [\n      0.0,\n      0.5,'
         '\n      2.0\n    ]\n  },\n  "h_const": 3.0,\n  "variant": "first"\n}\n'),
        (dgff_spec(),
         '{\n  "h": {\n    "kind": "preset",\n    "name": "dgff"\n  },\n'
         '  "h_const": "default",\n  "variant": "second"\n}\n'),
        (CapacityClustering(HSequence([1.0, 2.5])),
         '{\n  "conductance": {\n    "kind": "list",\n    "values": [\n      1.0,'
         '\n      2.5\n    ]\n  },\n  "variant": "capacity"\n}\n'),
    ]
    for spec, text in cases:
        save_spec_file(spec, path)
        assert path.read_text() == text


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(SpecConfigError):
        load_spec_file(path)


def test_describe_survives_json(tmp_path):
    # Every preset's document must serialize and come back equivalent.
    for spec in (zero_spec(), first_linear(1.5), first_logcorrected(),
                 dgff_spec(), capacity_uniform(0.5)):
        doc = json.loads(json.dumps(spec.describe()))
        back = spec_from_doc(doc)
        assert back.variant == spec.variant


DESCRIBE_PINS = [
    (zero_spec(), {"variant": "first", "h_const": None,
     "h": {"kind": "preset", "name": "linear", "c": 0.0}}),
    (parse_preset("first:linear:2"), {"variant": "first", "h_const": None,
     "h": {"kind": "preset", "name": "linear", "c": 2.0}}),
    (parse_preset("first:linear:3ln2"), {"variant": "first", "h_const": None,
     "h": {"kind": "preset", "name": "linear", "c": 2.0794415416798357}}),
    (first_logcorrected(), {"variant": "first", "h_const": None,
     "h": {"kind": "preset", "name": "logcorrected"}}),
    (dgff_spec(), {"variant": "second", "h_const": None,
     "h": {"kind": "preset", "name": "dgff"}}),
    (parse_preset("capacity:uniform"), {"variant": "capacity",
     "conductance": {"kind": "uniform", "value": 1.0}}),
    (parse_preset("capacity:uniform:2.5"), {"variant": "capacity",
     "conductance": {"kind": "uniform", "value": 2.5}}),
    (FirstOrderClustering(HSequence([0.0, 1.5, 3.25]), 4.0),
     {"variant": "first", "h_const": 4.0,
      "h": {"kind": "list", "values": [0.0, 1.5, 3.25]}}),
    (SecondOrderClustering(HArray([[], [0.5], [1.0, 2.0, 7.0], [3.0]])),
     {"variant": "second", "h_const": None,
      "h": {"kind": "table", "values": [[], [0.5], [1.0, 2.0, 7.0], [3.0]]}}),
    (SecondOrderClustering(HArray([[], [0.5]]), 2.0),
     {"variant": "second", "h_const": 2.0, "h": {"kind": "table", "values": [[], [0.5]]}}),
    (CapacityClustering(HSequence([1.0, 0.5])),
     {"variant": "capacity", "conductance": {"kind": "list", "values": [1.0, 0.5]}}),
    (FirstOrderClustering(HSequence(lambda k: 2.0 * k), 1.0),
     {"variant": "first", "h_const": 1.0, "h": {"kind": "function"}}),
    (SecondOrderClustering(HArray(lambda k, l: 1.0 * k)),
     {"variant": "second", "h_const": None, "h": {"kind": "function"}}),
    (CapacityClustering(HSequence(lambda l: 1.0)),
     {"variant": "capacity", "conductance": {"kind": "function"}}),
]


@pytest.mark.parametrize(
    "spec,doc", DESCRIBE_PINS,
    ids=["zero", "linear2", "linear3ln2", "logcorrected", "dgff", "uniform",
         "uniform2.5", "list", "ragged-table", "table-const", "capacity-list",
         "function-first", "function-second", "function-capacity"],
)
def test_describe_pinned(spec, doc):
    got = spec.describe()
    assert got == doc
    assert list(got) == list(doc)  # key order too
    assert json.dumps(got) == json.dumps(doc)  # floats to the bit


def test_monotone_holds_for_valid_first_order():
    spec = FirstOrderClustering(HSequence([0.0, 1.0, 2.0]), 2.0)
    report = check_monotone(spec, depth=2, size_limit=3)
    assert report.ok
    assert report.order_pairs > 0
    assert report.subadditive_pairs > 0


def test_monotone_violation_for_decreasing_weights():
    # h_1 > h_2 makes the sibling pair dearer than the split pair.
    spec = FirstOrderClustering(HSequence([0.0, 5.0, 1.0]), 5.0)
    report = check_monotone(spec, depth=2, size_limit=3)
    assert report.order_violations


def test_subadditivity_violation_for_small_constant():
    # h_const below h_n charges a union more than its parts.
    spec = FirstOrderClustering(HSequence([0.0, 1.0, 4.0]), 0.0)
    report = check_monotone(spec, depth=2, size_limit=3)
    assert report.subadditive_violations


def test_monotone_capacity_always():
    report = check_monotone(capacity_uniform(1.0), depth=2, size_limit=3)
    assert report.ok


def test_random_specs_are_valid():
    rng = np.random.default_rng(0)
    for n in (1, 3):
        s1 = random_first_order(n, rng)
        assert is_nondecreasing(s1.h)
        assert s1.h_const >= s1.h(n)
        s2 = random_second_order(n, rng)
        assert is_nondecreasing(s2.h)
        assert s2.h_const >= s2.h(n + 1, n)
        s3 = random_capacity(n, rng)
        assert all(s3.conductance(l) > 0 for l in range(n))
        profile = s3.profile(n)
        assert profile.depth == n


SEQUENCES = {
    "zero": zero_spec().h,
    "linear": first_linear(2.0).h,
    "linear3ln2": parse_preset("first:linear:3ln2").h,
    "logcorrected": first_logcorrected().h,
    "capacity": capacity_uniform(2.5).conductance,
    "list": HSequence([0.0, 0.5, 2.0, 2.25, 7.0]),
}
ARRAYS = {
    "dgff": dgff_spec().h,
    # row 3 runs past l < k, row 4 stops short at l = 1
    "table": HArray([[], [1.0], [2.0, 3.0], [4.0, 5.0, 6.5, 9.0], [7.0, 8.0]]),
}


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_sequence_array_read_matches_scalar_reads(name):
    h = SEQUENCES[name]
    ks = np.arange(5 if h.max_age < math.inf else 3000)
    got = h(ks)
    assert isinstance(got, np.ndarray) and got.shape == ks.shape
    want = np.array([h(int(k)) for k in ks])
    assert all(isinstance(h(int(k)), float) for k in ks[:5])
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)
    np.testing.assert_array_equal(h.array(len(ks) - 1), got)


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_harray_array_read_matches_scalar_reads(name):
    h = ARRAYS[name]
    n = 2 if h.max_age < math.inf else 60
    k, l = np.tril_indices(n + 2, -1)
    want = np.array([h(int(a), int(b)) for a, b in zip(k, l)])
    np.testing.assert_allclose(h(k, l), want, rtol=1e-15, atol=0)
    arr = h.array(n)
    np.testing.assert_allclose(arr[k, l], want, rtol=1e-15, atol=0)
    assert not np.triu(arr).any()  # l >= k stays zero


def test_array_read_past_the_end_raises():
    with pytest.raises(IndexError):
        SEQUENCES["list"](np.arange(6))
    with pytest.raises(IndexError):
        SEQUENCES["list"].array(5)
    table = ARRAYS["table"]
    with pytest.raises(IndexError):
        table(np.array([3, 5]), np.array([0, 0]))  # row 5 is past the end
    with pytest.raises(IndexError):
        table(np.array([4, 4]), np.array([1, 2]))  # ragged row 4 has no l = 2
    with pytest.raises(IndexError):
        table.array(3)


def test_empty_age_array_reads():
    empty = np.arange(0)
    for h in SEQUENCES.values():
        assert h(empty).shape == (0,)
    for h in ARRAYS.values():
        assert h(empty, empty).shape == (0,)
    spec = spec_from_doc(
        {"variant": "capacity", "conductance": {"kind": "list", "values": [1.0]}}
    )
    assert spec.profile(0).depth == 0
    assert capacity_uniform(2.0).profile(0).depth == 0


def test_harray_closed_form_monotonicity_probe():
    # the default probe reads 4096 rows of the triangle
    assert is_nondecreasing(HArray(lambda k, l: k + l))
    assert not is_nondecreasing(HArray(lambda k, l: k - 2 * l), kmax=5)
    assert not is_nondecreasing(HArray(lambda k, l: 10 * l - k), kmax=5)


# ---------------------------------------------------------------------------
# closed-form reads: the form's float64 array is used as returned

BENCH_PRESETS = ("first:linear:2", "first:linear:3ln2", "first:logcorrected",
                 "dgff", "zero")


@pytest.mark.parametrize("name", BENCH_PRESETS)
def test_closed_form_reads_match_a_filled_copy(name):
    h = parse_preset(name).h
    form = h._fn
    if isinstance(h, HSequence):
        reads = [(5,), (np.arange(4097),), (np.array([7, 0, 3]),)]
    else:
        ls = np.arange(4096)
        k, l = np.tril_indices(40, -1)
        reads = [(9, 4), (5000, ls), (4096, ls[::-1]), (k, l), (ls + 3, ls),
                 (np.array([[9], [12]]), np.array([0, 4, 8]))]
    for ages in reads:
        got = h(*ages)
        want = np.full(np.broadcast_shapes(*map(np.shape, ages)), form(*ages), dtype=float)
        if want.ndim == 0:
            assert type(got) is float and got == float(want)
        else:
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def test_closed_forms_of_other_types_are_expanded():
    ks = np.arange(6)
    for form in (lambda k: 0.0, lambda k: np.float32(1.5) * np.asarray(k, dtype=np.float32),
                 lambda k: 3 * k, lambda k: np.float64(2.0)):
        got = HSequence(form)(ks)
        assert got.dtype == np.float64 and got.shape == ks.shape
        np.testing.assert_array_equal(got, np.asarray(form(ks), dtype=float) + 0 * ks)
        assert type(HSequence(form)(4)) is float
    for form in (lambda k, l: 0.0, lambda k, l: np.asarray(k + l, dtype=np.float32),
                 lambda k, l: k * l):
        got = HArray(form)(10, ks)
        assert got.dtype == np.float64 and got.shape == ks.shape
        np.testing.assert_array_equal(got, np.asarray(form(10, ks), dtype=float) + 0 * ks)
        assert type(HArray(form)(10, 2)) is float


@pytest.mark.parametrize("source", [dgff_spec().h._fn, [[], [1.0], [2.0, 3.0]]])
def test_row_reads_check_every_column(source):
    h = HArray(source)
    for k, l in [(2, np.array([1, 0, -1])), (2, np.array([0, 2, 1])),
                 (2, [1, 2, 0]), (0, np.array([0]))]:
        with pytest.raises(ValueError) as row:
            h(k, l)
        with pytest.raises(ValueError) as broadcast:
            h(np.full(len(l), k), l)
        assert str(row.value) == "ancestor pairs require 0 <= l < k, got (%s, %s)" % (k, l)
        assert "ancestor pairs require 0 <= l < k" in str(broadcast.value)
    assert h(2, np.arange(0)).shape == (0,)


def test_list_refuses_negative_ages():
    h = HSequence([1.0, 2.0, 3.0])
    for ages in (-1, np.array([-1, 0]), np.array([2, 0, -3])):
        with pytest.raises(IndexError, match="no age -"):
            h(ages)
    assert h(np.array([2, 0])).tolist() == [3.0, 1.0]
    conductance = CapacityClustering(HSequence([1.0, 2.0])).conductance
    with pytest.raises(IndexError):
        conductance(-1)


def read_only(form):
    """``form``, returning its arrays read-only."""
    def frozen(*ages):
        out = form(*ages)
        if isinstance(out, np.ndarray):
            out.flags.writeable = False
        return out
    return frozen


def exact(x):
    """``x`` with its arrays as bytes and its floats as hex, for comparing
    results bit for bit."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (list, tuple)):
        return [exact(v) for v in x]
    if isinstance(x, dict):
        return {k: exact(v) for k, v in x.items()}
    if hasattr(x, "__dataclass_fields__"):
        return exact(vars(x))
    return x


def test_no_reader_writes_into_a_weight_array():
    # every reader runs on closed forms whose arrays are read-only, and gives
    # the floats it gives on the presets themselves
    first, second = first_logcorrected(), dgff_spec()
    frozen_first = FirstOrderClustering(HSequence(read_only(first.h._fn)))
    frozen_second = SecondOrderClustering(HArray(read_only(second.h._fn)))
    for spec, frozen in ((first, frozen_first), (second, frozen_second)):
        reads = [
            lambda s: dp._weights(s, 8),
            lambda s: dp.dp_W(s, 6).ln_w,
            lambda s: [Sampler(s, 6, 0.5).sample(np.random.default_rng(3)).leaves
                       for _ in range(5)],
            lambda s: oracle.enum_Z(s, 3, 0.5).ln,
            lambda s: analysis.tail_bound(s, 8),
            lambda s: analysis.estimate_jstar(s, [8, 12], k_max=5000).to_document(),
        ]
        if spec.variant == "first":
            reads += [
                lambda s: dp.dp_W_maxterm(s, 6).ln_w,
                lambda s: analysis.kappa1(s),
                lambda s: analysis.tauberian_first(s).u,
                lambda s: analysis.laplace_first(s, [0.5, 0.01]).diag,
            ]
        else:
            reads += [
                lambda s: analysis.kappa2(s),
                lambda s: analysis.laplace_second(s, [0.5, 0.1]).diag,
            ]
        for read in reads:
            assert exact(read(frozen)) == exact(read(spec))
