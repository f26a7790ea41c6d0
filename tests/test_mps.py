import json
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import oracles
from helpers import random_dataset, to_scipy
from perstrees.data import Dataset
from perstrees.opt import (
    OptConfig,
    TreeAssignment,
    build_cut_menu,
    build_mip,
    export_mps,
    mip,
    mps,
    solution_from_assignment,
)
from perstrees.opt.mip import CscMatrix, MipModel
from perstrees.opt.mps import names_path

GOLDENS = Path(__file__).parent / "goldens"


def csc(dense):
    """CscMatrix of a dense array, by way of scipy."""
    A = sparse.csc_array(np.asarray(dense, dtype=float))
    return CscMatrix(data=A.data, indices=A.indices, indptr=A.indptr, shape=A.shape)


def tiny_model():
    inf = float("inf")
    return MipModel(
        c=np.array([1.0, 0.0, 0.25]),
        A=csc([[1.0, 2.0, 0.0], [1.0, 0.0, -1.0], [0.0, 0.0, 1.0]]),
        row_lo=np.array([-inf, 0.0, -0.5]),  # cap <=, link =, floor >=
        row_hi=np.array([3.0, 0.0, inf]),
        lower=np.array([0.0, 0.0, -1.0]),
        upper=np.array([2.5, 1.0, inf]),
        binary=np.array([False, True, False]),
        col_blocks=((("x", "b", "y"), ()),),
        row_blocks=((("cap", "link", "floor"), ()),),
    )


def senses_and_rhs(model):
    """Each row's MPS sense tag and right-hand side, from its bounds."""
    out = []
    for lo, hi in zip(model.row_lo, model.row_hi):
        if lo == hi:
            out.append(("E", hi))
        elif lo == -np.inf:
            out.append(("L", hi))
        else:
            out.append(("G", lo))
    return out


def six_subject_model():
    ds = Dataset(
        X=np.arange(1.0, 7.0)[:, None],
        T=np.array([1, 2, 1, 2, 1, 2]),
        Y=np.array([0.0, 1.0, 10.0, 3.0, 4.0, 2.0]),
        m=2,
    )
    cfg = OptConfig(delta=1, n_min_leaf=1, n_cuts=2)
    menu = build_cut_menu(ds, cfg)
    return build_mip(ds, menu, cfg)


def parse_fixed_mps(text):
    """Minimal fixed-format reader used to audit the writer.

    Fields are taken from their fixed character ranges, not by
    whitespace splitting, so any misaligned output fails loudly.
    """
    senses = {}
    coeffs = {}
    rhs = {}
    bounds = []
    binaries = set()
    section = None
    for line in text.splitlines():
        if not line.startswith(" "):
            section = line.split()[0]
            continue
        f1 = line[1:3].strip()
        f2 = line[4:12].strip()
        f3 = line[14:22].strip()
        f4 = line[24:36].strip()
        f5 = line[39:47].strip()
        if section == "ROWS":
            if f1 != "N":
                senses[f2] = f1
        elif section == "COLUMNS":
            if f3 == "'MARKER'":
                assert f5 in ("'INTORG'", "'INTEND'")
                bounds.append(f5)
                continue
            coeffs.setdefault(f2, {})[f3] = float(f4)
        elif section == "RHS":
            rhs[f3] = float(f4)
        elif section == "BOUNDS":
            if f1 == "BV":
                binaries.add(f3)
    return senses, coeffs, rhs, bounds, binaries


class TestGoldens:
    def test_tiny_bytes(self, tmp_path):
        export_mps(tiny_model(), tmp_path / "tiny.mps", name="TINY")
        for fname in ("tiny.mps", "tiny.names.json"):
            assert (tmp_path / fname).read_bytes() == (GOLDENS / fname).read_bytes()

    def test_six_subject_bytes(self, tmp_path):
        export_mps(six_subject_model(), tmp_path / "six.mps")
        for fname in ("six.mps", "six.names.json"):
            assert (tmp_path / fname).read_bytes() == (GOLDENS / fname).read_bytes()


class TestFormat:
    def test_names_path(self):
        assert names_path("a/b/model.mps") == "a/b/model.names.json"
        assert names_path("model") == "model.names.json"

    def test_repeat_export_is_identical(self, tmp_path):
        model = six_subject_model()
        export_mps(model, tmp_path / "a.mps")
        export_mps(model, tmp_path / "b.mps")
        assert (tmp_path / "a.mps").read_bytes() == (tmp_path / "b.mps").read_bytes()

    def test_sections_in_order(self):
        text = (GOLDENS / "six.mps").read_text()
        heads = [l for l in text.splitlines() if not l.startswith(" ")]
        assert heads[0].startswith("NAME")
        assert heads[1:] == ["ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"]

    def test_ascii_newlines(self):
        raw = (GOLDENS / "six.mps").read_bytes()
        raw.decode("ascii")
        assert b"\r" not in raw

    def test_name_lengths_fit_fixed_fields(self):
        text = (GOLDENS / "six.mps").read_text()
        for line in text.splitlines():
            if line.startswith(" "):
                assert len(line[4:12].rstrip()) <= 8
                assert len(line[14:22].rstrip()) <= 8

    def test_markers_pair_up(self):
        model = six_subject_model()
        text = (GOLDENS / "six.mps").read_text()
        *_, markers, binaries = parse_fixed_mps(text)
        assert len(markers) % 2 == 0
        assert markers[::2] == ["'INTORG'"] * (len(markers) // 2)
        assert markers[1::2] == ["'INTEND'"] * (len(markers) // 2)
        assert len(binaries) == model.n_binary

    def test_zero_rhs_rows_are_omitted(self):
        model = six_subject_model()
        _, _, rhs, _, _ = parse_fixed_mps((GOLDENS / "six.mps").read_text())
        assert len(rhs) == sum(1 for _, value in senses_and_rhs(model) if value != 0.0)


class TestRoundTrip:
    def test_reparse_recovers_the_model(self, tmp_path):
        model = six_subject_model()
        path = tmp_path / "model.mps"
        export_mps(model, path)
        names = json.loads(Path(names_path(path)).read_text())
        senses, coeffs, rhs, _, binaries = parse_fixed_mps(path.read_text())
        row_tag = {orig: tag for tag, orig in names["rows"].items()}
        col_tag = {orig: tag for tag, orig in names["columns"].items()}

        rows, cols = model.constraints, model.variables
        for r, (sense, value) in enumerate(senses_and_rhs(model)):
            tag = row_tag[rows[r]]
            assert senses[tag] == sense
            assert rhs.get(tag, 0.0) == value
        A = to_scipy(model.A).tocoo()
        for r, j, coef in zip(A.row, A.col, A.data):
            assert coeffs[col_tag[cols[j]]][row_tag[rows[r]]] == coef

        obj = {
            names["columns"][ctag]: col[names["objective"]]
            for ctag, col in coeffs.items()
            if names["objective"] in col
        }
        assert obj == {cols[j]: model.c[j] for j in np.flatnonzero(model.c)}

        for j, name in enumerate(cols):
            assert (col_tag[name] in binaries) == model.binary[j]

    def test_every_model_name_is_mapped(self, tmp_path):
        model = six_subject_model()
        path = tmp_path / "model.mps"
        export_mps(model, path)
        names = json.loads(Path(names_path(path)).read_text())
        assert sorted(names["rows"].values()) == sorted(model.constraints)
        assert sorted(names["columns"].values()) == sorted(model.variables)

    def test_names_are_made_once_per_model(self):
        model = six_subject_model()
        assert model.variables is model.variables
        assert model.constraints is model.constraints


def hand_model(c, dense, row_lo, row_hi, lower, upper, binary, col_names=None):
    """A MipModel from dense arrays, its columns x0, x1, ... and rows
    r0, r1, ... unless names are given."""
    n_rows, n_cols = np.shape(dense)
    return MipModel(
        c=np.array(c, dtype=float),
        A=csc(np.reshape(dense, (n_rows, n_cols))),
        row_lo=np.array(row_lo, dtype=float),
        row_hi=np.array(row_hi, dtype=float),
        lower=np.array(lower, dtype=float),
        upper=np.array(upper, dtype=float),
        binary=np.array(binary, dtype=bool),
        col_blocks=(((col_names or "x{0}",), (range(n_cols),)),),
        row_blocks=((("r{0}",), (range(n_rows),)),),
    )


INF = float("inf")
HAND_MODELS = {
    "signed_zeros": lambda: hand_model(
        [-0.0, 1.0, 0.0], [[1.0, -0.0, 2.0], [0.0, 3.0, -1.0]],
        [-0.0, -INF], [INF, -0.0], [-0.0, 0.0, 1.0], [-0.0, INF, 2.0], [False] * 3),
    "lo_up_bounds": lambda: hand_model(
        [1.0, -2.5, 0.0, 4.0], [[1.0, 1.0, 1.0, 1.0], [0.0, 2.0, 0.0, -3.0]],
        [1.0, 2.0], [1.0, INF], [-1.0, 0.5, -INF, 3.0], [2.0, 0.5, 7.25, INF], [False] * 4),
    "empty_column": lambda: hand_model(
        [1.0, 0.0, 1.0], [[1.0, 0.0, 2.0], [1.0, 0.0, 0.0]],
        [-INF, 0.0], [4.0, 0.0], [0.0] * 3, [1.0] * 3, [False, False, True]),
    "objective_without_entries": lambda: hand_model(
        [0.5, 3.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
        [1.0, -INF], [INF, 2.0], [0.0] * 3, [INF] * 3, [False, True, False]),
    "binary_at_both_ends": lambda: hand_model(
        [1.0, 2.0, 0.0, 1.0, 0.0], np.arange(1.0, 11.0).reshape(2, 5),
        [0.0, 1.0], [1.0, 1.0], [0.0] * 5, [1.0] * 5, [True, False, True, True, True]),
    "all_binary": lambda: hand_model(
        [1.0, 1.0], [[1.0, 1.0]], [1.0], [1.0], [0.0, 0.0], [1.0, 1.0], [True, True]),
    "seventeen_digits": lambda: hand_model(
        [0.1 + 0.2, 1 / 3], [[0.1 + 0.2, 1e-300], [5e-324, -1.7976931348623157e308]],
        [0.1 + 0.2, -INF], [INF, 2 / 3], [1e16, 0.0], [1.2345678901234567e17, 1e-7],
        [False, False]),
    "escaped_names": lambda: hand_model(
        [1.0, 0.0], [[1.0, 2.0]], [-INF], [3.0], [0.0, 0.0], [1.0, INF], [False, False],
        col_names='q"{0}\\\té'),
    "no_rows": lambda: hand_model(
        [1.0, -1.0], np.zeros((0, 2)), [], [], [0.0, 0.0], [1.0, 1.0], [True, False]),
    "no_columns": lambda: hand_model([], np.zeros((2, 0)), [0.0, 1.0], [0.0, INF], [], [], []),
}


def mip_parts(delta, seed, n_cuts):
    """Dataset, menu and config of a small random instance."""
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, 12 * 2**delta, 3, 2 + seed % 2, all_arms=True)
    cfg = OptConfig(delta=delta, n_min_leaf=1, n_cuts=n_cuts, seed=seed)
    return ds, build_cut_menu(ds, cfg), cfg


def mip_instance(delta, seed, n_cuts):
    ds, menu, cfg = mip_parts(delta, seed, n_cuts)
    return build_mip(ds, menu, cfg)


MODELS = {
    "tiny": tiny_model,
    "six": six_subject_model,
    **HAND_MODELS,
    **{f"mip_d{delta}_s{seed}": (lambda d=delta, s=seed: mip_instance(d, s, (2, 3, 7)[s]))
       for delta in (1, 2, 3) for seed in (0, 1, 2)},
}


class TestAgainstReference:
    """The columnar writer against the line-at-a-time one in
    tests/oracles.py: the same .mps and .names.json bytes."""

    @staticmethod
    def assert_same_bytes(model, tmp_path):
        export_mps(model, tmp_path / "new.mps", name="CASE")
        oracles.export_mps(model, tmp_path / "old.mps", name="CASE")
        for suffix in (".mps", ".names.json"):
            new = (tmp_path / f"new{suffix}").read_bytes()
            assert new == (tmp_path / f"old{suffix}").read_bytes(), suffix

    @pytest.mark.parametrize("chunk", [None, 3], ids=["default_chunk", "chunk_3"])
    @pytest.mark.parametrize("case", sorted(MODELS))
    def test_same_bytes(self, case, chunk, tmp_path, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(mps, "_CHUNK", chunk)
        self.assert_same_bytes(MODELS[case](), tmp_path)

    def test_same_bytes_across_default_chunks(self, tmp_path):
        # a 300-row depth-two model of the benchmark's kind: several
        # default-sized chunks and long runs of one coefficient
        from perstrees.data import generate_synthetic
        from perstrees.experiment import synthetic_spec_from_doc

        ds = generate_synthetic(synthetic_spec_from_doc(
            {"preset": "warfarin-like", "n": 300, "seed": 2}))
        cfg = OptConfig(delta=2)
        model = build_mip(ds, build_cut_menu(ds, cfg), cfg)
        assert model.A.data.size > 3 * mps._CHUNK
        self.assert_same_bytes(model, tmp_path)


INSTANCES = [(delta, seed, n_cuts) for delta in (1, 2, 3) for seed, n_cuts in ((0, 2), (1, 5))]


def bits(values):
    return [float(v).hex() for v in values]


class TestCscArrays:
    """build_mip's CSC arrays and their product, against scipy.sparse."""

    @staticmethod
    def build_with_entries(monkeypatch, build):
        """The model build() makes, and the (row, col, value) entries
        build_mip handed to the CSC conversion, with the shape."""
        seen = []
        real = mip._csc

        def spy(entries, shape):
            key, value = (np.concatenate(part) for part in zip(*entries))
            seen.append((key % shape[0], key // shape[0], value, shape))
            return real(entries, shape)

        monkeypatch.setattr(mip, "_csc", spy)
        model = build()
        [(rows, cols, values, shape)] = seen
        return model, rows, cols, values, shape

    @pytest.mark.parametrize("build", [six_subject_model] + [
        (lambda d=d, s=s, k=k: mip_instance(d, s, k)) for d, s, k in INSTANCES
    ], ids=["six"] + [f"d{d}_s{s}_cuts{k}" for d, s, k in INSTANCES])
    def test_build_mip_arrays_equal_scipy(self, monkeypatch, build):
        model, rows, cols, values, shape = self.build_with_entries(monkeypatch, build)
        ref = sparse.csc_array((values, (rows, cols)), shape=shape)
        assert ref.nnz == values.size  # no position twice: scipy would have summed them
        assert model.A.shape == ref.shape
        assert np.array_equal(model.A.indptr, ref.indptr)
        assert np.array_equal(model.A.indices, ref.indices)
        assert model.A.indices.dtype == np.int32  # array_equal ignores the dtype
        assert model.A.data.tobytes() == ref.data.tobytes()
        assert np.all(model.A.data != 0.0)

    def test_shuffled_pieces_sort_like_scipy(self):
        rng = np.random.default_rng(4)
        shape = (37, 23)
        key = rng.choice(shape[0] * shape[1], size=300, replace=False)
        value = rng.normal(size=key.size)
        cuts = np.sort(rng.choice(np.arange(1, key.size), size=6, replace=False))
        pieces = list(zip(np.split(key, cuts), np.split(value, cuts)))
        A = mip._csc(pieces, shape)
        ref = sparse.csc_array((value, (key % shape[0], key // shape[0])), shape=shape)
        assert pieces == []
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        assert A.indices.dtype == np.int32
        assert A.data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("shape, chunk", [
        ((37, 23), 7),  # packed 32-bit order, several chunks
        ((70_000, 40_000), 1 << 20),  # keys past 31 bits: a 64-bit argsort
        ((70_000, 40_000), 7),
    ], ids=["packed", "wide", "wide-chunked"])
    def test_each_sort_path_sorts_like_scipy(self, monkeypatch, shape, chunk):
        monkeypatch.setattr(mip, "_CSC_CHUNK", chunk)
        rng = np.random.default_rng(5)
        key = rng.choice(shape[0] * shape[1], size=300, replace=False)
        value = rng.normal(size=key.size)
        cuts = np.sort(rng.choice(np.arange(1, key.size), size=6, replace=False))
        pieces = list(zip(np.split(key, cuts), np.split(value, cuts)))
        A = mip._csc(pieces, shape)
        ref = sparse.csc_array((value, (key % shape[0], key // shape[0])), shape=shape)
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        assert A.data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize("delta, seed, n_cuts", INSTANCES[:4])
    def test_product_equals_scipy(self, delta, seed, n_cuts):
        ds, menu, cfg = mip_parts(delta, seed, n_cuts)
        model = build_mip(ds, menu, cfg)
        ref = to_scipy(model.A)
        vectors = []
        for k in range(3):
            cuts = tuple(options[k % len(options)] for options in menu.cuts)
            treatments = tuple(1 + (k + leaf) % ds.m for leaf in range(len(menu.cuts) + 1))
            values = solution_from_assignment(ds, menu, TreeAssignment(cuts, treatments))
            vectors.append(mip._vector(model, values)[0])
        rng = np.random.default_rng(seed)
        n_cols = model.A.shape[1]
        for scale in (1.0, 1e-3, 1e12):
            vectors.append(rng.normal(scale=scale, size=n_cols))
        odd = rng.normal(size=n_cols)
        odd[rng.choice(n_cols, size=6, replace=False)] = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324]
        vectors.append(odd)
        for x in vectors:
            assert bits(model.A @ x) == bits(ref @ x)

    def test_product_of_the_goldens(self):
        for model in (tiny_model(), six_subject_model()):
            x = np.linspace(-1.0, 2.0, model.A.shape[1]) / 3.0
            assert bits(model.A @ x) == bits(to_scipy(model.A) @ x)
