import json
from pathlib import Path

import numpy as np
from scipy import sparse

from perstrees.data import Dataset
from perstrees.opt import OptConfig, TreeSkeleton, build_cut_menu, build_mip, export_mps
from perstrees.opt.mip import MipModel
from perstrees.opt.mps import names_path

GOLDENS = Path(__file__).parent / "goldens"


def tiny_model():
    inf = float("inf")
    return MipModel(
        c=np.array([1.0, 0.0, 0.25]),
        A=sparse.csc_array(np.array([[1.0, 2.0, 0.0], [1.0, 0.0, -1.0], [0.0, 0.0, 1.0]])),
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
    sk = TreeSkeleton(1)
    menu = build_cut_menu(ds, sk, cfg)
    return build_mip(ds, sk, menu, cfg)


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
        A = model.A.tocoo()
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
