"""The loaders' one-call path against the per-line readers.

``load_interactions`` and ``load_checkpoint`` parse text in the canonical
form with one ``np.loadtxt`` call and hand any other text to their per-line
reader. On any text they must give what the reference loaders in
``helpers`` (the per-line readers alone) give: equal arrays, bit for bit, or
the same ``DataError`` message. The files fedrec writes itself must take the
one-call path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedrec import data, gnn
from fedrec.data import load_interactions, write_interactions
from fedrec.errors import DataError
from fedrec.gnn import load_checkpoint, save_checkpoint
from fedrec.synthetic import main as synthetic_main
from helpers import loop_load_checkpoint, loop_load_interactions, random_table


def outcome(load, path):
    """``("ok", result)`` or ``("error", message)`` for one load."""
    try:
        return "ok", load(path)
    except DataError as exc:
        return "error", str(exc)


def assert_same_interactions(path):
    got = outcome(load_interactions, path)
    want = outcome(loop_load_interactions, path)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        ds, ref = got[1], want[1]
        assert (ds.n_users, ds.n_items) == (ref.n_users, ref.n_items)
        assert ds.interactions.dtype == ref.interactions.dtype
        np.testing.assert_array_equal(ds.interactions, ref.interactions)


def bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def assert_same_checkpoint(path):
    got = outcome(load_checkpoint, path)
    want = outcome(loop_load_checkpoint, path)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
    else:
        (table, flags), (ref, ref_flags) = got[1], want[1]
        assert table.users.shape == ref.users.shape
        assert table.items.shape == ref.items.shape
        assert bits(table.users) == bits(ref.users)
        assert bits(table.items) == bits(ref.items)
        assert flags == ref_flags


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("input_paths")


def write(path, text: str):
    # bytes, so the file holds exactly ``text`` on every platform
    path.write_bytes(text.encode("utf-8"))
    return path


# ---------------------------------------------------------------- corpus

INTERACTION_FIELDS = {
    "plus-sign": "+5",
    "leading-space": " 5",
    "underscore": "1_000",
    "leading-zeros": "007",
    "arabic-indic-digit": "٣",
    "decimal": "5.0",
    "two-to-the-63-minus-1": str(2**63 - 1),
    "two-to-the-63": str(2**63),
    "two-to-the-70": str(2**70),
    "minus-zero": "-0",
    "eighteen-digits": "9" * 18,
    "nineteen-digits-with-zeros": "0" * 18 + "7",
}


@pytest.mark.parametrize("column", [0, 1, 2])
@pytest.mark.parametrize(
    "field", list(INTERACTION_FIELDS.values()), ids=list(INTERACTION_FIELDS)
)
def test_interaction_field_corpus(scratch, field, column):
    row = ["4", "2", "9"]
    row[column] = field
    text = "1\t2\t3\n" + "\t".join(row) + "\n7\t2\t5\n"
    assert_same_interactions(write(scratch / "field.tsv", text))


INTERACTION_FILES = {
    "no-trailing-newline": "1\t2\t3\n4\t5\t6",
    "mid-line-comment": "1\t2\t3 # x\n4\t5\t6\n",
    "comment-line": "# x\n1\t2\t3\n",
    "blank-line": "1\t2\t3\n\n4\t5\t6\n",
    "crlf": "1\t2\t3\r\n4\t5\t6\r\n",
    "two-trailing-newlines": "1\t2\t3\n\n",
    "double-tab": "1\t\t2\t3\n",
    "two-fields": "1\t2\n",
    "four-fields": "1\t2\t3\t4\n",
    "form-feed": "1\t2\t3\x0c\n",
    "empty": "",
    "only-newline": "\n",
}


@pytest.mark.parametrize(
    "text", list(INTERACTION_FILES.values()), ids=list(INTERACTION_FILES)
)
def test_interaction_file_corpus(scratch, text):
    assert_same_interactions(write(scratch / "file.tsv", text))


CHECKPOINTS = {
    "plain": "2 1 1\n1.5 -2.0\n3e-5 -0.0\n",
    "no-trailing-newline": "2 1 1\n1.5 -2.0\n3e-5 4E+2",
    "extra-spaces": "2 1 1\n  1.5   -2.0  \n+3. .5\n",
    "blank-row-inside": "2 2 1\n1.0 2.0\n\n3.0 4.0\n",
    "spaces-only-row": "2 1 1\n1.0 2.0\n   \n",
    "blank-last-row": "2 1 1\n1.0 2.0\n\n",
    "tab-separators": "2 1 1\n1.0\t2.0\n3.0\t4.0\n",
    "underscore": "2 1 1\n1_0.5 2.0\n3.0 4.0\n",
    "nan": "2 1 1\nnan 2.0\n3.0 4.0\n",
    "inf": "2 1 1\n1.0 inf\n3.0 4.0\n",
    "overflow-to-inf": "2 1 1\n1e400 2.0\n3.0 4.0\n",
    "ragged": "2 1 1\n1.0 2.0\n3.0\n",
    "all-rows-too-narrow": "3 1 1\n1.0 2.0\n3.0 4.0\n",
    "form-feed-row": "2 1 1\n1.0\x0c2.0\n3.0 4.0\n",
    "bad-token": "2 1 1\n1.0 1e\n3.0 4.0\n",
    "sign-only": "2 1 1\n1.0 -\n3.0 4.0\n",
    "hash": "2 1 1\n1.0 2.0 # x\n3.0 4.0\n",
    "no-rows": "2 0 0\n",
    "flags": "1 1 0 pretrained=true a=b=c bare\n0.25\n",
}


@pytest.mark.parametrize("text", list(CHECKPOINTS.values()), ids=list(CHECKPOINTS))
def test_checkpoint_corpus(scratch, text):
    assert_same_checkpoint(write(scratch / "ckpt.txt", text))


# ------------------------------------------------------------ hypothesis

ALPHABET = "0123456789\t\n#+- _.e"
digit_runs = st.text("0123456789", min_size=1, max_size=24)
noise = st.text(ALPHABET, max_size=6)
interaction_fields = st.one_of(
    st.integers(0, 2**70).map(str), digit_runs, noise
)
# weighted towards the canonical form, so both paths run often
interaction_lines = st.one_of(
    st.tuples(*[st.integers(0, 10**18 - 1).map(str)] * 3).map("\t".join),
    st.tuples(*[st.integers(0, 10**18 - 1).map(str)] * 3).map("\t".join),
    st.lists(interaction_fields, min_size=3, max_size=3).map("\t".join),
    st.lists(interaction_fields, min_size=1, max_size=4).map("\t".join),
    noise,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(interaction_lines, max_size=6), st.booleans())
def test_interactions_match_the_per_line_reader(scratch, lines, trailing):
    text = "\n".join(lines) + ("\n" if trailing and lines else "")
    assert_same_interactions(write(scratch / "hyp.tsv", text))


float_tokens = st.one_of(
    *[st.floats(allow_nan=False, allow_infinity=False).map(repr)] * 3,
    st.text("0123456789.eE+-_", min_size=1, max_size=6),
    digit_runs,
)
separators = st.sampled_from([" ", " ", "  ", "\t", " \t"])


@st.composite
def checkpoint_texts(draw):
    dim = draw(st.integers(1, 3))
    n_users, n_items = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    off_by_one = st.sampled_from([0] * 8 + [-1, 1])
    n_rows = n_users + n_items + draw(off_by_one)
    rows = []
    for _ in range(max(n_rows, 0)):
        width = dim + draw(off_by_one)
        width = max(width, 0)
        tokens = draw(st.lists(float_tokens, min_size=width, max_size=width))
        row = draw(separators).join(tokens)
        kind = draw(st.integers(0, 19))
        if kind == 0:
            row = draw(st.text(ALPHABET.replace("\n", "") + "E", max_size=8))
        elif kind == 1:
            row = draw(st.sampled_from(["", " ", "  "]))
        rows.append(draw(st.sampled_from(["", " "])) + row)
    head = f"{dim} {n_users} {n_items}"
    head += draw(st.sampled_from(["", " pretrained=true"]))
    return "\n".join([head, *rows]) + draw(st.sampled_from(["\n", ""]))


@settings(max_examples=300, deadline=None)
@given(checkpoint_texts())
def test_checkpoints_match_the_per_row_reader(scratch, text):
    assert_same_checkpoint(write(scratch / "hyp.txt", text))


# ------------------------------------------- what fedrec writes: one call


@pytest.fixture
def no_per_line_readers(monkeypatch):
    """Make both per-line readers raise, so a load that falls back fails."""

    def refuse(*_args):
        raise AssertionError("the per-line reader ran on a file fedrec wrote")

    monkeypatch.setattr(data, "_read_lines", refuse)
    monkeypatch.setattr(gnn, "_read_rows", refuse)


def test_written_interactions_take_the_one_call_path(
    tmp_path, small_dataset, no_per_line_readers
):
    path = tmp_path / "written.tsv"
    write_interactions(small_dataset, path)
    loaded = load_interactions(path)
    assert len(loaded.interactions) == len(small_dataset.interactions)
    ref = loop_load_interactions(path)
    np.testing.assert_array_equal(loaded.interactions, ref.interactions)


def test_synthetic_file_takes_the_one_call_path(tmp_path, no_per_line_readers):
    # the entry point of `python -m fedrec.synthetic`
    path = tmp_path / "synthetic.tsv"
    args = [str(path), "--users", "40", "--items", "20", "--per-user", "8", "--seed", "3"]
    assert synthetic_main(args) == 0
    loaded = load_interactions(path)
    assert len(loaded.interactions) == 40 * 8
    ref = loop_load_interactions(path)
    np.testing.assert_array_equal(loaded.interactions, ref.interactions)


@pytest.mark.parametrize("pretrained", [False, True])
def test_saved_checkpoint_takes_the_one_call_path(
    tmp_path, rng, pretrained, no_per_line_readers
):
    table = random_table(rng, 5, 7, 4, scale=10.0)
    table.users[0, 0] = -0.0
    table.items[1, 2] = 5e-324
    path = tmp_path / "ckpt.txt"
    save_checkpoint(table, path, pretrained=pretrained)
    loaded, flags = load_checkpoint(path)
    assert bits(loaded.users) == bits(table.users)
    assert bits(loaded.items) == bits(table.items)
    assert flags == ({"pretrained": "true"} if pretrained else {})
