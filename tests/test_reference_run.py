"""The bit contract across commits: two small runs against the committed
reference (``tests/data/reference_run.json``; see ``reference_run.py`` for
the runs and the one command that re-records it).

Cluster ids, each round's selection and cluster count are compared exactly.
Tables, losses and metrics are compared at ``RTOL`` of the largest magnitude
in their array, so a platform whose BLAS rounds differently still passes; the
printed sha256 lines show whether the bytes moved as well.
"""

import json

import numpy as np
import pytest

from reference_run import REFERENCE, RTOL, RUNS, run


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())["runs"]


def _floats(values) -> np.ndarray:
    return np.array([np.nan if v is None else v for v in values], dtype=np.float64)


def assert_close(actual, expected, what: str) -> None:
    actual, expected = np.asarray(actual, dtype=np.float64), np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape, what
    scale = np.nanmax(np.abs(expected), initial=0.0)
    np.testing.assert_allclose(
        actual, expected, rtol=0, atol=RTOL * scale, equal_nan=True, err_msg=what
    )


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_the_reference(name, reference, tmp_path):
    got, ref = run(name, tmp_path), reference[name]
    for artifact, digest in sorted(ref["sha256"].items()):
        same = got["sha256"][artifact] == digest
        print(f"{name}: {artifact} sha256 {'matches' if same else 'DIFFERS'}")

    assert got["clusters"] == ref["clusters"]
    assert len(got["rounds"]) == len(ref["rounds"])
    for a, b in zip(got["rounds"], ref["rounds"]):
        for key in ("round", "selected", "n_clusters"):
            assert a[key] == b[key], f"round {b['round']}: {key}"
    for key in ("train_loss", "val_recall", "val_ndcg"):
        assert_close(
            _floats(r[key] for r in got["rounds"]), _floats(r[key] for r in ref["rounds"]), key
        )
    assert_close(got["pretrain_losses"], ref["pretrain_losses"], "pretrain losses")
    for table in ("pretrained", "checkpoint"):
        for block in ("users", "items"):
            assert_close(got[table][block], ref[table][block], f"{table} {block}")
    for results in ("results", "evaluate"):
        for a, b in zip(got[results], ref[results], strict=True):
            assert a.keys() == b.keys(), results
            assert all(a[k] == b[k] for k in a if k not in ("recall", "ndcg")), results
        for metric in ("recall", "ndcg"):
            assert_close(
                [r[metric] for r in got[results]], [r[metric] for r in ref[results]],
                f"{results} {metric}",
            )
