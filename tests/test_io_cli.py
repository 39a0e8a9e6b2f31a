import json
from fractions import Fraction

import pytest

from rankone.cli import main
from rankone.errors import InputError
from rankone.io import (
    parse_rational,
    tensor_from_document,
    tensor_to_document,
)
from rankone.tensor import PartialTensor

from .test_completability import (
    doubled_corner_tensor,
    long_cycle_tensor,
    path_tensor,
)


def doc_field_dependence():
    return {
        "dims": [2, 2, 2],
        "entries": [
            {"index": [1, 1, 2], "value": "1"},
            {"index": [1, 2, 1], "value": "1"},
            {"index": [2, 1, 1], "value": "1"},
            {"index": [2, 2, 2], "value": "-1"},
        ],
    }


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    assert parse_rational(5) == Fraction(5)
    for bad in ["x", "1/0", None, 1.5, True]:
        with pytest.raises(InputError):
            parse_rational(bad)


def test_roundtrip():
    t = PartialTensor.from_entries(
        (2, 3), {(1, 2): Fraction(1, 3), (2, 3): Fraction(-7)}
    )
    doc = tensor_to_document(t, name="demo")
    again = tensor_from_document(json.loads(json.dumps(doc)))
    assert again.domain.dims == t.domain.dims
    assert again.entries == t.entries
    assert tensor_to_document(again, name="demo") == doc


def test_document_validation():
    with pytest.raises(InputError):
        tensor_from_document({"dims": [1, 2], "entries": []})
    with pytest.raises(InputError):
        tensor_from_document({"dims": [2, 2], "entries": [{"index": [3, 1], "value": "1"}]})
    with pytest.raises(InputError):
        tensor_from_document(
            {
                "dims": [2, 2],
                "entries": [
                    {"index": [1, 1], "value": "1"},
                    {"index": [1, 1], "value": "2"},
                ],
            }
        )
    with pytest.raises(InputError):
        tensor_from_document({"dims": [2, 2], "entries": [{"index": [1, 1], "value": "a"}]})


def write_doc(tmp_path, doc, name="t.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_check_exit_codes(tmp_path, capsys):
    path = write_doc(tmp_path, doc_field_dependence())
    code = main(["check", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["complex_completable"] is True
    assert out["real_completable"] is False
    assert out["saturation_index"] == 2

    bad = {
        "dims": [2, 2],
        "entries": [
            {"index": [1, 1], "value": "1"},
            {"index": [1, 2], "value": "2"},
            {"index": [2, 1], "value": "3"},
            {"index": [2, 2], "value": "5"},
        ],
    }
    path = write_doc(tmp_path, bad)
    code = main(["check", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["failing_circuit"]["vector"] == [1, -1, -1, 1]

    code = main(["check", str(tmp_path / "missing.json")])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["error"]["code"] == "bad-file"


def test_cli_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["check", str(path)])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["error"]["code"] == "bad-json"


def test_cli_complete(tmp_path, capsys):
    doc = {
        "dims": [2, 2],
        "entries": [
            {"index": [1, 1], "value": "2"},
            {"index": [1, 2], "value": "3"},
            {"index": [2, 1], "value": "4"},
        ],
    }
    path = write_doc(tmp_path, doc)
    code = main(["complete", path, "--digits", "6", "--all"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["count"] == 1
    val = out["completions"][0]["values"]["2,2"]
    assert val["exact"] == "6"
    assert val["decimal"] == "6.000000"
    assert out["completions"][0]["witness"]["1,1"]["exact"] == "2"

    code = main(["complete", path, "--field", "complex-count"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["complex_preimage_count"] == 1

    path = write_doc(tmp_path, doc_field_dependence(), name="fd.json")
    code = main(["complete", path])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"]["code"] == "not-real-completable"


def test_cli_closure(tmp_path, capsys):
    doc = {
        "dims": [2, 2, 2],
        "entries": [
            {"index": [1, 1, 2], "value": "1"},
            {"index": [1, 2, 1], "value": "1"},
            {"index": [2, 1, 1], "value": "1"},
        ],
    }
    path = write_doc(tmp_path, doc)
    code = main(["closure", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["closure"] == [[1, 1, 2], [1, 2, 1], [2, 1, 1]]
    assert len(out["not_finitely_completable"]) == 5


def test_cli_jacobian_seeded_reproducible(tmp_path, capsys):
    doc = {
        "dims": [2, 2, 2],
        "entries": [
            {"index": [2, 1, 1], "value": "1/5"},
            {"index": [1, 2, 1], "value": "1/7"},
            {"index": [1, 1, 2], "value": "1/11"},
        ],
    }
    path = write_doc(tmp_path, doc)
    code = main(["jacobian", path, "--seed", "42"])
    first = capsys.readouterr().out
    assert code == 0
    code = main(["jacobian", path, "--seed", "42"])
    second = capsys.readouterr().out
    assert first == second
    out = json.loads(first)
    assert out["identity_check"] is True
    assert out["kernel_vector"] == [-1, -1, -1, 2]
    assert out["linear_factor"] == "-th1_1 - th2_1 - th3_1 + 2"
    assert out["incidence_matrix"] == [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]]


def test_cli_jacobian_wrong_size(tmp_path, capsys):
    doc = {"dims": [2, 2], "entries": [{"index": [1, 1], "value": "1"}]}
    path = write_doc(tmp_path, doc)
    code = main(["jacobian", path])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["error"]["code"] == "bad-input"


def test_cli_diagonal_cap(capsys):
    code = main(["diagonal", "--n", "2", "--d", "9"])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["error"]["code"] == "cap-exceeded"


def test_cli_diagonal(tmp_path, capsys):
    code = main(["diagonal", "--n", "2", "--d", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["compressed_poly"] == "t^2 - 2*t*x1 - 2*t*x2 + x1^2 - 2*x1*x2 + x2^2"

    code = main(["diagonal", "--n", "2", "--d", "2", "--point", "1/4,1/4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["membership"] is True and out["oracle"] == "below-one"

    code = main(["diagonal", "--n", "2", "--d", "2", "--point", "1/2,1/2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["membership"] is False


def test_cli_antidiag222(capsys):
    code = main(["antidiag222", "--point", "1/8,1/8,1/8"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["membership"] is True

    code = main(["antidiag222", "--point", "1/2,1/2,1/2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2 and out["membership"] is False


def test_cli_check_witness_beyond_circuit_listing_cap(tmp_path, capsys):
    path = write_doc(tmp_path, tensor_to_document(doubled_corner_tensor()))
    code = main(["check", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["failing_circuit"] == {
        "support": [[1, 1, 1], [1, 1, 2], [1, 2, 1], [1, 2, 2]],
        "vector": [1, -1, -1, 1],
    }


def test_cli_check_long_circuit_is_too_large(tmp_path, capsys):
    path = write_doc(tmp_path, tensor_to_document(long_cycle_tensor()))
    code = main(["check", path])
    err = json.loads(capsys.readouterr().err)
    assert code == 1
    assert err["error"]["code"] == "too-large"


def test_cli_check_long_path(tmp_path, capsys):
    path = write_doc(tmp_path, tensor_to_document(path_tensor()))
    code = main(["check", path])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["complex_completable"] is True
    assert len(out["finitely_completable_entries"]) == 50 * 51
    assert out["saturation_index"] == 1
