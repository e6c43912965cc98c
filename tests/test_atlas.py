import pytest

from lpgg import atlas
from lpgg.algebra import DimensionLimitError


def test_single_signature_signs():
    assert atlas.pseudoscalar_square_sign(1, 0) == 1
    assert atlas.pseudoscalar_square_sign(0, 1) == -1
    assert atlas.pseudoscalar_square_sign(2, 0) == -1
    assert atlas.pseudoscalar_square_sign(1, 1) == 1
    assert atlas.pseudoscalar_square_sign(0, 2) == -1
    assert atlas.pseudoscalar_square_sign(3, 0) == -1
    assert atlas.pseudoscalar_square_sign(1, 2) == -1


def test_limit():
    with pytest.raises(DimensionLimitError):
        atlas.pseudoscalar_square_sign(6, 5)
    with pytest.raises(DimensionLimitError):
        atlas.atlas(11)


EXPECTED_LEVELS = {
    1: "+-",
    2: "-+-",
    3: "-+-+",
    4: "+-+-+",
    5: "+-+-+-",
    6: "-+-+-+-",
}


def test_level_strings():
    data = atlas.atlas(6)
    for level, expected in EXPECTED_LEVELS.items():
        assert data["levels"][level] == expected


def test_row_ordering_descending_p():
    data = atlas.atlas(3)
    level3 = [(r.p, r.q) for r in data["rows"] if r.p + r.q == 3]
    assert level3 == [(3, 0), (2, 1), (1, 2), (0, 3)]
    blades = [r.blade for r in data["rows"] if r.p + r.q == 2]
    assert blades == ["e1e2", "e1f1", "f1f2"]


def test_sequences():
    data = atlas.atlas(6)
    assert data["sign_sequence"] == "+,-,-+-,-+-+,+-+-+,+-+-+-,-+-+-+-"
    assert data["product_sequence"] == "--++--"


def test_generator_sign_products():
    data = atlas.atlas(4)
    for row in data["rows"]:
        assert row.generator_sign_product == (-1) ** row.q


def test_eightfold_periodicity():
    classes = atlas.periodicity_classes(10)
    assert len(classes) == 8
    assert all(len(signs) == 1 for signs in classes.values())
    # spot values straight from small signatures
    assert classes[1] == {atlas.pseudoscalar_square_sign(1, 0)}
    assert classes[7] == {atlas.pseudoscalar_square_sign(0, 1)}
    assert classes[2] == {atlas.pseudoscalar_square_sign(2, 0)}
