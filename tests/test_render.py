import pytest

import golden as G
from symptok.matrices import CompassPointMatrix, GTShapeError, UTurnASM
from symptok.render import InputFormatError, from_json_data, to_json_data


@pytest.mark.parametrize("obj", [G.A, G.CPM, G.GT])
def test_matrices_round_trip(obj):
    assert from_json_data(to_json_data(obj)) == obj


@pytest.mark.parametrize("rows", [
    [["NS", "WE"]],                          # one row would give n = 0
    [["NS"], ["WE"], ["SW"]],                # odd
    [["NS", "WE"], ["SW"]],                  # ragged
])
def test_compass_matrix_needs_an_even_number_of_equal_rows(rows):
    with pytest.raises(InputFormatError):
        from_json_data(rows)


@pytest.mark.parametrize("rows", [
    [[True, False], [False, True]],
    [[1.0, 0], [0, 1.0]],
    [[1, 0], [0.0, 1]],
])
def test_asm_entries_must_be_integers(rows):
    with pytest.raises(InputFormatError):
        from_json_data(rows)


def test_small_matrices_load():
    assert from_json_data([[1, 0], [0, 1]]) == UTurnASM(((1, 0), (0, 1)))
    assert from_json_data([["SW"], ["NE"]]) == CompassPointMatrix((("SW",), ("NE",)))


@pytest.mark.parametrize("level", [0, -1, 1.0, True])
def test_tableau_letter_level_must_be_a_positive_integer(level):
    doc = {"family": "st", "shape": [1],
           "rows": [[{"level": level, "barred": False}]]}
    with pytest.raises(InputFormatError):
        from_json_data(doc)


@pytest.mark.parametrize("doc", [
    {"n": 1, "rows": [[1.7], [True]]},
    {"n": "1", "rows": [["2"], [3]]},
    {"n": 1.0, "rows": [[2], [1]]},
    {"n": True, "rows": [[2], [1]]},
    {"n": 1, "rows": [[2], [1.0]]},
    {"n": 1, "rows": [[2], [False]]},
    {"n": 1, "rows": ["2", [1]]},
])
def test_pattern_n_and_entries_must_be_integers(doc):
    with pytest.raises(InputFormatError):
        from_json_data(doc)


@pytest.mark.parametrize("doc,message", [
    ({"n": 2, "rows": [[1], [2]]}, "expected 4 rows, got 2"),
    ({"n": 1, "rows": [[1], [2], [3, 1], [3, 1]]}, "expected 2 rows, got 4"),
    ({"n": 0, "rows": []}, "rank n must be at least 1, got 0"),
])
def test_pattern_n_must_be_half_the_row_count(doc, message):
    # the rows fix the rank, so an "n" that disagrees with them is refused
    with pytest.raises(GTShapeError, match=message):
        from_json_data(doc)


@pytest.mark.parametrize("rows,level", [
    ([[1], [2], [3], [4]], 2),
    ([[1, 0], [2], [3, 1], [4, 1]], 1),
    ([[1], [2], [3, 1, 0], [4, 1]], 2),
])
def test_pattern_rows_must_have_their_level_lengths(rows, level):
    # a short row once loaded, and bijections.gtp_to_st then raised a raw
    # IndexError
    with pytest.raises(GTShapeError, match=f"rows for level {level} do not have length"):
        from_json_data({"n": 2, "rows": rows})
