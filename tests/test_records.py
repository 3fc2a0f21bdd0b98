"""The record classes keep their fields, defaults, checks and equality.

``free_dga.Generator``, ``cord.CordGenerator``, ``cord.SkeinInstance``,
``specseq.PageTable``, ``chords.ChordConfig`` and ``chords.ChordResult`` are
named tuples, so that importing the package compiles no generated methods.
"""

import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from page_oracle import oracle_pages, stable_page_index

from stringhom import chords, cord, free_dga, specseq
from stringhom.free_dga import Generator, InvalidDGA
from stringhom.lengths import Surd


class TestGenerator:
    def test_fields_default_weight_and_equality(self):
        g = Generator("a", 1, Surd(2))
        assert (g.id, g.degree, g.length, g.weight) == ("a", 1, Surd(2), 1)
        assert g == Generator(id="a", degree=1, length=Surd(2), weight=1)
        assert g != Generator("a", 1, Surd(2), 2)
        assert hash(g) == hash(Generator("a", 1, Surd(2)))

    @pytest.mark.parametrize("field", ["id", "degree", "length", "weight"])
    def test_refuses_assignment(self, field):
        g = Generator("a", 1, Surd(2))
        with pytest.raises(AttributeError):
            setattr(g, field, g.length)
        with pytest.raises(AttributeError):
            g.extra = 0

    @pytest.mark.parametrize(
        "length,weight,message",
        [(Surd(0), 1, "needs positive length"),
         (Surd(-1), 1, "needs positive length"),
         (Surd(1), 0, "needs positive weight"),
         (Surd(1), -2, "needs positive weight")],
    )
    def test_nonpositive_length_or_weight_raises(self, length, weight, message):
        with pytest.raises(InvalidDGA, match=f"generator g {message}"):
            Generator("g", 0, length, weight)


def test_page_tables_equal_the_oracle_and_einf_has_r_minus_1():
    fc = specseq.from_dga(free_dga.build_hopf(2), free_dga.LengthWindow(Fraction(7, 2)))
    rs = list(range(1, stable_page_index(fc) + 1))
    tables = specseq.pages(fc.barcode(), rs[-1])
    assert tables == oracle_pages(fc, rs + [-1])
    assert [t.r for t in tables] == rs + [-1]


# sha256 of ``json.dumps(presentation_to_json_dict(...))`` over kmax 2..8, as
# the dataclass records wrote it: a change of any key, value or key order fails.
PRESENTATION_DIGESTS = {
    "unknot": "a9507456eadd3ca12a746b39edf246c8fd2bf93d052f4a4e7d3c612bf4b87c41",
    "hopf_link": "c5ead1bbeb77723f5b80822b7b2037dcc93743197ae0281eab7158b55127a1b8",
    "unlink2": "8c2d530590f729cc59276703815ff87dd4001d5d021a37116dd0fb12f7cd1303",
}


@pytest.mark.parametrize("name", sorted(PRESENTATION_DIGESTS))
def test_presentation_json_is_unchanged(name):
    digest = hashlib.sha256()
    for kmax in range(2, 9):
        data = cord.presentation_to_json_dict(cord.builtin_presentation(name, kmax))
        assert list(data["generators"][0]) == ["id", "source", "target", "depth"]
        if data["skein"]:
            assert list(data["skein"][0]) == ["concat", "inserted", "left", "right"]
        digest.update(json.dumps(data).encode())
    assert digest.hexdigest() == PRESENTATION_DIGESTS[name]


def test_cord_records_default_depth_and_are_immutable():
    g = cord.CordGenerator("x01", 0, 1)
    assert g.depth == 0 and g == cord.CordGenerator(id="x01", source=0, target=1, depth=0)
    with pytest.raises(AttributeError):
        g.depth = 1
    s = cord.SkeinInstance("a", "b", "c", "d")
    assert (s.concat, s.inserted, s.left, s.right) == ("a", "b", "c", "d")


def test_chord_config_defaults_and_checks():
    cfg = chords.ChordConfig()
    assert (cfg.length_bound, cfg.seeds_per_circle, cfg.seeds_per_sphere) == (None, 24, 36)
    assert chords.ChordConfig(3.5) == chords.ChordConfig(length_bound=3.5)
    for kwargs, message in [
        ({"seeds_per_circle": 0}, "seeds_per_circle must be positive"),
        ({"seeds_per_sphere": -3}, "seeds_per_sphere must be positive"),
        ({"seeds_per_circle": 0, "length_bound": math.nan}, "seeds_per_circle must be positive"),
        ({"length_bound": math.inf}, "length_bound must be finite"),
        ({"length_bound": math.nan}, "length_bound must be finite"),
        ({"length_bound": 0.0}, "length_bound must be positive"),
        ({"length_bound": -1.0}, "length_bound must be positive"),
    ]:
        with pytest.raises(chords.ParameterOutOfRange, match=f"^{message}$"):
            chords.ChordConfig(**kwargs)


def test_chord_result_json_keys():
    r = chords.ChordResult(comp_source=0, comp_target=1, u0=np.array([1.0, 0.0]),
                           u1=np.array([0.0, 1.0]), length=2.0, residual=1e-12,
                           multiplicity=3)
    assert list(r.as_json_dict()) == ["components", "theta0", "theta1", "length",
                                      "residual", "multiplicity"]
    assert r.as_json_dict()["components"] == [0, 1]
