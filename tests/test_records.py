"""The package's records: immutable named tuples with validating constructors,
and an import that loads neither `dataclasses` nor `inspect` and parses no
table formula."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from treeburn import admissible as adm, burning, extremal, spider, topology
from treeburn.topology import make_chain_topology

REPO = Path(__file__).resolve().parent.parent

IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import treeburn
from treeburn import extremal
print(json.dumps({
    "added": sorted(set(sys.modules) - before),
    "tables_parsed": extremal._tables.cache_info().misses,
    "table_globals": sorted(extremal._TABLE_NAMES & vars(extremal).keys()),
}))
"""


def test_import_loads_no_dataclasses_and_parses_no_table():
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert "treeburn.extremal" in probe["added"]
    assert {"dataclasses", "inspect"}.isdisjoint(probe["added"])
    assert probe["tables_parsed"] == 0 and probe["table_globals"] == []


def test_tables_are_parsed_on_first_read():
    assert [name for _, name in extremal.CHAIN_WINNERS][:1] == ["B_AC,D"]
    assert set(extremal.CHAIN_STAGE1) == set(extremal.CHAIN_SEQUENCES)
    assert set(extremal.TSHAPE_TOTAL) == set(extremal.TSHAPE_SEQUENCES)
    assert extremal._tables.cache_info().misses == 1
    with pytest.raises(AttributeError, match="has no attribute 'CHAIN_TABLE'"):
        extremal.CHAIN_TABLE


BAD_INPUT = [
    (adm.Block, (frozenset({1}), None), "nonempty block needs a root from its vertex set"),
    (adm.Block, (frozenset({1}), 2), "nonempty block needs a root from its vertex set"),
    (adm.Block, (frozenset(), 1), "empty block cannot have a root"),
    (burning.PathForest, ((),), "a path forest needs at least one path"),
    (burning.PathForest, ((3, 0),), "path orders must be positive"),
    (extremal.FourBranchCase, ("ring", (3, 3, 3, 3)), "unknown shape 'ring'"),
    (extremal.FourBranchCase, ("chain", (3, 2, 3, 3)), "branch degrees must be at least 3"),
    (spider.SpiderProfile, ((1, 2),), "a spider needs at least three legs"),
    (spider.SpiderProfile, ((1, 0, 2),), "leg lengths must be positive"),
]

VALID_INPUT = {
    adm.Block: (frozenset({1}), 1),
    burning.PathForest: ((3, 1),),
    extremal.FourBranchCase: ("chain", (3, 3, 3, 3)),
    spider.SpiderProfile: ((1, 2, 3),),
}


@pytest.mark.parametrize(
    "cls, args, message",
    BAD_INPUT,
    ids=[f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(BAD_INPUT)],
)
def test_validating_records_refuse_bad_input(cls, args, message):
    pattern = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=pattern):
        cls(*args)
    with pytest.raises(ValueError, match=pattern):
        cls(**dict(zip(cls._fields, args)))
    # the named-tuple builders check as the constructor does
    with pytest.raises(ValueError, match=pattern):
        cls._make(args)
    good = cls(*VALID_INPUT[cls])
    with pytest.raises(ValueError, match=pattern):
        good._replace(**dict(zip(cls._fields, args)))
    for built in (cls._make(VALID_INPUT[cls]), good._replace(**good._asdict())):
        assert type(built) is cls and built == good


def _records():
    chain, labels = make_chain_topology(3, 3, 3, 3)
    block = adm.Block(frozenset({1}), 1)
    seq = adm.AdmissibleSequence((block,))
    spec = adm.InducedSpec(chain, adm.parse_compact("A_B,C_D", labels), 6)
    return [
        topology.LengthAssignment({}, {}),
        topology.Decomposition([], []),
        burning.BurningSchedule((2, 6, 8)),
        burning.NeighborhoodCover((frozenset(),), True, True, True, True, 0),
        burning.PathForest((3, 1)),
        burning.LnEstimate({}, {}, ()),
        block,
        seq,
        adm.Stage1Additions({}, {}, 0),
        adm.Stage2Additions((), 0),
        spec,
        extremal.CandidateSet(chain, [], []),
        extremal.FourBranchCase("chain", (5, 3, 3, 3)),
        extremal.ExtremalResult(spec, 52),
        extremal.TableReport([], {}),
        spider.SpiderProfile((8, 9, 11)),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable_named_tuples(record):
    cls = type(record)
    values = tuple(getattr(record, name) for name in cls._fields)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert tuple(record) == values  # unpacks as a tuple of its fields
    assert record == cls(*values) and record is not cls(*values)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, values))
    assert repr(record) == f"{cls.__name__}({fields})"
    try:
        hash(values)
    except TypeError:
        return  # a record with a dict or list field is unhashable, as its fields are
    assert hash(record) == hash(values)

