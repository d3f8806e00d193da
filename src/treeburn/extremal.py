"""Candidate pruning and order maximization over canonical sequences.

`find_extremal` works on any topology with at most
`admissible.MAX_BRANCH_VERTICES` branch vertices.  With four branch
vertices, the chain case A-B-C-D admits six canonical sequences that can
win; the T-shape (B adjacent to A, C, D; arms sorted a >= c >= d) admits
three.  The closed-form tables for their added-vertex counts, pairwise
differences, and winning conditions are written here once, as the text
`emit_table` prints, and re-checked numerically by formulas parsed from that
text when first read.
"""

from __future__ import annotations

import re
from functools import cache, cached_property
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .tree import Tree
from .topology import Topology, make_chain_topology, make_tshape_topology
from . import admissible as adm
from .admissible import AdmissibleSequence, InducedSpec
from . import burning


class CandidateSet(NamedTuple):
    topology: Topology
    candidates: List[AdmissibleSequence]
    pruned: List[Tuple[AdmissibleSequence, str]]


class _FourBranchCaseFields(NamedTuple):
    shape: str  # "chain" or "tshape"
    degrees: Tuple[int, int, int, int]


class FourBranchCase(_FourBranchCaseFields):
    __slots__ = ()

    def __new__(cls, shape: str, degrees: Tuple[int, int, int, int]) -> "FourBranchCase":
        if shape not in ("chain", "tshape"):
            raise ValueError(f"unknown shape {shape!r}")
        if any(d < 3 for d in degrees):
            raise ValueError("branch degrees must be at least 3")
        return _FourBranchCaseFields.__new__(cls, shape, degrees)

    # checks as `__new__` does; `_replace` builds through it
    _make = classmethod(lambda cls, fields: cls(*fields))


class _ExtremalResultFields(NamedTuple):
    spec: InducedSpec
    order: int
    burning_number: Optional[int] = None
    maximal: Optional[bool] = None


class ExtremalResult(_ExtremalResultFields):
    """The winner of `find_extremal`: its spec (topology, sequence, m) and
    induced order.  `tree` is built from the spec on first read and kept
    in the instance `__dict__`, which this class has for that reason: it
    declares no `__slots__`."""

    @property
    def sequence(self) -> AdmissibleSequence:
        return self.spec.sequence

    @cached_property
    def tree(self) -> Tree:
        return adm.induce_tree(self.spec)


class TableReport(NamedTuple):
    """Mismatches against the tables, and the induced order of each listed
    sequence per (degrees, m) checked."""

    mismatches: List[str]
    orders: Dict[Tuple[Tuple[int, int, int, int], int], Dict[str, int]]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def prune(topology: Topology, seqs: Sequence[AdmissibleSequence]) -> CandidateSet:
    """Drop sequences with an empty block before a nonempty one (rule 2b) and
    sequences with roots of non-consecutive blocks adjacent (rule 2c)."""
    kept: List[AdmissibleSequence] = []
    pruned: List[Tuple[AdmissibleSequence, str]] = []
    for seq in seqs:
        tag = _prune_tag(topology, seq)
        if tag is None:
            kept.append(seq)
        else:
            pruned.append((seq, tag))
    return CandidateSet(topology=topology, candidates=kept, pruned=pruned)


def _prune_tag(topology: Topology, seq: AdmissibleSequence) -> Optional[str]:
    blocks = seq.trimmed().blocks
    for i in range(len(blocks) - 1):
        if blocks[i].empty and not blocks[i + 1].empty:
            return "2b"
    roots = [(i, b.root) for i, b in enumerate(blocks, start=1) if not b.empty]
    for a in range(len(roots)):
        for b in range(a + 1, len(roots)):
            i, ri = roots[a]
            j, rj = roots[b]
            if j - i != 1 and rj in topology.branch_neighbors(ri):
                return "2c"
    return None


def find_extremal(topology: Topology, m: int, verify: bool = False) -> ExtremalResult:
    """Maximize induced order over the surviving canonical sequences.

    The survivors are the canonical sequences without empty blocks (rule 2b
    holds by construction: a built sequence ends in a nonempty block, so any
    empty block would come before a nonempty one) that pass rule 2c.  The
    winner has the largest order, ties broken by least `sequence_key`.
    `admissible.best_canonical` finds it in one scored construction: order
    per block, rule 2c at each root, prefixes cut by an upper bound on
    order (proofs in its docstring).  The winner does not depend on m, so
    that search runs once per labelled skeleton: its result at m0 = k + 1
    is memoised, and each m adds the same shift to it.  This is exact,
    because the search reads only branch ids, skeleton edges and arm
    counts, and ties are broken on branch ids alone.  Nothing is built:
    the result holds the winner's `InducedSpec`, and its `tree` is induced
    from it when first read.  With `verify`, that read happens here, once,
    and the tree is burned.

    Every candidate satisfies m > max signature: block j of a sequence
    without empty blocks holds at most k - j + 1 of the k branch vertices,
    so sig(v) <= (k - j) + j = k < m.  The one-block sequence survives both
    rules, so a winner always exists."""
    best_order, winner = adm.best_canonical(topology, m)
    spec = InducedSpec(topology=topology, sequence=winner, m=m)
    if not verify:
        return ExtremalResult(spec=spec, order=best_order)
    tree = adm.induce_tree(spec)
    b, _ = burning.burning_number(tree)
    maximal = burning.is_maximally_m_burnable(tree, b) if b == m else False
    result = ExtremalResult(spec=spec, order=best_order, burning_number=b, maximal=maximal)
    vars(result)["tree"] = tree  # the `tree` cache: built once per call
    return result


def order_difference(
    topology: Topology,
    seq_a: AdmissibleSequence,
    seq_b: AdmissibleSequence,
    m: int,
) -> int:
    return adm.induced_order(topology, seq_a, m) - adm.induced_order(topology, seq_b, m)


# ---------------------------------------------------------------------------
# The four-branch tables as printed.  Tables 1 and 4: vertices each sequence
# adds (chain: Stage 1; T-shape: both stages).  Tables 2 and 5: row minus
# column.  Tables 3 and 6: the first matching row names the winner.

TABLE_TEXT: Dict[int, List[str]] = {
    1: [
        "A_B,C_D\t(a-1)(m-2)+(b-2+c-2)(m-3)+(d-1)(m-4)+2m-4",
        "A_BC,D\t(a-1)(m-2)+(b-2+d-1)(m-3)+(c-2)(m-4)+2m-5",
        "B_AC,D\t(b-2)(m-2)+(a-1+c-2+d-1)(m-3)+2m-4",
        "C_BD,A\t(c-2)(m-2)+(a-1+b-2+d-1)(m-3)+2m-4",
        "D_C,B_A\t(d-1)(m-2)+(b-2+c-2)(m-3)+(a-1)(m-4)+2m-4",
        "D_CB,A\t(d-1)(m-2)+(a-1+c-2)(m-3)+(b-2)(m-4)+2m-5",
    ],
    2: [
        "\tA_B,C_D\tA_BC,D\tB_AC,D\tC_BD,A\tD_C,B_A\tD_CB,A",
        "A_B,C_D\t0\tc-d\ta-b-d+2\ta-c-d+2\t2a-2d\ta+b-2d",
        "A_BC,D\td-c\t0\ta-b-c+2\ta-2c+2\t2a-c-d\ta+b-c-d",
        "B_AC,D\tb+d-a-2\tb+c-a-2\t0\tb-c\ta+b-d-2\t2b-d-2",
        "C_BD,A\tc+d-a-2\t2c-a-2\tc-b\t0\ta+c-d-2\tb+c-d-2",
        "D_C,B_A\t2d-2a\tc+d-2a\td-a-b+2\td-a-c+2\t0\tb-a",
        "D_CB,A\t2d-a-b\tc+d-a-b\td-2b+2\td-b-c+2\ta-b\t0",
    ],
    3: [
        "b>=max{a,c,d}\tB_AC,D",
        "a>b>=max{c,d} and b+min{c,d}>=a+2\tB_AC,D",
        "a>b>=c>=d and a+2>=b+d\tA_B,C_D",
        "a>b>=d>=c and a+2>=b+c\tA_BC,D",
        "a>c>=max{b,d} and c+d>=a+2\tC_BD,A",
        "a>c>=max{b,d} and a+2>=c+d\tA_B,C_D",
        "a>=d>=b>=c and b+c>=a+2\tB_AC,D",
        "a>=d>=b>=c and a+2>=b+c\tA_BC,D",
        "a>=d>=c>=b and 2c>=a+2 and b+c>=d+2\tC_BD,A",
        "a>=d>=c>=b and 2c>=a+2 and d+2>=b+c\tD_CB,A",
        "a>=d>=c>=b and a+2>=2c and c+d>=a+b\tD_CB,A",
        "a>=d>=c>=b and a+2>=2c and a+b>=c+d\tA_BC,D",
    ],
    4: [
        "B_ACD\t(b-3)(m-2)+(a-1+c-1+d-1)(m-3)+(m-1)^2",
        "A_BD,C\t(a-1)(m-2)+(b-3+c-1)(m-3)+(d-1)(m-4)+(2m-4)+(m-2)^2",
        "A,C_B,D\t(a-1)(m-2)+(c-1)(m-3)+(b-3+d-1)(m-4)+(2m-4)+(2m-6)+(m-3)^2",
    ],
    5: [
        "\tB_ACD\tA_BD,C\tA,C_B,D",
        # B_ACD vs A,C_B,D is corrected from the published -a+2b+d-3, which
        # contradicts Table 4 and the other two difference entries by exactly 1
        "B_ACD\t0\t-a+b+d-2\t-a+2b+d-4",
        "A_BD,C\ta-b-d+2\t0\tb-2",
        "A,C_B,D\ta-2b-d+4\t2-b\t0",
    ],
    6: [
        "a>=c>=d and b+d>=a+2\tB_ACD",
        "a>=c>=d and a+2>=b+d\tA_BD,C",
    ],
}

Formula = Callable[..., int]

_TOKEN = r"max|min|and|[0-9abcdm]|[<>]=?|[-+*(),^{} ]"  # compiled on first use
_OPERAND_END = set("0123456789abcdm)}")
_OPERAND_START = {"a", "b", "c", "d", "m", "(", "max", "min"}
_TO_PYTHON = str.maketrans({"^": "**", "{": "(", "}": ")"})


def _formula(text: str) -> Formula:
    """One printed cell as `f(a, b, c, d, m=None)`: juxtaposition multiplies,
    `^` is a power, `{..}` holds the arguments of max/min, and a cell with
    any token outside `_TOKEN` is rejected before it is evaluated."""
    tokens = re.findall(_TOKEN, text)
    if "".join(tokens) != text:
        raise ValueError(f"table cell {text!r} has a token outside the grammar")
    expr = []
    for prev, tok in zip([""] + tokens, tokens):
        if prev in _OPERAND_END and tok in _OPERAND_START:
            expr.append("*")
        expr.append(tok)
    source = "lambda a, b, c, d, m=None: " + "".join(expr).translate(_TO_PYTHON)
    return eval(source, {"__builtins__": {}, "max": max, "min": min})


def _rows(index: int) -> List[List[str]]:
    return [line.split("\t") for line in TABLE_TEXT[index]]


def _matrix(index: int) -> Dict[Tuple[str, str], Formula]:
    header, *rows = _rows(index)
    return {
        (row[0], col): _formula(cell)
        for row in rows
        for col, cell in zip(header[1:], row[1:])
    }


CHAIN_SEQUENCES = [line.partition("\t")[0] for line in TABLE_TEXT[1]]
TSHAPE_SEQUENCES = [line.partition("\t")[0] for line in TABLE_TEXT[4]]

_TABLE_NAMES = frozenset((
    "CHAIN_STAGE1", "CHAIN_DIFF", "CHAIN_WINNERS",
    "TSHAPE_TOTAL", "TSHAPE_DIFF", "TSHAPE_WINNERS",
))


@cache
def _tables() -> None:
    """Parse the six formula tables into module globals, once.  Only
    `four_branch_lookup`, `verify_tables` (the `ext tables` command) and
    the tests read them, so an import does not parse them: those two call
    this first, and a read from outside goes through `__getattr__`."""
    globals().update(
        CHAIN_STAGE1={name: _formula(cell) for name, cell in _rows(1)},
        CHAIN_DIFF=_matrix(2),
        CHAIN_WINNERS=[(_formula(cond), name) for cond, name in _rows(3)],
        TSHAPE_TOTAL={name: _formula(cell) for name, cell in _rows(4)},
        TSHAPE_DIFF=_matrix(5),
        TSHAPE_WINNERS=[(_formula(cond), name) for cond, name in _rows(6)],
    )


def __getattr__(name: str):
    """The formula tables on first read (PEP 562); once parsed they are
    plain module globals, so later reads and patches do not come here."""
    if name not in _TABLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _tables()
    return globals()[name]


def emit_table(index: int) -> str:
    if index not in TABLE_TEXT:
        raise ValueError("table index must be 1..6")
    return "\n".join(TABLE_TEXT[index])


# chain mirror symmetry A<->D, B<->C
_MIRROR = str.maketrans("ABCD", "DCBA")


def _name_shape(name: str) -> Tuple[Tuple[str, frozenset], ...]:
    out = []
    for token in name.split(","):
        root, _, rest = token.partition("_")
        out.append((root, frozenset(rest)))
    return tuple(out)


def _mirror_name(name: str) -> str:
    mirrored = _name_shape(name.translate(_MIRROR))
    for candidate in CHAIN_SEQUENCES:
        if _name_shape(candidate) == mirrored:
            return candidate
    raise ValueError(f"mirror of {name!r} is not a listed candidate")


def four_branch_lookup(case: FourBranchCase) -> str:
    """Winning canonical sequence name for the case's degree conditions."""
    _tables()
    a, b, c, d = case.degrees
    if case.shape == "tshape":
        if not (a >= c >= d):
            raise ValueError("tshape requires arm degrees sorted a >= c >= d")
        for cond, name in TSHAPE_WINNERS:
            if cond(a, b, c, d):
                return name
        raise ValueError(f"no matching condition for degrees {case.degrees}")
    for cond, name in CHAIN_WINNERS:
        if cond(a, b, c, d):
            return name
    # the chain table reads the degrees with a >= d; mirror otherwise
    for cond, name in CHAIN_WINNERS:
        if cond(d, c, b, a):
            return _mirror_name(name)
    raise ValueError(f"no matching condition for degrees {case.degrees}")


def _topology_for(case: FourBranchCase) -> Tuple[Topology, Dict[str, int]]:
    a, b, c, d = case.degrees
    if case.shape == "chain":
        return make_chain_topology(a, b, c, d)
    return make_tshape_topology(a, b, c, d)


def case_sequences(case: FourBranchCase):
    """The table's candidate sequences, parsed over the case's topology."""
    topo, labels = _topology_for(case)
    names = CHAIN_SEQUENCES if case.shape == "chain" else TSHAPE_SEQUENCES
    return topo, labels, {name: adm.parse_compact(name, labels) for name in names}


def verify_tables(
    degree_grid: Sequence[Tuple[int, int, int, int]],
    m_grid: Sequence[int],
    shape: str,
) -> TableReport:
    """Check closed-form counts, pairwise differences, and winners against the
    library's own computations over the given grids; the report keeps the
    induced orders it computed."""
    mismatches: List[str] = []
    table: Dict[Tuple[Tuple[int, int, int, int], int], Dict[str, int]] = {}
    _tables()
    if shape == "chain":
        stage_formulas, diff_formulas = CHAIN_STAGE1, CHAIN_DIFF
    else:
        stage_formulas, diff_formulas = TSHAPE_TOTAL, TSHAPE_DIFF
    for degrees in degree_grid:
        case = FourBranchCase(shape=shape, degrees=tuple(degrees))
        topo, labels, seqs = case_sequences(case)
        a, b, c, d = case.degrees
        expected_name = four_branch_lookup(case)
        signed = {name: adm._signed(topo, seq) for name, seq in seqs.items()}
        for m in m_grid:
            orders = table[(case.degrees, m)] = {}
            for name, seq in seqs.items():
                s1 = adm._stage1(topo, *signed[name], m).total  # stage1_additions
                s2 = adm.stage2_total(seq, m)
                orders[name] = topo.tree.order + s1 + s2  # induced_order
                count = s1 if shape == "chain" else s1 + s2
                expected = stage_formulas[name](a, b, c, d, m)
                if count != expected:
                    mismatches.append(
                        f"{shape} {degrees} m={m} {name}: "
                        f"count {count} != table {expected}"
                    )
            for (na, nb), f in diff_formulas.items():
                got = orders[na] - orders[nb]
                expected = f(a, b, c, d, m)
                if got != expected:
                    mismatches.append(
                        f"{shape} {degrees} m={m} {na} vs {nb}: "
                        f"difference {got} != table {expected}"
                    )
            best = adm.best_canonical(topo, m)[0]
            if orders[expected_name] != best:
                mismatches.append(
                    f"{shape} {degrees} m={m}: winner order {best} "
                    f"!= table winner {expected_name} order {orders[expected_name]}"
                )
    return TableReport(mismatches=mismatches, orders=table)
