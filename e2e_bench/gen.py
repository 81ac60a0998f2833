"""Seeded request generation and the independent answer references.

Nothing here imports ``repro``: the generator only draws inputs, and the
references are the paper's closed forms, frozen in this file from the
``EXACT_TABLE*`` dictionaries of ``src/repro/resources/formulas.py`` (the
forms ``tests/test_tables.py`` pins against the built circuits).  A change
under ``src/`` can therefore not move the yardstick it is measured with.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import urllib.parse
from fractions import Fraction
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The paper's modular-arithmetic builders, as (label, service kind, fixed
#: params, families to take in turn).  The five ``modadd`` families are the
#: rows of Table 1; vbe5 is the original five-adder VBE construction.
BUILDER_MIX: Tuple[Tuple[str, str, Dict[str, Any], Tuple[str, ...]], ...] = (
    ("vbe5", "modadd_vbe_original", {}, ()),
    ("vbe4", "modadd", {"family": "vbe"}, ()),
    ("cdkpm", "modadd", {"family": "cdkpm"}, ()),
    ("gidney", "modadd", {"family": "gidney"}, ()),
    ("hybrid", "modadd", {"family": "gidney", "mid_family": "cdkpm"}, ()),
    ("controlled_modadd", "controlled_modadd", {}, ("cdkpm", "gidney")),
    ("modadd_const", "modadd_const", {}, ("cdkpm", "gidney", "vbe")),
    ("controlled_modadd_const", "controlled_modadd_const", {},
     ("cdkpm", "gidney", "vbe")),
)

N_RANGE = (16, 256)
N_STRATA = 8
#: ``mc_batch``: half the requests take the service default, the other
#: half a log-uniform draw over the rest of the service's range where
#: ``auto`` execution considers a ShardPool: from 4096 lanes up to
#: ``repro.service.api.MAX_MC_BATCH`` (65536), in four strata.
#:
#: The shares are assumptions, not measured traffic (the service records
#: none): half default batch and half large, and half MBU and half not,
#: so that each path a request can take is measured on an equal number of
#: samples, and so that the shares fit the eight-slot design below.
DEFAULT_BATCH = 256
LARGE_BATCH = (4096, 65536)
LARGE_BATCH_STRATA = 4
#: Block ``k`` draws from slice ``k % SUB_STRATA`` of every size and batch
#: stratum, so any three consecutive blocks cover each stratum evenly.
SUB_STRATA = 3
#: Seed of the block layouts (which builder meets which size stratum,
#: batch slot and MBU slot), fixed so that every run asks the same mix.
DESIGN_SEED = 0xB10C

#: Widening of the reported 95% half-width for the Monte-Carlo check: a
#: 95% interval misses for one honest estimate in twenty, so a run of a
#: hundred estimates needs a wider gate; 5 sigma fails an honest estimate
#: with probability ~6e-7.
MC_SIGMAS = 5.0


def _frac(value: Any) -> Fraction:
    """Decode the service's exact-number encoding (``{"$frac": [p, q]}``,
    ``"p/q"`` strings in sweep artifacts, or plain numbers)."""
    if isinstance(value, dict) and "$frac" in value:
        num, den = value["$frac"]
        return Fraction(num, den)
    if isinstance(value, str):
        return Fraction(value)
    return Fraction(value)


# --------------------------------------------------------------------- #
# generator


def _log_slice(rng: random.Random, lo: float, hi: float, index: int, count: int) -> float:
    """Log-uniform over the ``index``-th of ``count`` equal log-width
    slices of ``[lo, hi)``."""
    width = (math.log(hi) - math.log(lo)) / count
    return math.exp(math.log(lo) + width * (index + rng.random()))


def draw_request(rng: random.Random, label: str, stratum: int, batch_mode: int,
                 mbu: bool, sub: int = 0, variant: int = 0) -> Dict[str, Any]:
    """One /estimate query for the builder ``label`` of :data:`BUILDER_MIX`.

    ``n`` is log-uniform within slice ``sub`` of stratum ``stratum`` of
    the :data:`N_STRATA` equal log-width strata of :data:`N_RANGE` (each
    cut into :data:`SUB_STRATA` slices); the modulus is a fresh draw with
    its top bit set (and the constant, for the constant adders, a fresh
    residue).  ``batch_mode`` 0 is the default batch, 1 to
    :data:`LARGE_BATCH_STRATA` the strata of :data:`LARGE_BATCH`, sliced
    the same way.  ``variant`` picks the family of builders that take one
    (in turn, so that the families share the draws evenly).
    """
    _, kind, fixed, families = next(b for b in BUILDER_MIX if b[0] == label)
    n = int(round(_log_slice(rng, *N_RANGE, stratum * SUB_STRATA + sub,
                             N_STRATA * SUB_STRATA)))
    query: Dict[str, Any] = {"kind": kind, "n": n, **fixed}
    if families:
        query["family"] = families[variant % len(families)]
    p = rng.randrange((1 << (n - 1)) + 1, 1 << n)
    query["p"] = p
    if "const" in kind:
        query["a"] = rng.randrange(1, p)
    query["mbu"] = mbu
    query["mc_batch"] = DEFAULT_BATCH if batch_mode == 0 else \
        int(_log_slice(rng, *LARGE_BATCH, (batch_mode - 1) * SUB_STRATA + sub,
                       LARGE_BATCH_STRATA * SUB_STRATA))
    return query


def _gf8_mul(a: int, b: int) -> int:
    """Multiplication in GF(8) = GF(2)[x] / (x^3 + x + 1)."""
    out = 0
    for _ in range(3):
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & 0b1000:
            a ^= 0b1011
    return out


def request_rounds(seed: int, warmups: int = 0) -> Iterator[List[Dict[str, Any]]]:
    """Endless rounds of distinct queries, one per builder in shuffled order.

    Rounds come in blocks of eight, laid out by three mutually orthogonal
    Latin squares over GF(8) (cell ``(builder i, round r)`` gets the size
    stratum, batch slot and MBU slot ``c*i + r`` for ``c`` = 1, 2, 3):
    within a block every builder meets every size stratum once, every
    (size stratum, batch slot) pair occurs once, and every round has the
    same marginals.  The layout of block ``k`` (which builder, stratum,
    batch slot and MBU slot each row and symbol stands for) comes from
    :data:`DESIGN_SEED` and ``k``, not from ``seed``, so the first ``k``
    blocks ask the same mix whatever the seed, down to which builder gets
    a large batch at a large size.  Block ``k`` draws from slice
    ``k % SUB_STRATA`` of every stratum.  ``seed`` draws the values inside
    each cell (``n``, ``mc_batch``, moduli) and the order of requests;
    those draws stay blind to the backend the service will pick.

    With ``warmups`` the first item yielded is that many extra small
    queries outside the design, cycling through the builders, for
    finishing lazy imports.  Every query of the
    stream is pairwise distinct (asserted).
    """
    rng = random.Random(seed)
    seen = set()
    labels = [b[0] for b in BUILDER_MIX]
    size = len(labels)
    assert size == N_STRATA == 2 * LARGE_BATCH_STRATA == 8, "the Latin design is over GF(8)"

    def distinct(*args: Any) -> Dict[str, Any]:
        query = draw_request(rng, *args)
        while query_key(query) in seen:  # a repeat would be a hit, not cold
            query = draw_request(rng, *args)
        seen.add(query_key(query))
        return query

    if warmups:
        yield [distinct(labels[i % size], 0, 0, False, 0, i // size) for i in range(warmups)]
    for block in itertools.count():
        layout = random.Random(DESIGN_SEED + block)
        rows, columns, strata = labels[:], list(range(size)), list(range(N_STRATA))
        batches = [0] * (size // 2) + list(range(1, LARGE_BATCH_STRATA + 1))
        mbus = [True, False] * (size // 2)
        for perm in (rows, strata, batches, mbus):
            layout.shuffle(perm)
        rng.shuffle(columns)
        for r in columns:
            round_ = [distinct(label, strata[i ^ r], batches[_gf8_mul(2, i) ^ r],
                               mbus[_gf8_mul(3, i) ^ r], block % SUB_STRATA,
                               block * size + r)
                      for i, label in enumerate(rows)]
            rng.shuffle(round_)
            yield round_


def request_set(seed: int, size: int) -> List[Dict[str, Any]]:
    """The first ``size`` queries of :func:`request_rounds` (the fixed key
    set of the hot and disk workloads)."""
    out: List[Dict[str, Any]] = []
    for round_ in request_rounds(seed):
        out.extend(round_)
        if len(out) >= size:
            return out[:size]
    raise AssertionError("unreachable")  # request_rounds is endless


def query_key(query: Dict[str, Any]) -> str:
    return json.dumps(query, sort_keys=True)


def query_path(query: Dict[str, Any]) -> str:
    return "/estimate?" + urllib.parse.urlencode(
        {k: (str(v).lower() if isinstance(v, bool) else v) for k, v in query.items()}
    )


# --------------------------------------------------------------------- #
# references (frozen copies of formulas.EXACT_TABLE*)

Form = Callable[[int, int, int], Fraction]  # (n, |p|, |a|) -> value


def _lin(n_coef: Any = 0, one: Any = 0, wp: Any = 0, wa: Any = 0) -> Form:
    n_coef, one, wp, wa = (Fraction(v) for v in (n_coef, one, wp, wa))
    return lambda n, p_weight, a_weight: n_coef * n + one + wp * p_weight + wa * a_weight


#: Table 1 (modular addition) per family: qubits, toffoli, toffoli_mbu.
TABLE1: Dict[str, Dict[str, Form]] = {
    "vbe5": {"qubits": _lin(4, 2), "toffoli": _lin(20, -10), "toffoli_mbu": _lin(16, -8)},
    "vbe4": {"qubits": _lin(4, 3), "toffoli": _lin(16, -3), "toffoli_mbu": _lin(14, -3)},
    "cdkpm": {"qubits": _lin(3, 3), "toffoli": _lin(8, 1), "toffoli_mbu": _lin(7, 1)},
    "gidney": {"qubits": _lin(4, 3), "toffoli": _lin(4, 1),
               "toffoli_mbu": _lin(Fraction(7, 2), 1)},
    "hybrid": {"qubits": _lin(3, 3), "toffoli": _lin(6, 1),
               "toffoli_mbu": _lin(Fraction(11, 2), 1)},
    "draper": {"qubits": _lin(2, 2), "qft_units": _lin(0, 9),
               "qft_units_mbu": _lin(0, 7), "pcqft_units": _lin(0, 2)},
    "draper_expect": {"qubits": _lin(2, 2), "qft_units": _lin(0, 7),
                      "qft_units_mbu": _lin(0, 5), "pcqft_units": _lin(0, 2)},
}

#: Tables 2-6 per table and row family (the columns the artifact carries).
TABLES_2_6: Dict[str, Dict[str, Dict[str, Form]]] = {
    "table2": {
        "vbe": {"toffoli": _lin(4, -2), "ancillas": _lin(1), "cnot": _lin(4)},
        "cdkpm": {"toffoli": _lin(2), "ancillas": _lin(0, 1), "cnot": _lin(4, 1)},
        "gidney": {"toffoli": _lin(1), "ancillas": _lin(1), "cnot": _lin(6, -1)},
        "draper": {"qft_units": _lin(0, 3), "ancillas": _lin(0)},
    },
    "table3": {
        "cdkpm": {"toffoli": _lin(3, 1), "ancillas": _lin(0, 1), "cnot": _lin(4)},
        "gidney": {"toffoli": _lin(2, 1), "ancillas": _lin(1, 1), "cnot": _lin(6)},
        "draper": {"toffoli": _lin(1), "ancillas": _lin(0, 1), "qft_units": _lin(0, 3)},
    },
    "table4": {
        "cdkpm": {"toffoli": _lin(2), "ancillas": _lin(1, 1)},
        "gidney": {"toffoli": _lin(1), "ancillas": _lin(2)},
        "draper": {"qft_units": _lin(0, 2), "ancillas": _lin(0), "pcqft_units": _lin(0, 1)},
    },
    "table5": {
        "cdkpm": {"toffoli": _lin(2), "ancillas": _lin(1, 1)},
        "gidney": {"toffoli": _lin(1), "ancillas": _lin(2)},
        "draper": {"qft_units": _lin(0, 2), "ancillas": _lin(0), "pcqft_units": _lin(0, 1)},
    },
    "table6": {
        "cdkpm": {"toffoli": _lin(2), "ancillas": _lin(0, 1), "cnot": _lin(4, 1)},
        "gidney": {"toffoli": _lin(1), "ancillas": _lin(1, 1), "cnot": _lin(6, 1)},
        "draper": {"qft_units": _lin(0, 6), "ancillas": _lin(0, 1)},
    },
}

#: Artifact row labels -> family keys above.
ROW_FAMILY = {
    "(5 adder) VBE": "vbe5", "(4 adder) VBE": "vbe4", "CDKPM": "cdkpm",
    "Gidney": "gidney", "GIDNEY": "gidney", "CDKPM+Gidney": "hybrid",
    "Draper": "draper", "Draper (Expect)": "draper_expect", "VBE": "vbe",
}


def _weight(value: Optional[int]) -> int:
    return bin(value).count("1") if value else 0


def check_mc(mean: Any, exact: Any, half_width: float, what: str) -> List[str]:
    """A Monte-Carlo mean against the exact expectation: equal when the
    sample has no spread, else within :data:`MC_SIGMAS` standard errors."""
    mean, exact = _frac(mean), _frac(exact)
    if half_width == 0:
        return [] if mean == exact else [f"{what}: MC mean {mean} != exact {exact} at zero spread"]
    sigma = half_width / 1.959963984540054
    if abs(float(mean - exact)) > MC_SIGMAS * sigma:
        return [f"{what}: MC mean {float(mean):.3f} is {float(abs(mean - exact)) / sigma:.1f}"
                f" sigma from exact {float(exact):.3f}"]
    return []


def check_estimate(query: Dict[str, Any], payload: Dict[str, Any]) -> List[str]:
    """Every reason ``payload`` is not the right answer to ``query``."""
    errors: List[str] = []
    echo = payload.get("request", {})
    params = {k: v for k, v in query.items() if k not in ("kind", "n", "mc_batch")}
    if echo.get("kind") != query["kind"] or echo.get("n") != query["n"] \
            or echo.get("params") != params \
            or echo.get("mc_batch") != query["mc_batch"]:
        errors.append(f"request echo {echo!r} does not match {query!r}")
    n = query["n"]
    shape = {k: query[k] for k in ("family", "mid_family") if k in query}
    label = next((label for label, kind, fixed, _ in BUILDER_MIX
                  if label in TABLE1 and kind == query["kind"] and fixed == shape), None)
    if label is not None:
        forms = TABLE1[label]
        wp = _weight(query["p"])
        toffoli = forms["toffoli_mbu" if query["mbu"] else "toffoli"](n, wp, 0)
        if _frac(payload.get("toffoli")) != toffoli:
            errors.append(f"toffoli {payload.get('toffoli')} != closed form {toffoli}")
        if payload.get("qubits") != forms["qubits"](n, wp, 0):
            errors.append(f"qubits {payload.get('qubits')} != closed form")
    mc = payload.get("mc")
    if not isinstance(mc, dict):
        errors.append("missing Monte-Carlo estimate")
    else:
        if mc.get("samples") != query["mc_batch"]:
            errors.append(f"MC samples {mc.get('samples')} != mc_batch {query['mc_batch']}")
        errors += check_mc(mc.get("mean"), payload.get("toffoli"), float(mc.get("ci95", 0)),
                           "estimate")
    return errors


def check_artifact(artifact: Dict[str, Any]) -> List[str]:
    """Closed-form and Monte-Carlo checks over a sweep's ``tables.json``."""
    errors: List[str] = []
    tables = artifact.get("tables", {})
    if sorted(tables) != [f"table{i}" for i in range(1, 7)]:
        errors.append(f"tables {sorted(tables)} are not table1..table6")
    checked = 0
    for table, body in tables.items():
        for size, rows in body.get("sizes", {}).items():
            n = int(size)
            for row in rows:
                where = f"{table} n={n} {row.get('row')}"
                family = ROW_FAMILY.get(row.get("row"))
                forms = (TABLE1 if table == "table1" else TABLES_2_6.get(table, {})).get(family)
                if forms is None:
                    errors.append(f"{where}: unknown row")
                    continue
                wp, wa = _weight(row.get("p")), _weight(row.get("a"))
                for metric, form in forms.items():
                    if metric in row:
                        checked += 1
                        if _frac(row[metric]) != form(n, wp, wa):
                            errors.append(f"{where}: {metric} {row[metric]} != {form(n, wp, wa)}")
                errors += _check_row_mc(row, where)
    for row in artifact.get("modexp", []):
        errors += _check_row_mc(row, f"modexp {row.get('row')}")
    if not checked:
        errors.append("no closed-form cell checked")
    return errors


def _check_row_mc(row: Dict[str, Any], where: str) -> List[str]:
    errors: List[str] = []
    for key in row:
        if key.endswith("_mc"):
            base = key[: -len("_mc")]
            errors += check_mc(row[key], row[base], float(row[f"{key}_ci95"]), f"{where} {key}")
    return errors


def same_artifact(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
    """Artifacts equal up to the configured worker count (execution-only)."""
    def strip(art: Dict[str, Any]) -> Dict[str, Any]:
        return {**art, "config": {**art.get("config", {}), "workers": None}}

    return strip(a) == strip(b)
