"""Seeded workload generator for the CLI benchmark.

Every workload is a list of items. An item is one JSON input document plus
the calls the benchmark makes on it: `analyze`, `report --json` and
`verify --max-order V`, each with the exit code it must return. The seed
changes only the order of the items and, outside `corpus`, the signs of
the coefficients (multipliers of +1 or -1). Exponents, ambient field, mode,
`extra_steps` and `max_order` never depend on it, so every seed gives the
same work shape (see `shape`).

    python3 bench/workloads.py --workload corpus --seed 1 --out DIR

writes one `<id>.json` document per item into DIR and prints the plan.
"""

import argparse
import json
import os
import random
from fractions import Fraction

COMMANDS = ("analyze", "report", "verify")

WHY = {
    "corpus": "the acceptance corpus: 42 small documents of every kind, "
              "where no layer does most of the work and per-document "
              "costs weigh the most",
    "cusp_ladder": "cusps x=t^2, y=t^(2k+1) over Q: value maps (m, M) and "
                   "the intersection-matrix inverse do the work, the oracle "
                   "almost none",
    "oracle_quartic": "quartic-field branches and divisorial targets "
                      "checked at high max-order: the oracle dominates "
                      "verify and is absent from analyze and report",
    "multipair_fields": "two or three characteristic pairs, most with a "
                        "field jump: Poly.gcd over L (in the m replay and "
                        "resolve) does the most work; the oracle takes ms",
}

# Ambient fields as min_poly coefficient lists, lowest degree first.
Q = [0, 1]
SQ2 = [-2, 0, 1]
SQ3 = [-3, 0, 1]
GOLDEN = [-1, -1, 1]
CBRT2 = [-2, 0, 0, 1]
BIQ = [1, 0, -10, 0, 1]
QRT2 = [-2, 0, 0, 0, 1]

# Coordinates of the named field elements of the acceptance corpus. In BIQ,
# s2 = (z^3 - 9z)/2 and s3 = z - s2 are sqrt(2) and sqrt(3) up to sign.
_ONE = {1: [1], 2: [1, 0], 3: [1, 0, 0], 4: [1, 0, 0, 0]}
_GEN = {2: [0, 1], 3: [0, 1, 0], 4: [0, 1, 0, 0]}
_S2 = ["0", "-9/2", "0", "1/2"]
_S3 = ["0", "11/2", "0", "-1/2"]

# Multipliers the seed draws from. Only signs: multipliers of larger height
# (2, 1/2, 3/2, ...) moved the cost of `analyze` on x=t^4,
# y=t^6+sqrt2 t^7+t^9 by up to 40% from seed to seed, which would bury a
# change in the spread.
SIGNS = (1, -1)


def _one(field):
    return _ONE[len(field) - 1]


def _gen(field):
    return _GEN[len(field) - 1]


def _doc(field, x_order, terms, mode="curve"):
    """terms: (exp, coords | "generic") pairs."""
    return {
        "ambient": {"var": "z", "min_poly": list(field)},
        "branch": {"x_order": x_order,
                   "y_terms": [{"exp": e, "coeff": c} for e, c in terms]},
        "mode": mode,
    }


def _divisorial(extra_steps):
    return {"divisorial": {"extra_steps": extra_steps}}


def _item(item_id, doc, max_order, verify_exit=0, exit_code=0):
    """exit_code applies to every command; verify_exit overrides verify."""
    expect = {cmd: exit_code for cmd in COMMANDS}
    if exit_code == 0:
        expect["verify"] = verify_exit
    return {"id": item_id, "doc": doc, "max_order": max_order,
            "expect": expect}


def _scaled(coords, r):
    out = []
    for a in coords:
        q = Fraction(a) * r
        out.append(int(q) if q.denominator == 1 else str(q))
    return out


def _with_signs(item, rng):
    """Multiply every y coefficient by a seeded sign: the subfields the
    coefficients generate, hence the resolution graph, stay the same."""
    doc = json.loads(json.dumps(item["doc"]))
    for term in doc["branch"]["y_terms"]:
        term["coeff"] = _scaled(term["coeff"], rng.choice(SIGNS))
    return dict(item, doc=doc)


# --- corpus: transcribed from tests/test_acceptance.py -----------------------

def _corpus_items():
    F = {"Q": Q, "SQ2": SQ2, "SQ3": SQ3, "GOLDEN": GOLDEN, "CBRT2": CBRT2,
         "BIQ": BIQ, "QRT2": QRT2}
    one = "one"
    gen = "gen"
    curves = [
        ("cusp", "Q", 2, [(3, one)]),
        ("quad467", "Q", 4, [(6, one), (7, one)]),
        ("smooth", "Q", 1, []),
        ("q25", "Q", 2, [(5, one)]),
        ("q34", "Q", 3, [(4, one)]),
        ("q35", "Q", 3, [(5, one)]),
        ("q469", "Q", 4, [(6, one), (9, one)]),
        ("sq2_line", "SQ2", 1, [(1, gen)]),
        ("sq2_cusp", "SQ2", 2, [(3, gen)]),
        ("sq2_tail", "SQ2", 2, [(3, one), (4, gen)]),
        ("sq2_tangent", "SQ2", 2, [(2, gen), (3, one)]),
        ("sq2_twopair", "SQ2", 4, [(6, gen), (7, one)]),
        ("sq2_line_tail", "SQ2", 1, [(1, gen), (2, one)]),
        ("sq2_late", "SQ2", 2, [(3, one), (5, gen)]),
        ("sq2_cusp_tail", "SQ2", 2, [(3, gen), (4, one)]),
        ("sq2_34", "SQ2", 3, [(4, gen)]),
        ("sq2_34_tail", "SQ2", 3, [(4, one), (5, gen)]),
        ("sq2_second_pair", "SQ2", 4, [(6, one), (7, gen)]),
        ("sq2_quintic", "SQ2", 2, [(5, gen)]),
        ("sq3_line", "SQ3", 1, [(1, gen)]),
        ("sq3_cusp", "SQ3", 2, [(3, gen)]),
        ("golden_cusp", "GOLDEN", 2, [(3, gen)]),
        ("cbrt_line", "CBRT2", 1, [(1, gen)]),
        ("cbrt_cusp", "CBRT2", 2, [(3, gen)]),
        ("cbrt_late", "CBRT2", 2, [(3, one), (4, gen)]),
        ("biq_two_jumps", "BIQ", 1, [(1, _S2), (2, _S3)]),
        ("biq_cusp", "BIQ", 2, [(3, _S2), (5, _S3)]),
        ("qrt_line", "QRT2", 1, [(1, gen)]),
        ("qrt_cusp", "QRT2", 2, [(5, gen)]),
    ]
    divisorial = [
        ("first_blowup", "Q", 1, [], 0),
        ("second_blowup_along_y0", "Q", 1, [], 1),
        ("cusp_first_rupture", "Q", 2, [(3, one)], 0),
        ("past_splitting_sq2_line", "SQ2", 1, [(1, gen)], 0),
        ("past_splitting_sq2_tail", "SQ2", 2, [(3, one), (4, gen)], 1),
        ("cusp_two_extra_steps", "Q", 2, [(3, one)], 2),
    ]
    generic = [
        ("generic_cusp", "Q", 2, [(3, "generic")]),
        ("generic_tail", "Q", 2, [(3, one), (5, "generic")]),
        ("generic_twopair", "Q", 4, [(6, "generic"), (7, one)]),
        ("generic_sq2", "SQ2", 2, [(3, "generic"), (4, gen)]),
    ]

    def coords(field, c):
        if c == one:
            return _one(field)
        if c == gen:
            return _gen(field)
        return c

    items = []
    for name, fname, m, terms in curves:
        field = F[fname]
        doc = _doc(field, m, [(e, coords(field, c)) for e, c in terms])
        items.append(_item("curve_" + name, doc, 30 if field == Q else 40))
    for name, fname, m, terms, extra in divisorial:
        field = F[fname]
        doc = _doc(field, m, [(e, coords(field, c)) for e, c in terms],
                   _divisorial(extra))
        items.append(_item("div_" + name, doc, 30))
    for name, fname, m, terms in generic:
        field = F[fname]
        doc = _doc(field, m, [(e, coords(field, c)) for e, c in terms])
        # verify refuses a generic-marker branch with a validation error
        items.append(_item(name, doc, 30, verify_exit=3))
    bad_float = _doc(Q, 2, [(3, [1])])
    bad_float["branch"]["y_terms"][0]["coeff"] = [1.5]
    bad_key = _doc(Q, 2, [(3, [1])])
    bad_key["branch"]["colour"] = "red"
    items.append(_item("err_float_coeff", bad_float, 30, exit_code=2))
    items.append(_item("err_unknown_key", bad_key, 30, exit_code=2))
    items.append(_item("err_not_squarefree",
                       _doc([1, 2, 1], 2, [(3, [1, 0])]), 30, exit_code=3))
    return items


def corpus(rng):
    items = _corpus_items()
    rng.shuffle(items)
    return items


# Every document below stays under about 0.5 s per command on a shared
# 2-vCPU virtual machine (the figures below come from one), so that a run
# has several rounds to take each document's median over; the ladders stop
# where they do for that reason.

# --- cusp_ladder --------------------------------------------------------------

CUSP_CURVE_KS = (6, 10, 14, 18)
CUSP_DIVISORIAL = ((8, 1), (12, 2), (16, 3))
CUSP_DIVISORIAL_V = 16


def _cusp(k, mode="curve"):
    # y = t^(2k+1) + t^(2k+2) + t^(2k+3): the higher terms keep the graph
    # of the cusp and give the seeded signs more to carry.
    top = 2 * k + 1
    return _doc(Q, 2, [(top, [1]), (top + 1, [1]), (top + 2, [1])], mode)


def cusp_ladder(rng):
    items = []
    for k in CUSP_CURVE_KS:
        items.append(_item("cusp_k%d" % k, _cusp(k), 2 * k + 10))
    for k, extra in CUSP_DIVISORIAL:
        items.append(_item("cusp_k%d_div%d" % (k, extra),
                           _cusp(k, _divisorial(extra)), CUSP_DIVISORIAL_V))
    items = [_with_signs(it, rng) for it in items]
    rng.shuffle(items)
    return items


# --- oracle_quartic -----------------------------------------------------------

def oracle_quartic(rng):
    # biq_two_jumps (x = t) has far more monomials per level than the
    # cusps (1 s at V=40, 13 s at V=80), so its ladder stays low.
    biq_cusp = _doc(BIQ, 2, [(3, _S2), (5, _S3)])
    qrt_cusp = _doc(QRT2, 2, [(5, _gen(QRT2))])
    ladders = [
        ("biq_cusp", biq_cusp, (40, 60, 80)),
        ("qrt_cusp", qrt_cusp, (40, 80, 120)),
        ("biq_two_jumps", _doc(BIQ, 1, [(1, _S2), (2, _S3)]), (24, 32)),
        ("biq_cusp_div1", dict(biq_cusp, mode=_divisorial(1)), (20, 24)),
        ("qrt_cusp_div1", dict(qrt_cusp, mode=_divisorial(1)), (20, 30, 40)),
    ]
    items = [_item("%s_V%d" % (name, V), doc, V)
             for name, doc, ladder in ladders for V in ladder]
    items = [_with_signs(it, rng) for it in items]
    rng.shuffle(items)
    return items


# --- multipair_fields ---------------------------------------------------------

def multipair_fields(rng):
    one2 = _one(SQ2)
    r2 = _gen(SQ2)
    # x=t^4, y=t^6+sqrt2 t^7+t^9 (2.8 s), y=t^6+t^7+sqrt2 t^10 (23 s),
    # x=t^8 over Q(sqrt 2) and x=t^12 (6-7 s) are too long for one call
    # here. These keep two or three characteristic pairs; the three over
    # Q(sqrt 2) each have a field jump.
    items = [
        _item("sq2_x4_r6_7", _doc(SQ2, 4, [(6, r2), (7, one2)]), 60),
        _item("sq2_x4_6_7_r8",
              _doc(SQ2, 4, [(6, one2), (7, one2), (8, r2)]), 60),
        _item("sq2_x6_9_r10_11",
              _doc(SQ2, 6, [(9, one2), (10, r2), (11, one2)]), 60),
        _item("q_x8_12_14_15",
              _doc(Q, 8, [(12, [1]), (14, [1]), (15, [1])]), 60),
    ]
    items = [_with_signs(it, rng) for it in items]
    rng.shuffle(items)
    return items


GENERATORS = {
    "corpus": corpus,
    "cusp_ladder": cusp_ladder,
    "oracle_quartic": oracle_quartic,
    "multipair_fields": multipair_fields,
}


def generate(workload, seed):
    """Items of a workload; the same (workload, seed) gives the same items."""
    return GENERATORS[workload](random.Random("%s:%d" % (workload, seed)))


def shape(items):
    """The work shape of a workload: everything but signs and order."""
    out = []
    for it in items:
        doc = it["doc"]
        terms = doc["branch"]["y_terms"]
        out.append((it["id"], json.dumps(doc["ambient"]["min_poly"]),
                    doc["branch"]["x_order"],
                    tuple(t["exp"] for t in terms),
                    tuple(t["coeff"] == "generic" for t in terms),
                    json.dumps(doc["mode"], sort_keys=True),
                    it["max_order"], tuple(sorted(it["expect"].items()))))
    return sorted(out)


def write_documents(items, out_dir):
    """Write one <id>.json per item; returns the paths in item order."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for it in items:
        path = os.path.join(out_dir, it["id"] + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(it["doc"], handle, sort_keys=True)
        paths.append(path)
    return paths


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    items = generate(args.workload, args.seed)
    write_documents(items, args.out)
    print("# %s: %s" % (args.workload, WHY[args.workload]))
    for it in items:
        print("%-32s max_order=%-4d expect=%s"
              % (it["id"], it["max_order"], it["expect"]))


if __name__ == "__main__":
    main()
