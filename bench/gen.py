"""Seeded corpus generator for the benchmark workloads.

Two grammars, both fixed; only the trees depend on the seed:

* ``toy``: the nine-rule air-travel grammar of ``corpora/toy``, with
  recursive ``np_np_pp`` and ``vp_vp_pp`` attachment.
* ``layered``: twelve phrase categories ``s``, ``c1`` .. ``c11`` with
  four rules each (48 rules).  A rule of layer i only names categories
  of layers i+1 to i+3 and six terminal categories, so trees are at
  most twelve phrase levels deep.

Trees are nested tuples: ``(rule_id, child, ...)`` for a rule
application and ``("lex", word)`` for a lexical lookup.  Depth is capped
far below the nesting at which the recursive parts of treecut overflow
the interpreter stack (a few hundred levels).

Usage: ``python3 bench/gen.py --corpus toy --train 2000 --test 500
--seed 1.0 --out DIR`` writes ``grammar.txt``, ``train.txt`` and
``test.txt`` into DIR; that is corpus 0 of seed 1 of bisect-mixed.
"""

import argparse
import os
import random

LEX = "lex"

TOY_RULES = (
    ("s_np_vp", "s", ("np", "vp")),
    ("np_np_pp", "np", ("np", "pp")),
    ("np_det_n", "np", ("det", "n")),
    ("np_pron", "np", ("pron",)),
    ("np_num", "np", ("num",)),
    ("vp_vp_pp", "vp", ("vp", "pp")),
    ("vp_v_np", "vp", ("v", "np")),
    ("vp_v", "vp", ("v",)),
    ("pp_prep_np", "pp", ("prep", "np")),
)

# Relative weights of each rule within its category.
TOY_WEIGHTS = {
    "s_np_vp": 1.0,
    "np_np_pp": 0.22,
    "np_det_n": 0.45,
    "np_pron": 0.23,
    "np_num": 0.10,
    "vp_vp_pp": 0.25,
    "vp_v_np": 0.55,
    "vp_v": 0.20,
    "pp_prep_np": 1.0,
}

WORDS = {
    "det": ("a", "the", "every", "some", "this"),
    "n": ("flight", "ticket", "fare", "seat", "morning", "departure", "meal"),
    "pron": ("I", "we", "you", "they", "he"),
    "num": ("ten", "two", "six", "noon", "nine"),
    "v": ("want", "need", "book", "have", "show", "departs", "leaves"),
    "prep": ("to", "from", "in", "at", "on", "for"),
}

# Chance that the object of a ``pp_prep_np`` is a bare lexical lookup,
# as in ``(pp_prep_np (lex to) (lex Boston))``.
LEX_FILL = 0.06

# (depth cap, weight multiplier of the recursive rules).  The held-out
# set nests deeper than training, so some of it cannot be tiled.
TRAIN_SHAPE = (7, 1.0)
TEST_SHAPE = (14, 1.9)


def layered_rules():
    """The fixed 48-rule layered grammar, built from a constant seed."""
    rng = random.Random(48)
    rules = []
    for i in range(12):
        cat = "s" if i == 0 else f"c{i}"
        later = [f"c{j}" for j in range(i + 1, min(i + 4, 12))]
        for k in range(4):
            arity = rng.choice((1, 2, 2, 3)) if later else rng.choice((1, 2))
            rhs = []
            for _ in range(arity):
                if later and rng.random() < 0.55:
                    rhs.append(rng.choice(later))
                else:
                    rhs.append(f"w{rng.randrange(6)}")
            rules.append((f"r{i}_{k}", cat, tuple(rhs)))
    return tuple(rules)


LAYERED_RULES = layered_rules()
LAYERED_WORDS = {f"w{k}": tuple(f"w{k}x{m}" for m in range(4)) for k in range(6)}
# Rule weights of layer i are LAYER_WEIGHTS[i % 4].  Layers differ
# clearly in arc entropy, so which classes the iterated selection cuts
# is a property of the grammar and not of one sample of trees: with one
# shared skew, the number of closure calls swung between 21 and 38
# from seed to seed.
LAYER_WEIGHTS = (
    (0.25, 0.25, 0.25, 0.25),
    (0.8, 0.1, 0.05, 0.05),
    (0.4, 0.3, 0.2, 0.1),
    (0.9, 0.04, 0.03, 0.03),
)

GRAMMARS = {"toy": TOY_RULES, "layered": LAYERED_RULES}


def toy_tree(rng, cat, depth, max_depth, recursion, lex_fill=False):
    """A random toy-grammar subtree of category *cat*.

    Recursive rules are offered only while *depth* is below
    *max_depth*, with their weight times *recursion*; *lex_fill* lets a
    bare lexical lookup stand for the phrase.
    """
    if cat in WORDS:
        return (LEX, rng.choice(WORDS[cat]))
    if lex_fill and rng.random() < LEX_FILL:
        return (LEX, rng.choice(WORDS["n"]))
    options = [r for r in TOY_RULES if r[1] == cat]
    weights = []
    for rule_id, _, rhs in options:
        w = TOY_WEIGHTS[rule_id]
        if cat in rhs:
            w = w * recursion if depth < max_depth else 0.0
        weights.append(w)
    rule_id, _, rhs = rng.choices(options, weights)[0]
    return (rule_id,) + tuple(
        toy_tree(rng, c, depth + 1, max_depth, recursion, rule_id == "pp_prep_np")
        for c in rhs
    )


def layered_tree(rng, cat):
    if cat in LAYERED_WORDS:
        return (LEX, rng.choice(LAYERED_WORDS[cat]))
    options = [r for r in LAYERED_RULES if r[1] == cat]
    layer = 0 if cat == "s" else int(cat[1:])
    rule_id, _, rhs = rng.choices(options, LAYER_WEIGHTS[layer % 4])[0]
    return (rule_id,) + tuple(layered_tree(rng, c) for c in rhs)


def make_trees(rng, corpus, n, deep=False):
    """*n* complete parses; *deep* selects the toy test-set shape."""
    if corpus == "toy":
        max_depth, recursion = TEST_SHAPE if deep else TRAIN_SHAPE
        return [toy_tree(rng, "s", 0, max_depth, recursion) for _ in range(n)]
    return [layered_tree(rng, "s") for _ in range(n)]


def render(tree) -> str:
    if tree[0] == LEX:
        return f"({LEX} {tree[1]})"
    return "(" + tree[0] + " " + " ".join(render(c) for c in tree[1:]) + ")"


def grammar_text(corpus: str) -> str:
    return "".join(
        f"{rid} {lhs} -> {' '.join(rhs)}\n" for rid, lhs, rhs in GRAMMARS[corpus]
    )


def generate(corpus: str, n_train: int, n_test: int, seed):
    """(training trees, test trees); the test set nests deeper.

    The same corpus name, sizes and seed give the same trees.
    """
    rng = random.Random(f"{corpus}/{seed}")
    training = make_trees(rng, corpus, n_train)
    test = make_trees(rng, corpus, n_test, deep=True)
    return training, test


def write_corpus(out_dir: str, corpus: str, training, test) -> dict:
    """Write the three input files; returns their paths by role."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "grammar": os.path.join(out_dir, "grammar.txt"),
        "train": os.path.join(out_dir, "train.txt"),
        "test": os.path.join(out_dir, "test.txt"),
    }
    bodies = {
        "grammar": grammar_text(corpus),
        "train": "".join(render(t) + "\n" for t in training),
        "test": "".join(render(t) + "\n" for t in test),
    }
    for role, path in paths.items():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(bodies[role])
    return paths


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--corpus", choices=sorted(GRAMMARS), required=True)
    parser.add_argument("--train", type=int, required=True)
    parser.add_argument("--test", type=int, required=True)
    parser.add_argument("--seed", required=True, help="any string; run.py uses SEED.J")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    training, test = generate(args.corpus, args.train, args.test, args.seed)
    for path in write_corpus(args.out, args.corpus, training, test).values():
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
