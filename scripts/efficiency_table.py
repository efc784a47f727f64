#!/usr/bin/env python3
"""Print a parameter/FLOPs comparison table across all model families.

Takes each model family at a production-like size (default m=39 fields,
d=16 embedding dims, as in large CTR benchmarks) and reports its
non-embedding parameters, summed over its declared parameter layout, and its
closed-form per-instance forward FLOPs. Measured time is the job of the
``perfbench/`` harness.

Example:
    python3 scripts/efficiency_table.py --fields 39 --embed-dim 16
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dagfm.interactions import DagfmPlusSpec, DagfmSpec
from dagfm.metrics import count_flops, count_params
from dagfm.teachers import CinSpec, CrossNetSpec, FmfmSpec, FwfmSpec, TinyMlpSpec


def model_zoo(m: int, d: int, depth: int):
    yield "DAGFM basic-inner", DagfmSpec("basic-inner", m, d, depth)
    yield "DAGFM inner", DagfmSpec("inner", m, d, depth)
    yield "DAGFM kernel", DagfmSpec("kernel", m, d, depth)
    yield "DAGFM outer", DagfmSpec("outer", m, d, depth)
    yield "DAGFM+ (outer, MLP)", DagfmPlusSpec(
        DagfmSpec("outer", m, d, depth), mlp_hidden=(64, 32), mlp_feed="all-states"
    )
    yield "CIN teacher (H=200)", CinSpec(m, d, (200,) * depth)
    yield "CrossNet teacher", CrossNetSpec(m, d, depth)
    yield "FwFM", FwfmSpec(m, d)
    yield "FmFM", FmfmSpec(m, d)
    yield "tiny MLP (400,400)", TinyMlpSpec(m, d, hidden=(400, 400))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fields", type=int, default=39)
    parser.add_argument("--embed-dim", type=int, default=16)
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--vocab", type=int, default=100,
                        help="per-field vocabulary size used for embedding counts")
    args = parser.parse_args(argv)

    vocab = [args.vocab] * args.fields
    header = f"{'model':<22}{'params(non-emb)':>16}{'FLOPs/instance':>16}"
    print(f"m={args.fields} fields, d={args.embed_dim}, depth={args.depth}")
    print(header)
    print("-" * len(header))

    flops = {}
    for name, spec in model_zoo(args.fields, args.embed_dim, args.depth):
        flops[name] = count_flops(spec).total
        params = count_params(spec, vocab).non_embedding
        print(f"{name:<22}{params:>16,}{flops[name]:>16,}")

    ratio = flops["CIN teacher (H=200)"] / flops["DAGFM inner"]
    print(f"\nCIN / DAGFM-inner FLOPs ratio: {ratio:.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
