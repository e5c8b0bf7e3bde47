"""Regenerate the vanilla-L0 controllability report under reports/.

Sweeps lambda1 for vanilla L0 gate learning on the fixed eight-language toy
setup and records the hardened retained fraction each value reaches.  The
same setup trained with the improved objective (size constraint plus
diversity penalty) is run once at its default lambda1 for contrast.

Usage: python3 scripts/vanilla_l0_report.py [--steps N] [--improved-steps N] [--seed S]
       [--out DIR]
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from prunelab.analysis import write_report
from prunelab.corpus import LanguageSpec, build_inventories, gen_corpus
from prunelab.encoder import ModelConfig
from prunelab.grad_prune import NON_SHARED, SHARED
from prunelab.trainer import TrainSchedule, pretrain_baseline, run_l0_pruning

TOY = ModelConfig(n_layers=2, n_heads=2, model_dim=16, ffn_dim=32,
                  vocab_size=86, max_seq_len=32)

EIGHT = [("en", "Indo-European"), ("de", "Indo-European"),
         ("ar", "Afro-Asiatic"), ("he", "Afro-Asiatic"),
         ("tr", "Turkic"), ("kk", "Turkic"),
         ("fi", "Uralic"), ("hu", "Uralic")]

LAMBDAS = (0.5, 1.0, 2.0, 4.0, 8.0, 32.0, 128.0)
TARGET = 0.5


def eight_language_corpus():
    specs = build_inventories(
        [LanguageSpec(c, f, 300, 100 + i) for i, (c, f) in enumerate(EIGHT)],
        inventory_size=12)
    return gen_corpus(specs, seed=9)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=8000)
    ap.add_argument("--improved-steps", type=int, default=24000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default=os.path.join(os.path.dirname(__file__), "..", "reports"))
    args = ap.parse_args(argv)

    corpus = eight_language_corpus()
    pre = TrainSchedule(total_steps=1500, batch_size=32, seq_len=16,
                        learning_rate=3e-3, seed=args.seed)
    base = pretrain_baseline(TOY, corpus, pre)

    rows = []
    for lam in LAMBDAS:
        t0 = time.perf_counter()
        sched = TrainSchedule(total_steps=args.steps, batch_size=16, seq_len=16,
                              learning_rate=1e-3, alpha_lr=0.8,
                              target_size=TARGET, setting=SHARED,
                              algorithm="l0_vanilla", lambda1=lam, seed=args.seed)
        res = run_l0_pruning(base.model, corpus, sched)
        size = res.achieved_sizes[SHARED]
        rows.append({"lambda1": lam, "retained_fraction": size, "sparsity": 1.0 - size})
        print(f"lambda1={lam:<8g} retained={size:.4f} sparsity={1 - size:.4f} "
              f"({time.perf_counter() - t0:.0f}s)", flush=True)

    sched = TrainSchedule(total_steps=args.improved_steps, batch_size=16, seq_len=16,
                          learning_rate=1e-3, alpha_lr=0.8, target_size=TARGET,
                          setting=NON_SHARED, algorithm="l0_improved",
                          lambda1=8.0, lambda2=1.0, seed=args.seed)
    imp = run_l0_pruning(base.model, corpus, sched)
    imp_sizes = dict(sorted(imp.achieved_sizes.items()))
    print("improved:", {k: round(v, 4) for k, v in imp_sizes.items()}, flush=True)

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "vanilla_l0_sweep.csv")
    write_report(rows, ("lambda1", "retained_fraction", "sparsity"), csv_path)

    worst_imp = max(abs(v - TARGET) for v in imp_sizes.values())
    md_path = os.path.join(args.out, "vanilla_l0_sweep.md")
    with open(md_path, "w") as f:
        f.write("# Vanilla-L0 sparsity controllability sweep\n\n")
        f.write(f"Setup: eight-language toy corpus, 2-layer encoder "
                f"(d=16, 2 heads, ffn 32), {args.steps} gate-learning steps, "
                f"seed {args.seed}, shared setting, target size t={TARGET}.\n\n")
        f.write("| lambda1 | retained fraction | sparsity |\n|---|---|---|\n")
        for r in rows:
            f.write(f"| {r['lambda1']:g} | {r['retained_fraction']:.4f} | {r['sparsity']:.4f} |\n")
        f.write("\nVanilla L0 exposes no target-size control: the objective "
                "never sees the desired size, so the achieved sparsity is "
                "whatever the penalty-versus-loss balance happens to give.  "
                "The mapping is steep - quadrupling lambda1 from 2 to 8 "
                f"moves sparsity from {rows[2]['sparsity']:.1%} to {rows[4]['sparsity']:.1%}, "
                f"and the adjacent decade covers {rows[0]['sparsity']:.1%} to "
                f"{rows[5]['sparsity']:.1%} - so any single preset value lands far "
                "from a given budget, and the one sweep point that comes "
                "close (lambda1=4) is only known after running the sweep.  "
                "Hitting a new budget, model size or corpus means searching "
                "again.\n\n")
        f.write(f"The improved objective (size constraint + diversity, "
                f"lambda1=8, lambda2=1, {args.improved_steps} steps, "
                "non-shared) hits the same target directly for every "
                "language:\n\n")
        f.write("| language | retained fraction |\n|---|---|\n")
        for lang, v in imp_sizes.items():
            f.write(f"| {lang} | {v:.4f} |\n")
        f.write(f"\nWorst per-language deviation from t: {worst_imp:.4f} "
                "(tolerance 0.05).\n")
    print(f"wrote {csv_path} and {md_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
