"""Golden run: a small seeded CLI sequence must reproduce its artifacts byte for byte.

The digests below were recorded from this exact sequence with numpy 2.4.6 on
OpenBLAS 0.3.31.  The corpus files are pinned too, except the corpus
manifest, which records the commit hash.  A refactor that keeps behaviour leaves every one of them
unchanged; a change that moves one on purpose must say so and record the new
digest.  Another BLAS build may round matrix products differently.
"""

import csv
import hashlib
import io
import os

from prunelab.cli import main
from prunelab.corpus import LanguageSpec, build_inventories, gen_corpus

SEED = "7"
TOY = ["--layers", "2", "--heads", "2", "--dim", "16", "--ffn-dim", "32",
       "--max-seq-len", "32"]
SMALL = ["--batch-size", "16", "--seq-len", "12", "--seed", SEED]
# prune and ds-train also score components on a few batches
SMALL_PRUNE = [*SMALL, "--importance-batches", "2"]

SEQUENCE = [
    ["gen-corpus", "--out", "corpus", "--languages", "3", "--seed", SEED],
    ["pretrain", "--corpus", "corpus", "--steps", "30", "--lr", "3e-3", *TOY, *SMALL],
    ["prune", "--algo", "grad", "--corpus", "corpus", "--baseline", f"pretrain-s{SEED}",
     "--setting", "non-shared", "--target-size", "0.5", "--steps", "6", *SMALL_PRUNE],
    ["prune", "--algo", "l0-improved", "--corpus", "corpus", "--baseline",
     f"pretrain-s{SEED}", "--setting", "non-shared", "--steps", "12", "--alpha-lr", "0.8",
     *SMALL_PRUNE],
    ["prune", "--algo", "l0", "--corpus", "corpus", "--baseline", f"pretrain-s{SEED}",
     "--setting", "shared", "--steps", "8", *SMALL_PRUNE],
    ["ds-train", "--algo", "ds-grad", "--corpus", "corpus", "--baseline",
     f"pretrain-s{SEED}", "--setting", "shared", "--steps", "8", *SMALL_PRUNE],
    ["ds-train", "--algo", "ds-l0", "--corpus", "corpus", "--baseline",
     f"pretrain-s{SEED}", "--setting", "non-shared", "--steps", "9", *SMALL_PRUNE],
    # the three cells below share the training loop with the runs above; the
    # default run id ignores --setting, so each names its own directory
    ["prune", "--algo", "grad", "--corpus", "corpus", "--baseline", f"pretrain-s{SEED}",
     "--setting", "shared", "--target-size", "0.5", "--steps", "6",
     "--run-id", f"prune-grad-shared-s{SEED}", *SMALL_PRUNE],
    ["ds-train", "--algo", "ds-grad", "--corpus", "corpus", "--baseline",
     f"pretrain-s{SEED}", "--setting", "non-shared", "--steps", "8",
     "--run-id", f"ds-grad-non-shared-s{SEED}", *SMALL_PRUNE],
    ["ds-train", "--algo", "ds-l0", "--corpus", "corpus", "--baseline",
     f"pretrain-s{SEED}", "--setting", "shared", "--steps", "9",
     "--run-id", f"ds-l0-shared-s{SEED}", *SMALL_PRUNE],
    ["report", "--run", f"ds-grad-s{SEED}", "--figure", "size-curve"],
    ["report", "--run", f"ds-l0-s{SEED}", "--figure", "size-curve"],
    ["report", "--run", f"prune-grad-s{SEED}", "--figure", "hamming"],
    ["report", "--run", f"prune-l0-improved-s{SEED}", "--figure", "hamming"],
    ["report", "--run", f"prune-grad-s{SEED}", "--figure", "layer-profile"],
    ["report", "--run", f"prune-l0-s{SEED}", "--figure", "layer-profile"],
    # the probe path and the corr writer; two epochs keep the probe short
    ["eval-probe", "--corpus", "corpus", "--run", f"pretrain-s{SEED}", "--epochs", "2",
     *SMALL],
    ["eval-probe", "--corpus", "corpus", "--run", f"prune-grad-s{SEED}", "--epochs", "2",
     *SMALL],
    ["report", "--run", f"prune-grad-s{SEED}", "--figure", "corr", "--corpus", "corpus",
     "--probe-baseline", os.path.join("runs", f"pretrain-s{SEED}", "probe.csv")],
    # the probe at every size of a DS grid; the fewest timing reps, since throughput
    # is not pinned
    ["sweep", "--corpus", "corpus", "--run", f"ds-grad-s{SEED}", "--grid", "0.2:1.0:0.4",
     "--epochs", "2", "--reps", "3", *SMALL],
]

CORPUS = {
    "ar.txt": "9dba044d83ff7d8dd09eb4722abdc1d75aa012e622e9777d30eca659df5d977b",
    "de.txt": "9b34297217b0aa1fa6432a63cbbf4a7693f7d76844b403513ad42408d5f7aae5",
    "en.txt": "242756a458e29298140fa3aa985bd103016b6f9f574b8913897d36efbf1ccf08",
    "languages.csv": "6723ca8ea152d0a09190a7a0dc1e6d798e629351164045afa390e4c5e147125b",
    "vocab.tsv": "b78949bc7a1e5c4936bbbd8323ee1f2795cc77ab45c2553d6b73a23e9b0d194c",
}

GOLDEN = {
    "ds-grad-non-shared-s7/ds.csv":
        "25fa07af66aa51e31acf4b9b7282c284497b0dc41e6fd44ac21f584be6cac304",
    "ds-grad-non-shared-s7/metrics.csv":
        "05a31b5b55e97aedf4dfaa679dcec9b22880472d199e46f3a9a1ffb319ea755d",
    "ds-grad-s7/ds.csv":
        "b99cb9cd3ec951691d6a4964fbe80318b70c48363e4dd2f8788fbe636a62ac03",
    "ds-grad-s7/metrics.csv":
        "b631ef261a6b4e8add066bd7af770453391c1fa727e613be46cb565415a8a44a",
    "ds-grad-s7/report_size-curve_ds-grad-s7.csv":
        "13879f3fd5b51cb3396adf7b4af0739957fe772a76909c6797f8a01671bf32a1",
    "ds-grad-s7/sweep.csv":
        "9e10b6b00886c5d60a14b7c040aa20807a47701f657abb519dc1d1810cb1dba3",
    "ds-l0-s7/ds.csv":
        "0f13072706f6a774351c8c239f027ddfe75125d8ef09e5e814a833b1385e89b0",
    "ds-l0-s7/metrics.csv":
        "e454bedc1e571716a15fee2b24706ae2188b6cafcd2c6809a81b9fda2dffdbad",
    "ds-l0-s7/report_size-curve_ds-l0-s7.csv":
        "cac4f824c02a35232b9d83cc5fae354fb5f8ed1ea5e83a671e7c7c883d1db6b5",
    "ds-l0-shared-s7/ds.csv":
        "02a63c1beeb992527b7409c6c97342a43a5db14e0b106e4888197c69a77cb01b",
    "ds-l0-shared-s7/metrics.csv":
        "05a8a1085c1d43106e86ccabe70f20801067dcb7684697661fa1307a7f167e89",
    "pretrain-s7/metrics.csv":
        "0c23ff5a38f33a7f566f839032fcac9f8c5c7ca69b22906b7bfb77920ce76415",
    "pretrain-s7/probe.csv":
        "684579163a772babfee512c9f2258a2fdffdebc25ba4e95bb690bcd9f41c934e",
    "prune-grad-s7/gates_ar.txt":
        "0ab7a613e6a01ae85fa52f724585f962296066fe0c599d366600eb3d828d267c",
    "prune-grad-s7/gates_de.txt":
        "413365e38a54c1781c714055e9132605b032b70c9853c3bf3eae28b97473c2d5",
    "prune-grad-s7/gates_en.txt":
        "49905a203792198608ac14236c285beb054884f53417a17155a2e3b4b2ffadf0",
    "prune-grad-s7/importance_ar.csv":
        "705853a7a8255ec2a4c5067c111780a8fe50dc9400c862147e6260eed179e475",
    "prune-grad-s7/importance_de.csv":
        "1f3e0899685255e1059941d9fa2535d5967b8eab9927a1f2a947f385456feb54",
    "prune-grad-s7/importance_en.csv":
        "666866325b61fe4bb4a62c09cde4cc1ea773d4f179dfc194d35bfe49cf54466b",
    "prune-grad-s7/metrics.csv":
        "911d75d9ec2efbbc4ff156c60cef75ed88ecc6209b427adf8a8d4ea8ed98a568",
    "prune-grad-s7/probe.csv":
        "851d9b6822de116d432731da29e5b422d4e60873f81cf2593f512677164b88bc",
    "prune-grad-s7/report_corr_prune-grad-s7.csv":
        "3e2328773bef53b41638691cc3d3e4f0e64daca4f65ad1dc52f5f70e557c0433",
    "prune-grad-s7/report_hamming_prune-grad-s7.csv":
        "161993d7e68ef9e9cd87cb4593ea7eb3dedc4617b65773d292faf6a5723cdba3",
    "prune-grad-s7/report_layer-profile_prune-grad-s7.csv":
        "e52636c721366b52fa06d8bf957f075fc4996b51d8871bb27d55fe7df93b0d4f",
    "prune-grad-shared-s7/gates_shared.txt":
        "4c68fafa61c43245f800a8356271b75988f6f0b6187e04ad904684d9984a89d2",
    "prune-grad-shared-s7/importance_shared.csv":
        "5411a4d602d9566191b53e4dd3a60a277275e6dab5b27176530f169c22b8c1a9",
    "prune-grad-shared-s7/metrics.csv":
        "b75f92cd637629bc8e00a8382af46bb3de0b7c6a290c467542048c389ff03d49",
    "prune-l0-improved-s7/alphas.csv":
        "2d0c8aa6169db462ec1b0838391c51a9722e80af86ea93ddf4487274c6f8e6d1",
    "prune-l0-improved-s7/gates_ar.txt":
        "e516c4b1bda56df626f488db1cd405f6a7f4667a359e91a3a163e51d3c438245",
    "prune-l0-improved-s7/gates_de.txt":
        "58f802a6744176d677900f469e974ac88a0e5d42d798b5e76e5b365b2c222c08",
    "prune-l0-improved-s7/gates_en.txt":
        "b104acfb3097063f0d55f5edb923ab5daecb9cd17064330b2095d618e3f5df55",
    "prune-l0-improved-s7/metrics.csv":
        "c6fa3e738687fce013bdb5d1a08a6af1f4c0e0df4d082348a2c33b7dd5d39bf1",
    "prune-l0-improved-s7/report_hamming_prune-l0-improved-s7.csv":
        "bcae08e66b3ef7d8fd9f4d502be9b6933faa5c4e4e8cb11c2637d758856a38b9",
    "prune-l0-s7/alphas.csv":
        "e1f9b9fb8e1a62046d2e5f188d4cd11cea98294ffe65441da6be62479dcfb301",
    "prune-l0-s7/gates_shared.txt":
        "c481c7574e9143f89838de82777732f0573bb0dda4d225a2b1e3a5e9f88528cd",
    "prune-l0-s7/metrics.csv":
        "2f57942b3285c8dfaae0d0916b8f8037215f309f0f3208ee8502c35dc04624a6",
    "prune-l0-s7/report_layer-profile_prune-l0-s7.csv":
        "d7cb1f667aae74b5c6cb9e795f5973157be3fbcf75d938f31ce7ddc14c2a8309",
}


# measured throughput differs run to run, so the digest skips that column
TIMING_COLUMNS = {"sweep.csv": "sentences_per_sec"}


def _golden_file(name: str) -> bool:
    return (name in ("alphas.csv", "ds.csv", "metrics.csv", "probe.csv", "sweep.csv")
            or (name.startswith("gates_") and name.endswith(".txt"))
            or (name.startswith(("importance_", "report_")) and name.endswith(".csv")))


def _digests(root) -> dict[str, str]:
    out = {}
    for run in sorted(os.listdir(root)):
        for name in sorted(os.listdir(os.path.join(root, run))):
            if _golden_file(name):
                with open(os.path.join(root, run, name), "rb") as f:
                    data = f.read()
                if name in TIMING_COLUMNS:
                    rows = list(csv.reader(io.StringIO(data.decode())))
                    col = rows[0].index(TIMING_COLUMNS[name])
                    data = "\n".join(",".join(r[:col] + r[col + 1:]) for r in rows).encode()
                out[f"{run}/{name}"] = hashlib.sha256(data).hexdigest()
    return out


def _corpus_digests(root) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(root)):
        if name != "manifest.json":
            with open(os.path.join(root, name), "rb") as f:
                out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


def _run_and_compare(tmp_path, monkeypatch, capsys, sequence, golden, corpus):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PRUNELAB_RUNS", str(tmp_path / "runs"))
    for argv in sequence:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert _corpus_digests(tmp_path / "corpus") == corpus
    got = _digests(tmp_path / "runs")
    assert sorted(got) == sorted(golden)
    changed = [path for path in golden if got[path] != golden[path]]
    assert not changed, f"artifacts differ from the golden run: {changed}"


def test_golden_run_artifacts_are_byte_identical(tmp_path, monkeypatch, capsys):
    _run_and_compare(tmp_path, monkeypatch, capsys, SEQUENCE, GOLDEN, CORPUS)


# Eight languages: the per-language size terms of the L0 objectives are summed
# over eight rows here, so a change in how that sum is grouped moves a digest
# (three terms are too few to show every regrouping).
EIGHT = [("en", "Indo-European"), ("de", "Indo-European"), ("ar", "Afro-Asiatic"),
         ("he", "Afro-Asiatic"), ("tr", "Turkic"), ("kk", "Turkic"),
         ("fi", "Uralic"), ("hu", "Uralic")]

SEQUENCE_8 = [
    ["pretrain", "--corpus", "corpus", "--steps", "16", "--lr", "3e-3", *TOY, *SMALL],
    ["prune", "--algo", "l0-improved", "--corpus", "corpus", "--baseline",
     f"pretrain-s{SEED}", "--setting", "non-shared", "--steps", "24", "--alpha-lr", "0.8",
     *SMALL_PRUNE],
    ["prune", "--algo", "l0", "--corpus", "corpus", "--baseline", f"pretrain-s{SEED}",
     "--setting", "non-shared", "--steps", "16", *SMALL_PRUNE],
    ["ds-train", "--algo", "ds-l0", "--corpus", "corpus", "--baseline",
     f"pretrain-s{SEED}", "--setting", "non-shared", "--steps", "24", *SMALL_PRUNE],
]

CORPUS_8 = {
    "ar.txt": "110d0cbfe8a44eecdc2ab5d2e11e045fec0db146b317ac6c214a1ee61b2800ca",
    "de.txt": "ab75fffe147676d91a9b1be4bab7063b5c9859348884b45b96bb0e3be689248e",
    "en.txt": "5ef8c527c984b55c33384a98a9fe9e4370bdee1dd2207f8f878efdd60ff69972",
    "fi.txt": "0dc0092a77e635c88081af0d399c845cc1f182cea81a33e46715cd836e542ca9",
    "he.txt": "015d3b1e9cdeb6174e813d867ea77b416e6334b6077f8ce9aa1cafd06236b02c",
    "hu.txt": "ca5eafd4879f9948d614710d9ad38b01cef73fbdba4dc73436b388192cf4b73d",
    "kk.txt": "766c1c556cf8986b2aef533aa2e50d9a726a8e528e4bc00f2dd6f66be23fcf15",
    "languages.csv": "d7b4f64e4a038845c2b9fbfb9c67a66daa0e1dc57db46f9e2f3789ac5aa35648",
    "tr.txt": "886cca9f42d48a9fcde514ceccc10cb2fec4126d557de907bf9bbdf37addab77",
    "vocab.tsv": "4f70b10c7b3236e2284b9c2cea6a0ddf8130adccca219f7fa3fccc65b3cdbc7e",
}

GOLDEN_8 = {
    "ds-l0-s7/ds.csv":
        "93721bd880711bb70c03b2cd7fb5ba39ca4e161ed1407aeb236c58027bef647a",
    "ds-l0-s7/metrics.csv":
        "44dcbde9d0e9c287ab59bff6f84874f053ffc3595c8ee359af3f65db47df7f32",
    "pretrain-s7/metrics.csv":
        "836ae1b76ab26f0c679bb8258be185b1568d118ba0e6160c857fdd83e07d3733",
    "prune-l0-improved-s7/alphas.csv":
        "1608470fa435532c93c3276ab8bb35c5f1f5be78c763b1433b6ccbeb41cc9b77",
    "prune-l0-improved-s7/gates_ar.txt":
        "eb387cc0ebb65d6ac4b1c4c9a0ff6fdabdfea155b1aa6e0811987cc9c99ba946",
    "prune-l0-improved-s7/gates_de.txt":
        "dfc52483dad5657db634c81ceffc328698ca518776ed9997614f7f729e68497f",
    "prune-l0-improved-s7/gates_en.txt":
        "6fde0896b9e10d28848801bc770126086af1d7c53ac2f94528f2ee43d63fc44c",
    "prune-l0-improved-s7/gates_fi.txt":
        "c124fd91a3c2c0ae313447e20c425c10889c3589f08f91862b57f72226b82fcd",
    "prune-l0-improved-s7/gates_he.txt":
        "b104acfb3097063f0d55f5edb923ab5daecb9cd17064330b2095d618e3f5df55",
    "prune-l0-improved-s7/gates_hu.txt":
        "b104acfb3097063f0d55f5edb923ab5daecb9cd17064330b2095d618e3f5df55",
    "prune-l0-improved-s7/gates_kk.txt":
        "b104acfb3097063f0d55f5edb923ab5daecb9cd17064330b2095d618e3f5df55",
    "prune-l0-improved-s7/gates_tr.txt":
        "b104acfb3097063f0d55f5edb923ab5daecb9cd17064330b2095d618e3f5df55",
    "prune-l0-improved-s7/metrics.csv":
        "f4f5e6e610cc0749c932e73b838abdde5c00931a600a6d76ad205073eeaacb8b",
    "prune-l0-s7/alphas.csv":
        "2d8ea0a3ac1474020b9d6f1795dd9748b9f49925409650f779e8d4b4b2bcc799",
    "prune-l0-s7/gates_ar.txt":
        "d375047ab546dd487bbe60e8c5ac0a61122fc9ea9333b3ac0438c1eda32f2ef1",
    "prune-l0-s7/gates_de.txt":
        "11c74c587c0499c04499e694d11fc8a65eb95424dafe524aa0fa27dbb96b7e00",
    "prune-l0-s7/gates_en.txt":
        "4de591a154307b001e6dc6fd9002a1d51117c7d684c0dc40082be08ec2d687ce",
    "prune-l0-s7/gates_fi.txt":
        "fcc1f73fe4b7c1fcc567da7c4cb5d4b0b6612bfb5531a45d8b2187ab8c45f9f5",
    "prune-l0-s7/gates_he.txt":
        "af99edb1d0bef964f7974a20ba66037920888200a24cc28579a48fed00c3b167",
    "prune-l0-s7/gates_hu.txt":
        "b104acfb3097063f0d55f5edb923ab5daecb9cd17064330b2095d618e3f5df55",
    "prune-l0-s7/gates_kk.txt":
        "b104acfb3097063f0d55f5edb923ab5daecb9cd17064330b2095d618e3f5df55",
    "prune-l0-s7/gates_tr.txt":
        "b104acfb3097063f0d55f5edb923ab5daecb9cd17064330b2095d618e3f5df55",
    "prune-l0-s7/metrics.csv":
        "a5c34a4c154c2caa9140cfe2edd06e4c52e4c474b1fac4b0dca89682b423089a",
}


def test_golden_run_eight_languages_is_byte_identical(tmp_path, monkeypatch, capsys):
    specs = build_inventories([LanguageSpec(code, family, 60, 100 + i)
                               for i, (code, family) in enumerate(EIGHT)], inventory_size=12)
    gen_corpus(specs, seed=int(SEED)).save(tmp_path / "corpus")
    _run_and_compare(tmp_path, monkeypatch, capsys, SEQUENCE_8, GOLDEN_8, CORPUS_8)
