"""Byte-identity pins: the sha256 of every file small corpus, free-monoid and
abelian `sim` runs write.

The corpus digests were captured from the name-keyed graph code that the
integer-indexed graph replaced, the free `sim` digests from the trie that the
Aho-Corasick automaton replaced, and the abelian `sim` digests from the numpy
lattice engine that the Python-int bitsets replaced; any change to a byte of
these outputs must show up here and be named in CHANGES.md.  The seeded free
runs (poly-random, poly-random-n3 and prob-free) read macrolab's own blake2b
letter stream, so their digests hold on every Python.  So do the 16 digests
of the seeded `synth --kind mixed --seed 5` chain (synth/, ingest/, the
analyze/ files, sweep/ and alt/): they were re-pinned when synth moved from
numpy's PCG64 to the blake2b draws of `macrolab.stream`, and only they; the
corpus-* digests come from the unseeded export and were kept.  The four
`rank` digests (sweep/, alt/ and corpus-rank/) were re-pinned when the walk
moved from a numpy power iteration to one pass over the condensation, and
only they: every pi value moved by at most 3.3e-12, relative, and no rank
moved.  The analyze-kinds/ and analyze-defs/ digests, `--filter-kinds` alone
and followed by `--filter-percentile`, were captured from the code that
inlined removed components into a second condensation, before the filters
read through them instead.  On this graph every non-sink is a definition or
a theorem, so analyze-kinds/ (`definition,theorem`) removes nothing and
pins the path of a kind filter that keeps every element, while analyze-no-theorems/
(`definition,primitive` alone) removes the 154 theorems; its digests were
taken from the code before it replaced a run that pinned the same bytes as
analyze/.
"""

import hashlib
from pathlib import Path

from macrolab.cli import main

# A two-element cycle (a <-> b), an undeclared name (Undeclared) and Sort.
SMALL_EXPORT = (
    '{"format":"macrolab-corpus","version":1}\n'
    '{"name":"a","kind":"definition","signature":"(app (const b) (sort))",'
    '"body":"(lam (const c) (app (const Undeclared) (const c)))",'
    '"token_count_signature":3,"token_count_body":5}\n'
    '{"name":"b","kind":"theorem","signature":"(forallE (sort) (const a))",'
    '"body":null,"token_count_signature":2,"token_count_body":null}\n'
    '{"name":"c","kind":"primitive","signature":"(other)","body":null,'
    '"token_count_signature":1,"token_count_body":null}\n'
    '{"name":"d","kind":"lemma","signature":"(app (const a) (const c))",'
    '"body":"(const d)","token_count_signature":2,"token_count_body":1}\n'
)

RUNS = [
    ("synth", ["synth", "--kind", "mixed", "--nodes", "300", "--seed", "5"], 0),
    ("ingest", ["ingest", "--format", "graph", "--in", "{synth}/graph.jsonl"], 0),
    ("analyze", ["analyze", "--graph", "{ingest}/graph.jsonl", "--full-unwrapped",
                 "--filter-percentile", "50"], 0),
    ("analyze-kinds", ["analyze", "--graph", "{ingest}/graph.jsonl", "--full-unwrapped",
                       "--filter-kinds", "definition,theorem"], 0),
    ("analyze-no-theorems", ["analyze", "--graph", "{ingest}/graph.jsonl", "--full-unwrapped",
                             "--filter-kinds", "definition,primitive"], 0),
    ("analyze-defs", ["analyze", "--graph", "{ingest}/graph.jsonl", "--full-unwrapped",
                      "--filter-kinds", "definition,primitive", "--filter-percentile", "50"], 0),
    ("sweep", ["rank", "--graph", "{ingest}/graph.jsonl", "--sweep", "0.5,0.85"], 0),
    ("alt", ["rank", "--graph", "{ingest}/graph.jsonl", "--alt-deductive",
             "--wrapped-metric", "refs"], 0),
    ("corpus", ["ingest", "--format", "corpus", "--in", "{export}"], 0),
    ("corpus-analyze", ["analyze", "--graph", "{corpus}/graph.jsonl", "--full-unwrapped"], 0),
    ("corpus-rank", ["rank", "--graph", "{corpus}/graph.jsonl", "--alt-deductive"], 0),
]

DIGESTS = {
    "alt/rank.csv": "08e329ecf9feb98b416011de91458e416a7d744a88f79edbf60bfb9cb47c46db",
    "analyze/curve_log2_unwrapped_vs_depth.csv": "2ce1ee949a7eb13c1431e08dacd6f369d271c6fc2239522bd984f1e5823d6ebc",
    "analyze/curve_log2_unwrapped_vs_wrapped.csv": "b2467726409ad7a40779949bfb9486ff7cb5566f3851caa751d80359d4dd0fd1",
    "analyze/curve_wrapped_vs_depth.csv": "cac7dfe5117ede9b9eb5b34fb16707d2de229710ded9a33cb2d4519f66eff604",
    "analyze/fit_log2_unwrapped_vs_depth.csv": "938cad342317a93fb2c70fb9b950142b0e53c6081081a3c235ea676f80359d03",
    "analyze/fit_log2_unwrapped_vs_wrapped.csv": "eb3fd04602c96225933ead53d6d0271d6fcf972794f79be3d7e380bfd9dab676",
    "analyze/fit_wrapped_vs_depth.csv": "826d58b895912ca2235f1f6be154de765b883884dfccdec671d552cb863a5390",
    "analyze/hist_depth.csv": "8cf2fcdc32e1f43f537d748fff88175f53329e77d18fcebe57c37f35f8760ce5",
    "analyze/hist_log2_unwrapped.csv": "7431cbd6ea0bd0ca7c0be9223ee8c4516399b435559cc6dece128b39784a61a7",
    "analyze/hist_wrapped.csv": "0f107d8454d2d38ea608c549051f065eb3d3d7284b26ab723bbbdbefaefb7015",
    "analyze/metrics.csv": "ea641923113530e0ec810bf0397018bbaf5e7bb2e1616ab5e0365f2e955c313a",
    "analyze/regime.csv": "5de55eaaa0959f3a172ade7752e50c40675b25aa0d0cbb7614f0a9d85e081d0d",
    "analyze-defs/curve_log2_unwrapped_vs_depth.csv": "af4a37eeb6b578a152c0491a8a2b31ccd5b133907f9737fa07d6aae9911ba2ec",
    "analyze-defs/curve_log2_unwrapped_vs_wrapped.csv": "427d3dcb181e6d7139dcebe09ab4f95b12b0c3c3d45c4f5d9f27655c03bda162",
    "analyze-defs/curve_wrapped_vs_depth.csv": "c13f8a5f63c560fe2ec3c10e732d8c005bfb69391321279ed258dd98eb32a5c8",
    "analyze-defs/fit_log2_unwrapped_vs_depth.csv": "de4c6f5c4dedefe16eb384738e59ba0253e60889ec16dfc16d28f7dad5350ec6",
    "analyze-defs/fit_log2_unwrapped_vs_wrapped.csv": "a08ceafde5e3bd135d0efe80d98dafaccfde7d683a57ed883868fd2b128ae316",
    "analyze-defs/fit_wrapped_vs_depth.csv": "c28c7893272a669fe870b1aad2c2c331daa1f77b28e0b5b396642c595f51123d",
    "analyze-defs/hist_depth.csv": "4d330ed7151484a7a11d057be2c0ac2d868f0ce9fb5aff52358588434404e392",
    "analyze-defs/hist_log2_unwrapped.csv": "82420cc796f906868a2afc77a2ef0cddd4625c6f8ce4e92aa7ff660eb86750d0",
    "analyze-defs/hist_wrapped.csv": "4ea7eae0a7c742bf5761fd71434efe258350274e93122c4a46e306b0eee42137",
    "analyze-defs/metrics.csv": "ea4d05333c10a677effd8e619003e810fb92a94f78c3be4f3b24fe484254fe77",
    "analyze-defs/regime.csv": "86877c10493638da381b8219ceaef1bbc5787d2b853d56959fd1f272303888d0",
    "analyze-kinds/curve_log2_unwrapped_vs_depth.csv": "ad76a116e757057223fe2edd748a9f6afe0bd5d04f590e9db36b7da2af43df08",
    "analyze-kinds/curve_log2_unwrapped_vs_wrapped.csv": "1712afe47d01a34590bf52c9b22d141e1d9918b6d42dd1ab42de4d58e0fa6455",
    "analyze-kinds/curve_wrapped_vs_depth.csv": "0f48f51ba35c0d0338dbbb041cd81f3c1894668ef644c366ade0d0518fd71eb9",
    "analyze-kinds/fit_log2_unwrapped_vs_depth.csv": "24764f2895545c686f819cc5959f2019d06a53d3dcc88dbc7121aec8bc15ab19",
    "analyze-kinds/fit_log2_unwrapped_vs_wrapped.csv": "5ab82ec633f167280313e148a244c90cd7ecb587f052e0dd89bab7123bf1a9c4",
    "analyze-kinds/fit_wrapped_vs_depth.csv": "4fbf318aa44f7dbadd60658afaff09c8f33849ac4472c2edcf59e3408b17d1ce",
    "analyze-kinds/hist_depth.csv": "55e7c2a6d0db5d79ac9df1f36e23df96ecf179bb1aff181f119898c4026f43b9",
    "analyze-kinds/hist_log2_unwrapped.csv": "43195d8f63fdd92937a76ef309846db2e553b7a2d40e9d325d3736d4b2c83357",
    "analyze-kinds/hist_wrapped.csv": "119bb24e57a2cd060e7ae18c02c43367e4fad08e621ec4836626af8ef5e16adf",
    "analyze-kinds/metrics.csv": "9adb5568e662e5a53afbfc3e4c7009cf0c71c8dbce022b280feb877bf0e25121",
    "analyze-kinds/regime.csv": "967ef39fcd19315981d1b086572351e62f478ea2dd36f0dd6d76ba59a85cdb82",
    "analyze-no-theorems/curve_log2_unwrapped_vs_depth.csv": "61017cb6be9d4abb3d81450a59595441d1c48e4611e128ccd71bda0a963a3503",
    "analyze-no-theorems/curve_log2_unwrapped_vs_wrapped.csv": "5ca787719858963e0cd46de3be3397c91afd0c688d38c28273680e13a70e6b70",
    "analyze-no-theorems/curve_wrapped_vs_depth.csv": "388f66611651034da5bbc805431f0c61dab6e87498180bfd1cf96fe44160aff3",
    "analyze-no-theorems/fit_log2_unwrapped_vs_depth.csv": "434bc465a4182be2c3eef941821fe2b0aeb36cc25e6664f1eac568d12cee7615",
    "analyze-no-theorems/fit_log2_unwrapped_vs_wrapped.csv": "2c14e7337ccb3e99f5c9b6dbabb93e6d300ba56500c06b4321e92516d19c6402",
    "analyze-no-theorems/fit_wrapped_vs_depth.csv": "6e53d7ea2a44fc457924ae841b26dc33060ccbbb98c3edc8c9aba6f4684557f2",
    "analyze-no-theorems/hist_depth.csv": "734ed77989822df21b8bded2dc641ae3b0358f42319b06d30738427468be47eb",
    "analyze-no-theorems/hist_log2_unwrapped.csv": "51b28ac8b487b0d7593fb6f8764369b5804369f3e40ed6605b59c5c508ae3ee2",
    "analyze-no-theorems/hist_wrapped.csv": "d55e5811c875b662e1149dcd50f91c05565df05246b529f1272562d69a5601b6",
    "analyze-no-theorems/metrics.csv": "d12d36cf27c5f4c7c07b07eebea5749d536d96d7231540454b62fee57526aef8",
    "analyze-no-theorems/regime.csv": "78b6dfa10e6f90cb494820d846dba427250261b97bd5ed480639e762a631c9e3",
    "corpus/graph.jsonl": "017bafb5341b2499dda381b765822a8ae4eb5eb8aaf034e2c65fec0bb09825ee",
    "corpus-analyze/curve_log2_unwrapped_vs_depth.csv": "a07ab3f9965afaf6c15a1312439fe3dacbf5e05bf805bb091795c85977388529",
    "corpus-analyze/curve_log2_unwrapped_vs_wrapped.csv": "a023777434b53bc2269f6d1ec2ecdceb4c398dc2f8fa39f21aaa0b9d62323f13",
    "corpus-analyze/curve_wrapped_vs_depth.csv": "fc8ee90fc16d3cbfacb189805944a05e21231adcdd4fbde926051dced4685d02",
    "corpus-analyze/fit_log2_unwrapped_vs_depth.csv": "39488a714c5771bca5a00ff27556fdc746a088f3d38283c79282c2ba7590d849",
    "corpus-analyze/fit_log2_unwrapped_vs_wrapped.csv": "d899e41ffc6e566c37e40f1bd571eedd3141a948bc3e14c6efef7f2af329be19",
    "corpus-analyze/fit_wrapped_vs_depth.csv": "ea2f763f8b151f16dd232f2aa0d5c12ecc1d3308dec7b75f769d72dd2046eb06",
    "corpus-analyze/hist_depth.csv": "fc5a3d76fe3535e104ee4bc03f3fee77aa51ccb482879b08fc4d129b46ce8d10",
    "corpus-analyze/hist_log2_unwrapped.csv": "65b8776cf5be50b142bfd7d265137ddcc3d07b453b4a2dc0069e902152da70c0",
    "corpus-analyze/hist_wrapped.csv": "78993bbf612ce55c6c13cf147ed90dbe6ba1d2bd48acbf3728149623513356fc",
    "corpus-analyze/metrics.csv": "26bccaa9472e063d11093d90a49bd39a5cc67703e95aba52366a97d0866113fb",
    "corpus-analyze/regime.csv": "b43f71853b1ca95bfc0418ca751088c643e09282b1f1414ff3acf6b0947a974b",
    "corpus-rank/rank.csv": "77ee3e8c81f1b853e735d27b1a63082e0844d4e5f66c0c6f69edce4e2ac2da3e",
    "ingest/graph.jsonl": "39098bc5b078a735fe01b0f03e6a572ade885342a8d1f726474731121ec21d83",
    "sweep/rank.csv": "f193b23e4224303cd2b8785abb06d622407b933ae2e25daf6a5bc2924d005d88",
    "sweep/rank_sweep.csv": "bdb3f16eb7bfa917c6b4cdab06e9ca9fe725cca97e748daadadd77635dea7d98",
    "synth/graph.jsonl": "39098bc5b078a735fe01b0f03e6a572ade885342a8d1f726474731121ec21d83",
}


# Free-monoid sim runs, each with the exit code it ends with; the last stops
# at its word budget, so its report pins the largest completed radius.
SIM_RUNS = [
    ("finite-free", ["sim", "--regime", "finite", "--monoid", "free", "--n", "2",
                     "--word", "aa;bb;ab;ba", "--s", "1:6", "--r-max", "20"], 0),
    ("poly-lex", ["sim", "--regime", "poly-free", "--c", "1", "--p", "2", "--n", "3",
                  "--s", "1:3", "--r-max", "12"], 0),
    ("poly-random", ["sim", "--regime", "poly-free", "--c", "2", "--p", "1", "--n", "2",
                     "--s", "1:5", "--r-max", "14", "--sampler", "random", "--seed", "3"], 0),
    ("poly-random-n3", ["sim", "--regime", "poly-free", "--sampler", "random", "--c", "1",
                        "--p", "2", "--n", "3", "--s", "1:3", "--r-max", "40", "--seed", "1"], 0),
    ("prob-free", ["sim", "--regime", "prob-free", "--n", "2", "--trials", "30",
                   "--mc-r", "16,64,256", "--seed", "5"], 0),
    ("budget", ["sim", "--regime", "poly-free", "--c", "1", "--p", "1", "--n", "2",
                "--s", "6", "--r-max", "12", "--budget", "40"], 3),
]

SIM_DIGESTS = {
    "budget/report.jsonl": "7ca995ff01ab19f72b642a32b51ec590cc53836223a469c842d52d117035d985",
    "finite-free/bounds.csv": "d1af2028dc76712b6ac0f4e6ff4c3933de6fadf183ce544b313030b290356c78",
    "finite-free/profile.csv": "5bb9fd1168ca9b37aa2efc879e974bff8a20a431ddc38852d4cf87aafc2e66e5",
    "finite-free/report.jsonl": "3b76ab55e954f4b11e460f878e5238fbbd826056865affb5f66a1aa858337a17",
    "poly-lex/bounds.csv": "b37ff27000ffbb074b643693818cc4d5a9abdddcda26ea2339d8f029f7ae6d9d",
    "poly-lex/profile.csv": "87e08815fff342af52ae47de24c9ba53aac5b5c640b49d56546fa721e7bb4a14",
    "poly-lex/report.jsonl": "aa62223813db773cac0f94a8163708832de621e8b6686a3ec322faaa80f3e24a",
    "poly-random/bounds.csv": "ed6aafb518940864bc01424acdd616106aa624afc07f41c594f95e22122be584",
    "poly-random/profile.csv": "8eeef23b758dd27afa6d4b310ad90fe621ddc71f4e8a01740141ea9ad5e80a11",
    "poly-random-n3/bounds.csv": "713dbca95a1c52cbd1a496983fbfbd90f901a0182b8034b675f6effc322993dd",
    "poly-random-n3/profile.csv": "ffc43480d2f46e8696136cff8649672d9cee0a28b39836da6e6a28f77e1fa5bf",
    "poly-random-n3/report.jsonl": "ad54aa5455d12f0801c1e8b99dbea4e37516744af8ece91ed90aedcb2dedf20c",
    "poly-random/report.jsonl": "fbb74db84723f8cc3b2b3fc74b6f2e977723e6765a3dab64eaab4a3994ac78c7",
    "prob-free/mc_halving.csv": "609c8942b7a55acd61055ac827675dc76f9b190a546c86d068e1e7496bb863b1",
    "prob-free/mc_parse.csv": "08bf0aea8b1c26fbb6ca4cec5ae1d675ede6e6f0db6f82f21e7072e5e01d65ed",
    "prob-free/report.jsonl": "c0ebe5f945804c15ed218b2a9030e4011d158cedae7a35f63d90c3af3b185d65",
}


# Abelian sim runs; the last outgrows the default budget on the n-D lattice
# its macros need, so its report pins the largest radius whose box fits (214).
# place-3000 and waring-n3 were captured on the n-D lattice before the
# per-axis path for macro sets whose macros each lie on one axis;
# finite-abelian (3,0;0,2;2,3) is not such a set and still runs the n-D
# lattice.  place-400 is charged one lattice of 401 points per axis, not the
# 401**3 box.
ABELIAN_SIM_RUNS = [
    ("place", ["sim", "--regime", "place", "--b", "2", "--n", "2", "--s", "1:6",
               "--r-max", "40"], 0),
    ("place-b3", ["sim", "--regime", "place", "--b", "3", "--n", "3", "--s", "1:8",
                  "--r-max", "20"], 0),
    ("waring", ["sim", "--regime", "waring", "--k", "2", "--n", "2", "--s", "1:9",
                "--r-max", "60"], 0),
    ("double-log", ["sim", "--regime", "double-log", "--b", "2", "--s", "1:5",
                    "--r-max", "200"], 0),
    ("finite-abelian", ["sim", "--regime", "finite", "--monoid", "abelian", "--n", "2",
                        "--word", "3,0;0,2;2,3", "--s", "1:14", "--r-max", "16"], 0),
    ("finite-n1", ["sim", "--regime", "finite", "--monoid", "abelian", "--n", "1",
                   "--word", "5;7", "--s", "1:10", "--r-max", "40"], 0),
    ("place-3000", ["sim", "--regime", "place", "--b", "2", "--n", "2", "--s", "1:24",
                    "--r-max", "3000"], 0),
    ("waring-n3", ["sim", "--regime", "waring", "--k", "2", "--n", "3", "--s", "1:12",
                   "--r-max", "150"], 0),
    ("place-400", ["sim", "--regime", "place", "--b", "2", "--n", "3", "--s", "1:4",
                   "--r-max", "400"], 0),
    ("budget", ["sim", "--regime", "finite", "--monoid", "abelian", "--n", "3",
                "--word", "1,1,0;0,1,1", "--s", "1:4", "--r-max", "400"], 3),
]

ABELIAN_SIM_DIGESTS = {
    "budget/report.jsonl": "f487788fd9774aabb749b4f98fac6b4e3201d37b1580e81bb0a3d26f644cd855",
    "double-log/bounds.csv": "91593ef2838d2dda39133dc3a3f12effe497951b357ddebbcedb8e1bd03a0bf5",
    "double-log/profile.csv": "450d56c8608962dadd57c222acfa8039dfc25bdb32ae7d01226a285d96a42002",
    "double-log/report.jsonl": "c3ea222c8ba5664178532c386a3e780269f692954e7c36da115b95bd182c204d",
    "finite-abelian/bounds.csv": "9ee29f63f85a240b23f6fbf343ee533059a57bfdc87f0ae0aa209acab21c3081",
    "finite-abelian/profile.csv": "cdaed3c04bbd362e63e1905d53347b47487a0ccb3c514d25a633b4952dda26fa",
    "finite-abelian/report.jsonl": "af9408eb186801e7a6adb78b2092958848b66357062b6c707e1d9fe475eb5b66",
    "finite-n1/bounds.csv": "2a7214b7c24f470d8d458d33c16eeb416138dd63b05c3a7c7cc993db7b10cd29",
    "finite-n1/profile.csv": "9537c2b557a7b4a9b7254e89f23b91b3b65239c37a79c77d5bc77ad8a15209c9",
    "finite-n1/report.jsonl": "85c46d9c2a89d6ab7fcfb976a2970d1d90feb41cfaac862e39f0965b42588c4c",
    "place-3000/bounds.csv": "32ffb5dc9014e5f42dccf4c77f916d31c5ae7753cc308a5c751bee325626e105",
    "place-3000/profile.csv": "19979c890d8fa699be718e77a15816880f00fb10af44a10a8b5bbd22bde1fcce",
    "place-3000/report.jsonl": "7fd119e9379758f08e3ee4d48f05fdb7bb1865bde00365c576a94e7890135543",
    "place/bounds.csv": "c2f3e5450b8f77a74316a271da6d5f1cf470c00b71ad927b19e6325d5fb5f30a",
    "place/profile.csv": "99f8814761fe42857380e4c332fd7005238886bc4e82e5662f9bea82d7f171f9",
    "place/report.jsonl": "248cd5668b47e2275bddfabcafa3743f4578d0afd9d4ba0264c2421b242e6c52",
    "place-400/bounds.csv": "d918b5baa17982fc8f1b3fbb6a70f06cc8f4cf3ea59fd2668708f48a9c2b5bd1",
    "place-400/profile.csv": "515d7cefc54ee0771adf05e191462fe82533b913424a5c380050f5b63cf1f8d2",
    "place-400/report.jsonl": "61efc3615838ef6a277d7a51da6e50faf19dec6dbfe5ddcf5d8f88b5c7a68c44",
    "place-b3/bounds.csv": "7be6c6c26b57f84ce86ac8b1843683648041330d2e14edf53843559f9f8db9f2",
    "place-b3/profile.csv": "31a84716f9ad5ad22e154f9a588b0d9948c2268f5681ef62eaa290b192f89bc8",
    "place-b3/report.jsonl": "c091faf7ce76a2d1a67eb643bbd23360e4296d2c8406a4a607033099fdb9ad93",
    "waring/bounds.csv": "6b7621e5a4b9e92d659db9145a3776a69d8abbb112c30a465a4e4b8f576d752e",
    "waring/profile.csv": "48af6214e284e2fc4c457526ce949edb327c3ed8f2b65d729f8b2823de99f622",
    "waring/report.jsonl": "3767d78e156906b6e8177d046c325f943a6201f6c63405e19388d66c2265f940",
    "waring-n3/bounds.csv": "b56bca64b415c1c693105b9c94a249b9ef24ce81bad907bef2e9fb91646e1776",
    "waring-n3/profile.csv": "213ac614b89492a12d04f9e5075f0470d98920e589be91f69c7b724a1b562903",
    "waring-n3/report.jsonl": "6f6fe426c14b2d8a74001b56b86af620e8dcd08d0ed26b732761163714df2f40",
}


def run_and_digest(root: Path, runs) -> dict[str, str]:
    export = root / "export.jsonl"
    export.write_text(SMALL_EXPORT, encoding="utf-8")
    dirs = {"export": str(export)}
    for name, argv, code in runs:
        out = root / name
        dirs[name] = str(out)
        assert main([arg.format(**dirs) for arg in argv] + ["--out", str(out)]) == code, name
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path != export
    }


def test_outputs_are_byte_identical(tmp_path):
    assert run_and_digest(tmp_path, RUNS) == DIGESTS


def test_free_sim_outputs_are_byte_identical(tmp_path):
    assert run_and_digest(tmp_path, SIM_RUNS) == SIM_DIGESTS


def test_abelian_sim_outputs_are_byte_identical(tmp_path):
    assert run_and_digest(tmp_path, ABELIAN_SIM_RUNS) == ABELIAN_SIM_DIGESTS
