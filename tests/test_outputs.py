"""Byte-identity pin: the sha256 of every file a small corpus run writes.

The digests were captured from the name-keyed graph code that the integer-
indexed graph replaced; any change to a byte of these outputs must show up
here and be named in CHANGES.md.
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
    ("synth", ["synth", "--kind", "mixed", "--nodes", "300", "--seed", "5"]),
    ("ingest", ["ingest", "--format", "graph", "--in", "{synth}/graph.jsonl"]),
    ("analyze", ["analyze", "--graph", "{ingest}/graph.jsonl", "--full-unwrapped",
                 "--filter-percentile", "50"]),
    ("sweep", ["rank", "--graph", "{ingest}/graph.jsonl", "--sweep", "0.5,0.85"]),
    ("alt", ["rank", "--graph", "{ingest}/graph.jsonl", "--alt-deductive",
             "--wrapped-metric", "refs"]),
    ("corpus", ["ingest", "--format", "corpus", "--in", "{export}"]),
    ("corpus-analyze", ["analyze", "--graph", "{corpus}/graph.jsonl", "--full-unwrapped"]),
    ("corpus-rank", ["rank", "--graph", "{corpus}/graph.jsonl", "--alt-deductive"]),
]

DIGESTS = {
    "alt/rank.csv": "a57b03f368d12073a5b32712e35aaf7c09d65b20bac5250e665624fc489b810a",
    "analyze/curve_log2_unwrapped_vs_depth.csv": "4492afe16346e40ff444c417b549b5a7aa96720995dfc6274862744f7738f046",
    "analyze/curve_log2_unwrapped_vs_wrapped.csv": "1802f67a38eaad4c82bfc00afdf95badb37d9fda9529060830b37d99764ee899",
    "analyze/curve_wrapped_vs_depth.csv": "711adf34bfc2a680cfdaceb47bb6829467a3eb57aa6558f1027c95e46ecff2f6",
    "analyze/fit_log2_unwrapped_vs_depth.csv": "4e5a358627f0f109b3f9d882a3668c39b92f8096344d2352299d2de05e051097",
    "analyze/fit_log2_unwrapped_vs_wrapped.csv": "1c9397eef6da42e0ac359a08e20437e577ad342444dccb65263ac684fe31e64b",
    "analyze/fit_wrapped_vs_depth.csv": "a099d016e7c9e58ae886b4b76f356e31cd1afd849876884e66db708e1f0e6572",
    "analyze/hist_depth.csv": "314c4e042dfb352cb3f24c04b7aef934c84028e9f5aed9620be5691d97c92e56",
    "analyze/hist_log2_unwrapped.csv": "8f4341bc95e87ac9ab91531d610577d3c4d62a5bf15a6c6f088209ef4b7c2d6a",
    "analyze/hist_wrapped.csv": "b8867e08d03e709c8edf65c1a977a35db5018ebaace496bd1f545b97be20cd47",
    "analyze/metrics.csv": "455c9f75abc52c13a10cc11e3a4f26334a5d1f8d5a86f030efbedcb4215af168",
    "analyze/regime.csv": "7029937808f5eda7c4eec6cb7e309597afdfc107061e6bd3613539fddedf4d80",
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
    "corpus-rank/rank.csv": "3b4767f096d156687385a895af678d751c1c3f6b0779eb0e4d530ec3a1ff5336",
    "ingest/graph.jsonl": "b857a1c310e8cad42f05ffa5a652700afd1dd205876314094d32419d3da97c39",
    "sweep/rank.csv": "3f99e9fbb4f1a92ff3eb334fc913fbf06ab786cf414a14666586674c3f067c9e",
    "sweep/rank_sweep.csv": "cc45e64b2bbd4e77bf27ea579d5cf1c8b68b7008a5066bba73cbaeae2070d620",
    "synth/graph.jsonl": "b857a1c310e8cad42f05ffa5a652700afd1dd205876314094d32419d3da97c39",
}


def run_and_digest(root: Path) -> dict[str, str]:
    export = root / "export.jsonl"
    export.write_text(SMALL_EXPORT, encoding="utf-8")
    dirs = {"export": str(export)}
    for name, argv in RUNS:
        out = root / name
        dirs[name] = str(out)
        assert main([arg.format(**dirs) for arg in argv] + ["--out", str(out)]) == 0, name
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path != export
    }


def test_outputs_are_byte_identical(tmp_path):
    assert run_and_digest(tmp_path) == DIGESTS
