"""Macro-set expansion simulations and dependency-graph compression analytics.

The names below are loaded from their modules on first use (PEP 562), so
importing the package, or one command's modules, does not import the rest.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it exports, as one space-separated string
_EXPORTS = {
    "analytics": (
        "ClassifyConfig CondensedGraph FilterPolicy HistogramBin MedianCurve "
        "NodeMetrics RegimeVerdict SlopeFit classify_relationship condense_scc "
        "depths filter_macro_set histogram inline_nodes log2_exact median_curve "
        "node_metrics regime_classify slope_fit split_unwrapped "
        "unwrapped_lengths"
    ),
    "corpus": (
        "CorpusError DepGraph Element GraphNode build_graph ingest_corpus "
        "load_corpus load_graph save_corpus save_graph"
    ),
    "expansion": (
        "BoundReport ExpansionProfile ExpansionValue HalvingFailure "
        "SampledRates SphereBudgetError expansion_function expansion_profile "
        "find_halving_macro fit_parse_constant quasi_exponential_upper_report "
        "recursive_parse_free sample_words sampled_rates verify_bounds"
    ),
    "exprs": "ExprNode ExprParseError collect_elems parse_expr print_expr",
    "families": "FamilySpec LazyFreeMacroSet build_macro_family minimal_period",
    "interest": (
        "CompressionScores ElementSplit MalformedElementError "
        "PowerIterationError RankParams RankResult alt_deductive_scores "
        "compression_scores element_splits pagerank"
    ),
    "monoid": (
        "LatticeBudgetError Macro MacroSet MonoidKind Word abelian ball_size "
        "free g_length gprime_length monoid_depth wrapped_length"
    ),
    "synth": "synth_flat synth_hierarchy synth_mixed",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
