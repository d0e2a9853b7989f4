"""memlight: find long maximal exact matches and skip the short ones.

The text is indexed once (suffix arrays, FM-indexes over the text and its
reverse, optional extension fingerprints); queries then report every
maximal exact match of at least a chosen length, the full match set, or a
single longest common substring.

Names are imported from their modules on first use, so importing the
package, or only the query modules, does not import numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "sequence": ("Alphabet", "ForeignSymbolError", "MemRecord", "Pattern",
                 "QueryStats", "Text", "build_alphabet", "split_by_foreign_chars"),
    "suffixes": ("MatchPointers", "SuffixArray", "brute_force_mems",
                 "build_suffix_structures", "compute_match_pointers"),
    "lce": ("MODULUS", "FingerprintLce", "NaiveLce"),
    "fm": ("BwtInterval", "FmIndex", "IndexFormatError", "IndexPair", "build_fm", "index_paths",
           "invert_bwt", "write_index_pair"),
    "finders": ("FinderResult", "find_all_mems", "find_all_mems_fm",
                "find_in_raw", "find_long_mems_fm", "find_long_mems_lce",
                "longest_common_substring"),
    "experiment": ("ComparisonReport", "ExperimentSpec", "LengthHistogramRow",
                   "classify_mems", "generate_instance", "make_cyclic_text",
                   "run_comparison"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
