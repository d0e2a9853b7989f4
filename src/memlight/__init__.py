"""memlight: find long maximal exact matches and skip the short ones.

The text is indexed once (suffix arrays, FM-indexes over the text and its
reverse, optional extension fingerprints); queries then report every
maximal exact match of at least a chosen length, the full match set, or a
single longest common substring.
"""

__version__ = "0.1.0"

from .sequence import (Alphabet, ForeignSymbolError, MemRecord, Pattern,
                       QueryStats, Text, build_alphabet, split_by_foreign_chars)
from .suffixes import (MatchPointers, SuffixArray, brute_force_mems,
                       build_suffix_structures, compute_match_pointers,
                       count_occurrences)
from .lce import MODULUS, FingerprintLce, FingerprintTable, NaiveLce
from .fm import BwtInterval, FmIndex, IndexFormatError, build_fm, invert_bwt
from .finders import (FinderResult, find_all_mems, find_all_mems_fm,
                      find_in_raw, find_long_mems_fm, find_long_mems_lce,
                      longest_common_substring)
from .experiment import (ComparisonReport, ExperimentSpec, LengthHistogramRow,
                         classify_mems, generate_instance, make_cyclic_text,
                         run_comparison)

__all__ = [
    "__version__",
    "Alphabet", "ForeignSymbolError", "MemRecord", "Pattern", "QueryStats",
    "Text", "build_alphabet", "split_by_foreign_chars",
    "MatchPointers", "SuffixArray", "brute_force_mems",
    "build_suffix_structures", "compute_match_pointers", "count_occurrences",
    "MODULUS", "FingerprintLce", "FingerprintTable", "NaiveLce",
    "BwtInterval", "FmIndex", "IndexFormatError", "build_fm", "invert_bwt",
    "FinderResult", "find_all_mems", "find_all_mems_fm",
    "find_in_raw", "find_long_mems_fm", "find_long_mems_lce",
    "longest_common_substring",
    "ComparisonReport", "ExperimentSpec", "LengthHistogramRow",
    "classify_mems", "generate_instance", "make_cyclic_text", "run_comparison",
]
