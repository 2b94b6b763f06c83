"""Letter graphs: decoding words into graphs and inverting that map.

A decoder D over an alphabet is a set of ordered letter pairs; a word w
decodes to the graph on positions 1..|w| joining i < j exactly when
(w_i, w_j) is in D.  This package decodes, and solves the three inverse
problems of retrieving a word, a decoder, or a coloring, plus exhaustive
oracles and neighborhood-diversity tools for cross-checking them.
"""

from .coloring_retrieval import (find_isomorphism, gi_to_coloring_instance,
                                 isomorphic_coloring, retrieve_coloring)
from .decoder_retrieval import (build_formula, decoder_realization,
                                realize_decoder, retrieve_decoder, verify_decoder)
from .diversity import (TwinPartition, neighborhood_diversity,
                        symmetric_witness, twin_partition)
from .documents import (InstanceDocument, parse_instance, serialize_instance)
from .errors import (InternalConsistencyError, LetterGraphError,
                     MalformedInstanceError, SizeLimitError)
from .graphs import Coloring, Graph
from .letters import (ColoredGraph, Decoder, Realization, Word, decode,
                      is_symmetric_decoder, normalize_decoder)
from .oracles import (brute_isomorphism, brute_lettericity,
                      brute_symmetric_lettericity, characterization_check,
                      enumerate_decoders)
from .twosat import TwoSatFormula, solve_2sat
from .word_retrieval import retrieve_word

__all__ = [
    "ColoredGraph",
    "Coloring",
    "Decoder",
    "Graph",
    "InstanceDocument",
    "InternalConsistencyError",
    "LetterGraphError",
    "MalformedInstanceError",
    "Realization",
    "SizeLimitError",
    "TwinPartition",
    "TwoSatFormula",
    "Word",
    "brute_isomorphism",
    "brute_lettericity",
    "brute_symmetric_lettericity",
    "build_formula",
    "characterization_check",
    "decode",
    "decoder_realization",
    "enumerate_decoders",
    "find_isomorphism",
    "gi_to_coloring_instance",
    "is_symmetric_decoder",
    "isomorphic_coloring",
    "neighborhood_diversity",
    "normalize_decoder",
    "parse_instance",
    "realize_decoder",
    "retrieve_coloring",
    "retrieve_decoder",
    "retrieve_word",
    "serialize_instance",
    "solve_2sat",
    "symmetric_witness",
    "twin_partition",
    "verify_decoder",
]

__version__ = "0.1.0"
