"""Locality-preserving minimal perfect hashing of k-mers.

Builds a minimal perfect hash over the distinct k-mers of a
spectrum-preserving string set in which consecutive k-mers of one input
string almost always receive consecutive hash values. Two variants are
provided (a plain layout and a partitioned one that exploits super-k-mer
structure to store less), plus streaming lookup, compact serialization, and
closed-form space/probability calculators for comparing measurements against
predictions.
"""

from . import theory
from .basic import LpMphfBasic, build_basic, measure_epsilon
from .errors import *  # noqa: F401,F403
from .kmers import Kmer, mix64
from .minimizers import (MinimizerCensus, MinimizerScheme, census,
                         default_minimizer_length)
from .mphf import GeneralMphf
from .partitioned import FlType, LpMphfPartitioned, build_partitioned
from .spss import SpssInput, generate_spss, load_spss, spss_from_strings, write_fasta
from .storage import load_structure, save_structure
from .succinct import EliasFanoSeq, IntVector, RankBitvector, TypeSequence
from .theory import (StatsReport, TheoryParams, density, space_bound_basic,
                     space_bound_partitioned, stats, type_probabilities)

__version__ = "0.1.0"
