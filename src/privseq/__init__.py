"""Exact-arithmetic private sequential variable-length coding.

Rational probability tables, constructive functional-representation
mechanisms, one-time-pad plus prefix-free slot coding, enumeration-based
zero-leakage audits, achievable/converse length bounds, and a coded-caching
delivery application.
"""

from .errors import InvariantError, LimitError, ValidationError
from .probability import Alphabet, JointDist, load_dist, parse_dist, format_dist
from .frl import (
    FrlMechanism,
    MechanismChain,
    build_chain,
    cardinality_bound,
    frl_construct,
    min_entropy_search,
)
from .coding import (
    Codebook,
    PadKey,
    entropy_codebook,
    fixed_length_codebook,
    otp_decrypt,
    otp_encrypt,
    verify_prefix_free,
)
from .pipeline import (
    RandomDraws,
    Transcript,
    TranscriptDistribution,
    decode_session,
    encode_session,
    expected_length,
    leakage_audit,
    session_chain,
    transcript_distribution,
    worst_case_sweep,
)
from .bounds import (
    Example1Params,
    demanded_base,
    example1_build,
    lower_bound,
    upper_bound_cardinality,
    upper_bound_entropy_estimate,
)
from .caching import (
    BlockStream,
    CacheConfig,
    CacheSession,
    PublicCache,
    UserCache,
    delivery_blocks,
    make_cache_session,
    placement,
    private_wrap,
    delivery_bound,
    user_decode,
)

__version__ = "0.1.0"
