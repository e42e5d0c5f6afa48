"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so callers (and the
CLI) can branch on failure kinds without matching message strings.
"""


class RagmarkError(Exception):
    """Base class for all package errors."""

    code = "error"


class ConfigError(RagmarkError):
    code = "config"


class EmptyDocumentError(RagmarkError):
    code = "empty_document"


class ZeroVectorError(RagmarkError):
    code = "zero_vector"


class DimMismatchError(RagmarkError):
    code = "dim_mismatch"


class EmbedderChangedError(RagmarkError):
    """The embedding endpoint changed its vector dimension mid-run."""

    code = "embedder_changed"


class EmptyIndexError(RagmarkError):
    code = "empty_index"


class NoEligiblePairsError(RagmarkError):
    code = "no_eligible_pairs"


class EmptyReferenceError(RagmarkError):
    code = "empty_reference"


class DegenerateCloudError(RagmarkError):
    code = "degenerate_cloud"


class NoClustersError(RagmarkError):
    code = "no_clusters"


class EmptyTestSetError(RagmarkError):
    code = "empty_test_set"


class TransportError(RagmarkError):
    """Network-level failure talking to a remote service; safe to retry."""

    code = "transport"


class BadResponseError(RagmarkError):
    """The remote service answered, but the payload violates its contract."""

    code = "bad_response"


class PersistenceError(RagmarkError):
    code = "persistence"


class ChecksumError(PersistenceError):
    code = "checksum_mismatch"


class GenerationError(RagmarkError):
    """Generation failed; retains the packed context for post-mortem."""

    code = "generation_failed"

    def __init__(self, message, context=None):
        super().__init__(message)
        self.context = context


class RunAbortedError(RagmarkError):
    code = "run_aborted"
