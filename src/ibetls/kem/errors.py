class KemError(Exception):
    """Base class for identity-KEM failures."""


class InvalidParams(KemError):
    """Parameter set violates a structural or correctness invariant."""


class MalformedIdentity(KemError):
    """Identity string does not satisfy the canonical-form invariants."""


class MasterKeyMismatch(KemError):
    """Master secret key does not reconstruct the given master public key."""


class UnsupportedScheme(KemError):
    """Scheme id is known to the codec but not implemented here."""


class DecodeError(KemError):
    """Serialized object is truncated, out of range, or inconsistent."""
