"""Token-based security model (simulated Kerberos/delegation tokens).

Mirrors the Hadoop scheme the paper leans on (section 4.3): the RM
issues an AMRM token at registration, NMs require an NM token to launch
containers, and the shuffle service requires a per-application job
token. Verification is HMAC-like: a shared secret per authority, with
tokens bound to (kind, owner).
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

__all__ = ["Token", "SecurityManager", "AuthenticationError"]


class AuthenticationError(Exception):
    """A token failed verification."""


@dataclass(frozen=True)
class Token:
    kind: str      # e.g. "AMRM", "NM", "JOB"
    owner: str     # e.g. application id or user
    signature: str

    def __repr__(self) -> str:
        return f"<Token {self.kind}:{self.owner}>"


class SecurityManager:
    """Issues and verifies tokens. One instance per authority (the RM)."""

    def __init__(self, secret: bytes = b"cluster-master-secret", enabled: bool = True):
        self._secret = secret
        self.enabled = enabled
        # (kind, owner) -> signature; the secret never changes, so a
        # signature is computed once per principal, not once per verify.
        self._signatures: dict[tuple[str, str], str] = {}

    def _sign(self, kind: str, owner: str) -> str:
        key = (kind, owner)
        signature = self._signatures.get(key)
        if signature is None:
            msg = f"{kind}:{owner}".encode()
            signature = self._signatures[key] = hmac.new(
                self._secret, msg, hashlib.sha256).hexdigest()[:24]
        return signature

    def issue(self, kind: str, owner: str) -> Token:
        return Token(kind, owner, self._sign(kind, owner))

    def verify(self, token: Token, kind: str, owner: str | None = None) -> None:
        """Raise :class:`AuthenticationError` unless the token is valid."""
        if not self.enabled:
            return
        if token is None:
            raise AuthenticationError(f"missing {kind} token")
        if token.kind != kind:
            raise AuthenticationError(
                f"token kind mismatch: expected {kind}, got {token.kind}"
            )
        if owner is not None and token.owner != owner:
            raise AuthenticationError(
                f"token owner mismatch: expected {owner}, got {token.owner}"
            )
        if not hmac.compare_digest(
            token.signature, self._sign(token.kind, token.owner)
        ):
            raise AuthenticationError("bad token signature")
