"""Digital payments: the paper's strong-consistency motivation (§2).

"An application processing digital payments requires strong consistency
to ensure a transaction reads an up-to-date account balance and, as a
result, does not spend more money than is available."

Invocation linearizability gives exactly that per account: ``withdraw``
reads the committed balance and its check+debit commit atomically, so an
account can never be overdrawn — the property tests hammer this with
concurrent withdrawals.

Transfers between accounts span two objects.  Multi-call transactions
are future work in the paper (§3.1/§7) and are not modelled here, so
``transfer`` uses the standard compensation pattern: debit locally,
credit the payee via a nested call, re-credit on failure.  The ledger
collections make every step auditable.
"""

from __future__ import annotations

from repro.core import CollectionField, ObjectType, ValueField
from repro.core.method import method, readonly_method


class InsufficientFunds(Exception):
    """Raised by the guest when a debit would overdraw the account."""


def _deposit(self, amount, note="deposit"):
    """Credit the account; returns the new balance."""
    if amount <= 0:
        raise ValueError(f"deposit must be positive, got {amount}")
    balance = (self.get("balance") or 0) + amount
    self.set("balance", balance)
    self.collection("ledger").push({"kind": "credit", "amount": amount, "note": note})
    return balance


def _withdraw(self, amount, note="withdrawal"):
    """Debit the account; traps (and aborts) on insufficient funds."""
    if amount <= 0:
        raise ValueError(f"withdrawal must be positive, got {amount}")
    balance = self.get("balance") or 0
    if balance < amount:
        raise InsufficientFunds(f"balance {balance} < {amount}")
    self.set("balance", balance - amount)
    self.collection("ledger").push({"kind": "debit", "amount": amount, "note": note})
    return balance - amount


def _get_balance(self):
    return self.get("balance") or 0


def _get_pending_transfer(self):
    """The in-flight outbound credit, or None when no transfer is mid-flight."""
    return self.get("pending_transfer")


def _get_ledger(self, limit=20):
    return [entry for _k, entry in self.collection("ledger").items(limit=limit, reverse=True)]


def _transfer(self, to_account, amount):
    """Move money to another account (compensation on failure).

    The debit commits before the nested credit runs (§3.1); if the credit
    traps, a compensating re-credit restores the funds.  The payer also
    records the in-flight credit in ``pending_transfer``: the marker
    commits with the caller's segment (the §3.1 caller-commit split), so
    an audit catches a transfer interrupted between debit and credit.
    """
    self.withdraw(amount, f"transfer to {str(to_account)[:8]}")
    self.set("pending_transfer", {"to": str(to_account)[:8], "amount": amount})
    try:
        self.get_object(to_account).deposit(amount, f"transfer from {str(self.self_id())[:8]}")
    except Exception:
        # Clear the marker *before* the compensating nested call: a
        # trapped invocation's uncommitted writes are discarded, so a
        # clear buffered after it would be lost when we re-raise.
        self.set("pending_transfer", None)
        self.deposit(amount, "transfer compensation")
        raise
    self.set("pending_transfer", None)
    return True


def _credit_interest(self, rate_percent):
    """Apply interest — a read-modify-write that must not double-apply."""
    balance = self.get("balance") or 0
    interest = round(balance * rate_percent / 100)
    if interest > 0:
        self.deposit(interest, f"interest {rate_percent}%")
    return interest


def account_type() -> ObjectType:
    """Build the ``Account`` object type."""
    return ObjectType(
        "Account",
        fields=[
            ValueField("balance", default=0),
            ValueField("pending_transfer", default=None),
            CollectionField("ledger"),
        ],
        methods=[
            method(_deposit, name="deposit"),
            method(_withdraw, name="withdraw"),
            method(_transfer, name="transfer"),
            method(_credit_interest, name="credit_interest"),
            readonly_method(_get_balance, name="get_balance"),
            readonly_method(_get_pending_transfer, name="get_pending_transfer"),
            readonly_method(_get_ledger, name="get_ledger"),
        ],
    )
