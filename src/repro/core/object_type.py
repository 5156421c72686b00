"""Object types: a set of fields plus a table of guest methods::

    account = ObjectType(
        "Account",
        fields=[ValueField("balance", default=0)],
        methods=[method(deposit), readonly_method(balance)],
    )
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import LinkError, ModelError, UnknownFieldError
from repro.core.fields import FieldKind, FieldSpec
from repro.wasm.module import GuestFunction


class ObjectType:
    """An immutable object type: named fields and named guest methods."""

    def __init__(
        self,
        name: str,
        fields: Iterable[FieldSpec] = (),
        methods: Iterable[GuestFunction] = (),
    ) -> None:
        if not name:
            raise ModelError("object type needs a non-empty name")
        self.name = name
        self.fields: dict[str, FieldSpec] = {}
        for spec in fields:
            if spec.name in self.fields:
                raise ModelError(f"type {name!r} declares field {spec.name!r} twice")
            self.fields[spec.name] = spec
        self.methods: dict[str, GuestFunction] = {}
        for function in methods:
            if function.name in self.fields:
                raise ModelError(
                    f"type {name!r} uses {function.name!r} as both field and method"
                )
            if function.name in self.methods:
                raise LinkError(f"module {name!r} exports {function.name!r} twice")
            self.methods[function.name] = function
        if not self.methods:
            raise LinkError(f"module {name!r} has no exports")

    # -- field queries -----------------------------------------------------

    def field(self, field_name: str) -> FieldSpec:
        """Look up a field, raising :class:`UnknownFieldError` if missing."""
        try:
            return self.fields[field_name]
        except KeyError:
            raise UnknownFieldError(
                f"type {self.name!r} has no field {field_name!r}"
            ) from None

    def require_field(self, field_name: str, kind: FieldKind) -> FieldSpec:
        """Look up a field and check its kind."""
        spec = self.field(field_name)
        if spec.kind != kind:
            raise UnknownFieldError(
                f"field {self.name}.{field_name} is a {spec.kind.value}, "
                f"not a {kind.value}"
            )
        return spec

    # -- method queries --------------------------------------------------

    def has_method(self, method_name: str) -> bool:
        return method_name in self.methods

    def method_def(self, method_name: str) -> GuestFunction:
        """Look up a method, raising :class:`LinkError` when missing."""
        try:
            return self.methods[method_name]
        except KeyError:
            raise LinkError(
                f"module {self.name!r} has no export {method_name!r}"
            ) from None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ObjectType {self.name} fields={list(self.fields)} "
            f"methods={list(self.methods)}>"
        )

