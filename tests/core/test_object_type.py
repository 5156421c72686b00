"""Unit tests for ObjectType construction and validation."""

import pytest

from repro.core import CollectionField, FieldKind, ObjectType, ValueField, method, readonly_method
from repro.errors import ModelError, UnknownFieldError


def noop(self):
    return None


def test_explicit_construction():
    otype = ObjectType(
        "Account",
        fields=[ValueField("balance", default=0), CollectionField("history")],
        methods=[method(noop, name="touch")],
    )
    assert otype.field("balance").default == 0
    assert otype.has_method("touch")
    assert list(otype.methods) == ["touch"]


def test_unknown_field_raises():
    otype = ObjectType("T", fields=[ValueField("a")], methods=[method(noop)])
    with pytest.raises(UnknownFieldError):
        otype.field("b")


def test_require_field_checks_kind():
    otype = ObjectType(
        "T", fields=[ValueField("v"), CollectionField("c")], methods=[method(noop)]
    )
    otype.require_field("v", FieldKind.VALUE)
    with pytest.raises(UnknownFieldError):
        otype.require_field("v", FieldKind.COLLECTION)
    with pytest.raises(UnknownFieldError):
        otype.require_field("c", FieldKind.VALUE)


def test_duplicate_field_rejected():
    with pytest.raises(ModelError):
        ObjectType("T", fields=[ValueField("a"), ValueField("a")], methods=[method(noop)])


def test_field_method_name_collision_rejected():
    with pytest.raises(ModelError):
        ObjectType("T", fields=[ValueField("noop")], methods=[method(noop)])


def test_empty_name_rejected():
    with pytest.raises(ModelError):
        ObjectType("", methods=[method(noop)])


def test_construction_carries_method_flags():
    def rename(self, new_name):
        self.set("name", new_name)

    def get_name(self):
        return self.get("name")

    def internal_hook(self):
        pass

    user = ObjectType(
        "User",
        fields=[ValueField("name"), CollectionField("posts")],
        methods=[
            method(rename),
            readonly_method(get_name),
            method(internal_hook, public=False),
        ],
    )
    assert user.name == "User"
    assert set(user.fields) == {"name", "posts"}
    assert user.method_def("rename").public
    assert not user.method_def("rename").readonly
    assert user.method_def("get_name").readonly
    assert not user.method_def("internal_hook").public
