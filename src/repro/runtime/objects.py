"""Heap model for interpreted Bamboo programs.

Objects carry their class, field values, the set of currently-true flags
(abstract state), and tag bindings. Tag instances keep backward references to
the objects they are bound to — the paper's runtime uses these to prune task
invocations with tag constraints (§4.7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set


@dataclass
class TagInstance:
    """A runtime tag instance (created by ``tag t = new tag(T)``)."""

    tag_id: int
    tag_type: str
    bound_objects: Set[int] = field(default_factory=set)  # object ids

    def __hash__(self) -> int:
        return self.tag_id

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TagInstance) and other.tag_id == self.tag_id

    def __repr__(self) -> str:
        return f"tag<{self.tag_type}#{self.tag_id}>"


@dataclass(eq=False)
class BObject:
    """A Bamboo heap object."""

    obj_id: int
    class_name: str
    fields: List[object]
    flags: Set[str] = field(default_factory=set)
    tags: Dict[str, List[TagInstance]] = field(default_factory=dict)

    def set_flag(self, flag: str, value: bool) -> None:
        if value:
            self.flags.add(flag)
        else:
            self.flags.discard(flag)

    def bind_tag(self, tag: TagInstance) -> None:
        bucket = self.tags.setdefault(tag.tag_type, [])
        if tag not in bucket:
            bucket.append(tag)
            tag.bound_objects.add(self.obj_id)

    def unbind_tag(self, tag: TagInstance) -> None:
        bucket = self.tags.get(tag.tag_type, [])
        if tag in bucket:
            bucket.remove(tag)
            tag.bound_objects.discard(self.obj_id)

    def tags_of_type(self, tag_type: str) -> List[TagInstance]:
        return list(self.tags.get(tag_type, []))

    def __repr__(self) -> str:
        flags = ",".join(sorted(self.flags)) or "-"
        return f"{self.class_name}#{self.obj_id}[{flags}]"


@dataclass(eq=False)
class BArray:
    """A Bamboo array value."""

    elem_type: str
    values: List[object]

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"{self.elem_type}[{len(self.values)}]"


class Heap:
    """Allocates objects, arrays, and tags with deterministic ids."""

    def __init__(self):
        self._next_obj_id = 0
        self._next_tag_id = 0
        self.objects: Dict[int, BObject] = {}

    def new_object(self, class_name: str, num_fields: int) -> BObject:
        obj = BObject(
            obj_id=self._next_obj_id,
            class_name=class_name,
            fields=[None] * num_fields,
        )
        self._next_obj_id += 1
        self.objects[obj.obj_id] = obj
        return obj

    def new_array(self, elem_type: str, length: int, fill: object = None) -> BArray:
        return BArray(elem_type=elem_type, values=[fill] * length)

    def new_tag(self, tag_type: str) -> TagInstance:
        tag = TagInstance(tag_id=self._next_tag_id, tag_type=tag_type)
        self._next_tag_id += 1
        return tag


def default_field_value(type_name: str) -> object:
    if type_name == "int":
        return 0
    if type_name == "float":
        return 0.0
    if type_name == "boolean":
        return False
    return None
