"""Heap object, array, and tag-instance tests."""

from repro.runtime.objects import BArray, BObject, Heap, TagInstance, default_field_value


class TestHeap:
    def test_object_ids_monotone(self):
        heap = Heap()
        a = heap.new_object("X", 2)
        b = heap.new_object("Y", 0)
        assert (a.obj_id, b.obj_id) == (0, 1)

    def test_fields_initialized_to_none(self):
        heap = Heap()
        obj = heap.new_object("X", 3)
        assert obj.fields == [None, None, None]

    def test_new_array_fill(self):
        heap = Heap()
        arr = heap.new_array("int", 4, fill=0)
        assert arr.values == [0, 0, 0, 0]
        assert len(arr) == 4

    def test_tag_ids_monotone(self):
        heap = Heap()
        assert heap.new_tag("a").tag_id == 0
        assert heap.new_tag("b").tag_id == 1


class TestFlags:
    def test_set_and_clear(self):
        obj = BObject(obj_id=0, class_name="X", fields=[])
        obj.set_flag("a", True)
        assert obj.flags == {"a"}
        obj.set_flag("a", False)
        assert obj.flags == set()

    def test_clear_absent_flag_noop(self):
        obj = BObject(obj_id=0, class_name="X", fields=[])
        obj.set_flag("a", False)
        assert obj.flags == set()


class TestTags:
    def test_bind_creates_backreference(self):
        obj = BObject(obj_id=7, class_name="X", fields=[])
        tag = TagInstance(tag_id=0, tag_type="grp")
        obj.bind_tag(tag)
        assert 7 in tag.bound_objects
        assert obj.tags_of_type("grp") == [tag]

    def test_bind_idempotent(self):
        obj = BObject(obj_id=7, class_name="X", fields=[])
        tag = TagInstance(tag_id=0, tag_type="grp")
        obj.bind_tag(tag)
        obj.bind_tag(tag)
        assert len(obj.tags_of_type("grp")) == 1

    def test_unbind(self):
        obj = BObject(obj_id=7, class_name="X", fields=[])
        tag = TagInstance(tag_id=0, tag_type="grp")
        obj.bind_tag(tag)
        obj.unbind_tag(tag)
        assert obj.tags_of_type("grp") == []
        assert 7 not in tag.bound_objects

    def test_tag_identity_by_id(self):
        a = TagInstance(tag_id=3, tag_type="grp")
        b = TagInstance(tag_id=3, tag_type="grp")
        assert a == b and hash(a) == hash(b)


class TestDefaults:
    def test_default_field_values(self):
        assert default_field_value("int") == 0
        assert default_field_value("float") == 0.0
        assert default_field_value("boolean") is False
        assert default_field_value("String") is None
        assert default_field_value("Whatever") is None
