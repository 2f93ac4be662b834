"""YARN's four value records against the frozen dataclasses they replaced.

``Resource``, ``Priority``, ``ApplicationId`` and ``ContainerId`` are
tuple-backed: ``hash`` / ``==`` / ordering are ``tuple``'s C slots and
the two ids render their name once, at construction, into the instance
``__dict__``. What they replaced - four ``@dataclass(frozen=True,
order=True)`` classes whose generated ``__hash__`` / ``__eq__`` /
``__lt__`` / ``__init__`` and f-string ``__str__`` ran as Python frames
per scheduler lookup - is kept here verbatim as ``_Frozen*``, and
Hypothesis compares the shipped records with them on generated field
values: comparisons and sort order within a class, hash *values* (a set
or dict of records iterates in the order it always did, whatever
``PYTHONHASHSEED`` is), ``str`` / ``repr``, ``Resource`` arithmetic bit
for bit, the same ``ValueError`` on a negative, immutability, pickle /
deepcopy round-trips and use as dict keys.

One deliberate difference, pinned by ``test_records_compare_structurally``:
tuples compare by content, so ``Resource(0, 1) == ApplicationId(0, 1)``,
``Priority(3) == (3,)``, and ``<`` across classes orders instead of
raising ``TypeError``. No index mixes classes under one key position.

Hand mutations of ``yarn/records.py`` each of these tests catches (tried
one at a time):

* drop the validation in ``__sub__`` (build the difference with
  ``tuple.__new__`` as ``__add__`` does) -
  ``test_resource_matches_frozen`` (the frozen side raises, the shipped
  one returns a negative resource);
* put the rendered name in the tuple (``(cluster_ts, app_num, name)``) -
  ``test_ids_match_frozen`` on the hash value and
  ``test_the_name_lives_outside_the_tuple`` on the length;
* cache ``str`` on the class instead of the instance -
  ``test_ids_match_frozen`` (the second id of a pair prints the first's
  name);
* return a bare tuple from ``+`` - ``test_resource_matches_frozen``
  (``repr`` and type of the sum).
"""

import copy
import dataclasses
import itertools
import pickle
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from repro.yarn.records import ApplicationId, ContainerId, Priority, Resource


# --- the parent's records, verbatim --------------------------------------
@dataclass(frozen=True, order=True)
class _FrozenResource:
    """A resource capability: memory and virtual cores."""

    memory_mb: int
    vcores: int = 1

    def __post_init__(self):
        if self.memory_mb < 0 or self.vcores < 0:
            raise ValueError("resources must be non-negative")

    def fits_in(self, other: "_FrozenResource") -> bool:
        return self.memory_mb <= other.memory_mb and self.vcores <= other.vcores

    def __add__(self, other: "_FrozenResource") -> "_FrozenResource":
        return _FrozenResource(self.memory_mb + other.memory_mb, self.vcores + other.vcores)

    def __sub__(self, other: "_FrozenResource") -> "_FrozenResource":
        return _FrozenResource(self.memory_mb - other.memory_mb, self.vcores - other.vcores)

    def dominant_share(self, total: "_FrozenResource") -> float:
        shares = []
        if total.memory_mb:
            shares.append(self.memory_mb / total.memory_mb)
        if total.vcores:
            shares.append(self.vcores / total.vcores)
        return max(shares) if shares else 0.0


@dataclass(frozen=True, order=True)
class _FrozenPriority:
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("priority must be >= 0")


_frozen_app_counter = itertools.count(1)


@dataclass(frozen=True, order=True)
class _FrozenApplicationId:
    cluster_ts: int
    app_num: int

    @classmethod
    def new(cls, cluster_ts: int = 0) -> "_FrozenApplicationId":
        return cls(cluster_ts, next(_frozen_app_counter))

    def __str__(self) -> str:
        return f"application_{self.cluster_ts}_{self.app_num:04d}"


@dataclass(frozen=True, order=True)
class _FrozenContainerId:
    app_id: _FrozenApplicationId
    container_num: int

    def __str__(self) -> str:
        return f"container_{self.app_id.cluster_ts}_{self.app_id.app_num:04d}_{self.container_num:06d}"
# -------------------------------------------------------------------------


SIZES = st.integers(0, 2 ** 40) | st.integers(0, 3)
SIGNED = st.integers(-3, 2 ** 40) | st.integers(-3, 3)
RESOURCES = st.tuples(SIZES, SIZES)
APP_IDS = st.tuples(SIZES, SIZES)
CONTAINER_IDS = st.tuples(APP_IDS, SIZES)


def _outcome(fn):
    try:
        return fn()
    except (ValueError, TypeError, AttributeError) as exc:
        return type(exc)


def _container_ids(fields):
    (ts, num), seq = fields
    return (ContainerId(ApplicationId(ts, num), seq),
            _FrozenContainerId(_FrozenApplicationId(ts, num), seq))


def _same_relations(new_a, new_b, old_a, old_b):
    assert (new_a == new_b) == (old_a == old_b)
    assert (new_a != new_b) == (old_a != old_b)
    assert (new_a < new_b) == (old_a < old_b)
    assert (new_a <= new_b) == (old_a <= old_b)
    assert (new_a > new_b) == (old_a > old_b)
    assert (new_a >= new_b) == (old_a >= old_b)
    assert hash(new_a) == hash(old_a) and hash(new_b) == hash(old_b)
    if new_a == new_b:
        assert hash(new_a) == hash(new_b)


def _shown(record) -> tuple[str, str]:
    return str(record).replace("_Frozen", ""), repr(record).replace(
        "_Frozen", "")


@settings(max_examples=300, deadline=None)
@given(RESOURCES, RESOURCES)
def test_resource_matches_frozen(a, b):
    new_a, new_b = Resource(*a), Resource(*b)
    old_a, old_b = _FrozenResource(*a), _FrozenResource(*b)
    _same_relations(new_a, new_b, old_a, old_b)
    # A dataclass has no __str__ of its own: str() is its repr.
    assert _shown(new_a) == _shown(old_a)
    assert new_a.fits_in(new_b) == old_a.fits_in(old_b)
    assert new_a.dominant_share(new_b).hex() \
        == old_a.dominant_share(old_b).hex()
    total = new_a + new_b
    assert type(total) is Resource
    assert repr(total) == repr(old_a + old_b).replace("_Frozen", "")
    difference = _outcome(lambda: new_a - new_b)
    expected = _outcome(lambda: old_a - old_b)
    if expected is ValueError:
        assert difference is ValueError
    else:
        assert type(difference) is Resource
        assert tuple(difference) == (expected.memory_mb, expected.vcores)


@given(SIGNED, SIGNED)
def test_negative_sizes_are_rejected_alike(memory_mb, vcores):
    new = _outcome(lambda: Resource(memory_mb, vcores))
    old = _outcome(lambda: _FrozenResource(memory_mb, vcores))
    assert (new is ValueError) == (old is ValueError)
    assert (_outcome(lambda: Priority(memory_mb)) is ValueError) \
        == (_outcome(lambda: _FrozenPriority(memory_mb)) is ValueError)


def test_defaults_and_field_names_are_the_public_surface():
    assert Resource(512) == Resource(512, 1)
    assert Resource(memory_mb=1, vcores=2).vcores == 2
    assert Resource._fields == ("memory_mb", "vcores")
    assert Priority._fields == ("value",)
    assert ApplicationId._fields == ("cluster_ts", "app_num")
    assert ContainerId._fields == ("app_id", "container_num")
    first, second = ApplicationId.new(), ApplicationId.new(cluster_ts=7)
    assert type(first) is ApplicationId
    assert (second.cluster_ts, second.app_num) == (7, first.app_num + 1)


@given(SIZES, SIZES)
def test_priority_matches_frozen(a, b):
    new_a, new_b = Priority(a), Priority(b)
    _same_relations(new_a, new_b, _FrozenPriority(a), _FrozenPriority(b))
    assert _shown(new_a) == _shown(_FrozenPriority(a))
    assert new_a.value == a


@settings(max_examples=300, deadline=None)
@given(CONTAINER_IDS, CONTAINER_IDS)
def test_ids_match_frozen(a, b):
    new_a, old_a = _container_ids(a)
    new_b, old_b = _container_ids(b)
    _same_relations(new_a, new_b, old_a, old_b)
    _same_relations(new_a.app_id, new_b.app_id, old_a.app_id, old_b.app_id)
    for new, old in ((new_a, old_a), (new_b, old_b)):
        assert _shown(new) == _shown(old)
        assert _shown(new.app_id) == _shown(old.app_id)
        assert f"runner:{new}" == f"runner:{old}"
        assert new.container_num == old.container_num


@given(st.lists(RESOURCES, max_size=12), st.lists(CONTAINER_IDS, max_size=12))
def test_sort_order_and_dict_keys_match_frozen(resources, ids):
    for new, old, fields in (
        ([Resource(*r) for r in resources],
         [_FrozenResource(*r) for r in resources],
         lambda r: (r.memory_mb, r.vcores)),
        ([Priority(m) for m, _ in resources],
         [_FrozenPriority(m) for m, _ in resources],
         lambda p: p.value),
        ([_container_ids(c)[0] for c in ids],
         [_container_ids(c)[1] for c in ids],
         lambda c: (c.app_id.cluster_ts, c.app_id.app_num, c.container_num)),
    ):
        assert list(map(fields, sorted(new))) == list(map(fields, sorted(old)))
        # Same hashes, same insertions: a set of the records iterates
        # in the order a set of the dataclasses did.
        assert list(map(fields, set(new))) == list(map(fields, set(old)))
        table = {record: i for i, record in enumerate(new)}
        assert list(map(fields, table)) == list(map(
            fields, {record: i for i, record in enumerate(old)}))
        for i, record in enumerate(new):
            assert table[copy.deepcopy(record)] == table[record] >= i


def test_hash_values_do_not_depend_on_the_hash_seed():
    app = ApplicationId(0, 7)
    assert hash(app) == hash((0, 7))
    assert hash(ContainerId(app, 3)) == hash(((0, 7), 3))
    assert hash(Resource(1024, 2)) == hash((1024, 2))
    assert hash(Priority(5)) == hash((5,))


def test_the_name_lives_outside_the_tuple():
    app = ApplicationId(3, 42)
    container = ContainerId(app, 9)
    assert tuple(app) == (3, 42) and len(app) == 2
    assert tuple(container) == (app, 9) and len(container) == 2
    assert str(app) == "application_3_0042"
    assert str(container) == "container_3_0042_000009"
    assert str(ContainerId(app, 1234567)) == "container_3_0042_1234567"


@given(CONTAINER_IDS, RESOURCES)
def test_copies_and_pickles_keep_value_type_and_name(container, resource):
    records = [*_container_ids(container)[:1], Resource(*resource),
               Priority(resource[0])]
    records.append(records[0].app_id)
    for record in records:
        clones = [copy.copy(record), copy.deepcopy(record)] + [
            pickle.loads(pickle.dumps(record, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for clone in clones:
            assert type(clone) is type(record)
            assert clone == record and hash(clone) == hash(record)
            assert str(clone) == str(record)
            assert repr(clone) == repr(record)


@pytest.mark.parametrize("record", [
    Resource(1, 1), Priority(1), ApplicationId(0, 1),
    ContainerId(ApplicationId(0, 1), 1)], ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    for name in (*record._fields, "extra", "_str"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
    with pytest.raises(AttributeError):
        delattr(record, record._fields[0])
    with pytest.raises(TypeError):
        record[0] = 1


def test_namedtuple_copies_go_through_the_constructor():
    """``_replace`` / ``_make`` re-validate and re-render, as
    ``dataclasses.replace`` re-ran ``__post_init__``."""
    app = ApplicationId(0, 1)._replace(app_num=2)
    assert type(app) is ApplicationId and str(app) == "application_0_0002"
    container = ContainerId._make((app, 3))
    assert str(container) == "container_0_0002_000003"
    assert str(container._replace(container_num=4)) == \
        str(dataclasses.replace(_FrozenContainerId(
            _FrozenApplicationId(0, 2), 3), container_num=4))
    assert Resource(1, 1)._replace(vcores=3) == Resource(1, 3)
    assert Priority._make([4]) == Priority(4)
    for bad in (lambda: Resource(1, 1)._replace(memory_mb=-5),
                lambda: Resource._make((1, -1)),
                lambda: Priority(1)._replace(value=-1)):
        with pytest.raises(ValueError):
            bad()


def test_records_compare_structurally():
    """The one semantic loosening (DESIGN.md "Record identity")."""
    assert Resource(0, 1) == ApplicationId(0, 1)
    assert hash(Resource(0, 1)) == hash(ApplicationId(0, 1))
    assert Priority(3) == (3,)
    assert ContainerId(ApplicationId(0, 1), 2) == ((0, 1), 2)
    assert Priority(3) != 3
    assert Priority(3) < Resource(4, 0)          # no TypeError
    assert ApplicationId(0, 1) < Resource(0, 2)
    # The frozen dataclasses refused both.
    assert _FrozenResource(0, 1) != _FrozenApplicationId(0, 1)
    with pytest.raises(TypeError):
        _FrozenPriority(3) < _FrozenResource(4, 0)
