"""The bounded-exhaustive box of ``tests/box.py`` at up to three strings:
its canonical forms against the raw enumeration, and every class through
every oracle."""

import itertools

import box

from pearlmem import frame_assignment, render
from pearlmem.selftest import check_instance


def test_the_classes_are_the_canonical_forms_of_the_raw_box():
    # Every raw encoder of up to two strings has its canonical form among the
    # classes, every class is one, and relabelling the qubits changes no
    # frame: each raw encoder has its class's assignment.
    for n, raw_count, class_count in (0, 1, 1), (1, 42, 9), (2, 1764, 302):
        raw = list(itertools.product(box.STRINGS, repeat=n))
        classes = {strings: frame_assignment(box.encoder(strings)) for strings in box.classes(n)}
        assert (len(raw), len(classes)) == (raw_count, class_count)
        assert {box.canonical(strings) for strings in raw} == set(classes)
        for strings in raw:
            assert frame_assignment(box.encoder(strings)) == classes[box.canonical(strings)]


def test_every_class_of_up_to_three_strings_passes_every_oracle():
    counts = []
    for n in range(4):
        classes = list(box.classes(n))
        counts.append(len(classes))
        encoders = map(box.encoder, classes)
        failures = [(render(enc), why) for enc in encoders if (why := check_instance(enc))]
        assert failures == []
    assert counts == [1, 9, 302, 12_380]
