"""Unit tests for the device-label identification pipeline."""

import random

import pytest

from repro.inspector.labels import (
    VendorLexicon,
    identify,
    label_identifiable,
    make_label,
    tokenize,
)

VENDORS = ["Amazon", "Google", "Western Digital", "TP-Link", "Belkin",
           "Philips", "Sony", "Wyze", "Synology", "iRobot", "Nintendo"]


class TestTokenize:
    def test_basic(self):
        assert tokenize("Living Room Echo #2") == ["living", "room",
                                                   "echo", "2"]

    def test_punctuation_stripped(self):
        assert tokenize("wyze-cam_v2!") == ["wyze", "cam", "v2"]


class TestIdentify:
    @pytest.mark.parametrize("label,vendor", [
        ("amazon echo", "Amazon"),
        ("Living room Echo Dot", "Amazon"),          # alias "echo"
        ("alexa", "Amazon"),
        ("chromecast ultra", "Google"),
        ("nest thermostat", "Google"),
        ("wemo plug", "Belkin"),
        ("kasa outlet", "TP-Link"),
        ("hue bridge", "Philips"),
        ("PS4", "Sony"),
        ("wyze cam #2", "Wyze"),
        ("western digital nas", "Western Digital"),   # bigram match
        ("roomba", "iRobot"),
    ])
    def test_recovers_vendor(self, label, vendor):
        assert identify(label, VENDORS)[0] == vendor

    def test_type_hint(self):
        vendor, hint = identify("wyze cam", VENDORS)
        assert (vendor, hint) == ("Wyze", "camera")

    def test_unknown_label(self):
        assert identify("mystery box", VENDORS) == (None, None)

    def test_general_computing_excluded(self):
        assert identify("john's iphone", VENDORS) == (None, None)
        assert identify("work laptop", VENDORS) == (None, None)
        # Even when a vendor word appears alongside.
        assert identify("amazon tablet", VENDORS) == (None, None)

    def test_case_insensitive(self):
        assert identify("AMAZON ECHO", VENDORS)[0] == "Amazon"

    def test_alias_requires_known_vendor(self):
        # "echo" aliases to Amazon, but Amazon isn't in this universe.
        assert identify("echo", ["Google"]) == (None, None)


class TestVendorLexicon:
    def test_lexicon_identifies_like_the_name_list(self):
        lexicon = VendorLexicon(VENDORS)
        rng = random.Random(5)
        labels = ["western digital nas", "tplink plug", "my iphone",
                  "alexa", "fire tv stick", "mystery box", "nest cam"]
        labels += [make_label(rng, rng.choice(VENDORS + ["Roku"]),
                              rng.choice(["Cam", "TV", "Plug", "Hub"]))
                   for _ in range(300)]
        for label in labels:
            assert identify(label, lexicon) == identify(label, VENDORS)

    def test_lexicon_accepts_any_iterable(self):
        lexicon = VendorLexicon(name for name in VENDORS)
        assert identify("tp-link kasa plug", lexicon)[0] == "TP-Link"
        assert lexicon.names == frozenset(VENDORS)


class TestGeneration:
    def test_label_identifiable_roundtrips(self):
        rng = random.Random(3)
        for vendor in VENDORS:
            label = label_identifiable(rng, vendor, "Camera", VENDORS)
            assert identify(label, VENDORS)[0] == vendor

    def test_make_label_styles(self):
        rng = random.Random(4)
        labels = {make_label(rng, "Amazon", "Echo") for _ in range(40)}
        assert len(labels) > 5  # several distinct formats appear

    def test_some_styles_unidentifiable(self):
        # Style 3 omits the vendor; with a generic type it cannot be
        # identified — that's the funnel's drop path.
        rng = random.Random(5)
        label = make_label(rng, "Vizio", "SmartCast TV", style=3)
        assert "vizio" not in label
