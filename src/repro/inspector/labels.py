"""User device labels and the identification pipeline.

IoT Inspector users label their devices free-form ("living room echo",
"Wyze cam #2", "tv"); the study recovers ``(vendor, device type)`` from
those labels with NLP-style rules (Section 3, following Section 5.1 of the
IoT Inspector paper).  We reproduce both halves: a noisy label generator
(used by the world generator) and the identification rules (tokenization,
alias resolution, vendor/type keyword matching).  Devices whose labels
cannot be identified are dropped from the study, exactly as in the paper.
"""

import re


#: Brand aliases users actually type.
VENDOR_ALIASES = {
    "alexa": "Amazon", "echo": "Amazon", "firetv": "Amazon",
    "fire": "Amazon", "ring": "Amazon", "kindle": "Amazon",
    "chromecast": "Google", "nest": "Google", "ghome": "Google",
    "wemo": "Belkin", "kasa": "TP-Link", "tplink": "TP-Link",
    "hue": "Philips", "playstation": "Sony", "ps4": "Sony", "ps3": "Sony",
    "bravia": "Sony", "roomba": "iRobot", "shield": "Nvidia",
    "harmony": "Logitech", "heos": "Denon", "webos": "LG",
    "smartthings": "Samsung", "tradfri": "IKEA", "wd": "Western Digital",
    "mycloud": "Western Digital", "diskstation": "Synology",
    "caseta": "Lutron", "obi": "Obihai", "switch": "Nintendo",
    "wiiu": "Nintendo", "unifi": "Ubiquity", "soundtouch": "Bose",
    "musiccast": "Yamaha", "hopper": "Dish Network",
    "genie": "DirecTV", "sleepiq": "Sleep number", "yeelight": "Xiaomi",
    "mibox": "Xiaomi",
}

#: Device-type keywords (used after the vendor is known or alone).
TYPE_KEYWORDS = {
    "cam": "camera", "camera": "camera", "doorbell": "camera",
    "tv": "tv", "television": "tv", "stick": "tv", "dvr": "tv",
    "plug": "plug", "switch": "plug", "outlet": "plug",
    "speaker": "speaker", "soundbar": "speaker",
    "thermostat": "thermostat", "printer": "printer",
    "hub": "hub", "bridge": "hub", "router": "network", "nas": "nas",
    "light": "light", "bulb": "light", "vacuum": "appliance",
}

#: General-purpose computing devices the study excludes (Section 2).
EXCLUDED_KEYWORDS = frozenset({
    "iphone", "android", "phone", "laptop", "macbook", "desktop",
    "pc", "tablet", "ipad", "computer", "workstation",
})

_TOKEN = re.compile(r"[a-z0-9]+")


def _normalize(name):
    """Canonical token form of a vendor name ("TP-Link" → "tplink")."""
    return re.sub(r"[^a-z0-9]", "", name.lower())

#: Decorations users attach that carry no identification signal.
_NOISE_WORDS = (
    "living room", "bedroom", "kitchen", "upstairs", "downstairs",
    "office", "garage", "kids", "main", "old", "new", "my", "the",
)


def make_label(rng, vendor_name, type_name, style=None):
    """Generate a plausible user label for a device.

    ``style`` picks among formats users actually produce; by default it is
    drawn from the rng: full brand+type, alias only, type only (hard to
    identify), or decorated variants with rooms and numbers.
    """
    style = style if style is not None else rng.randrange(6)
    vendor = vendor_name.lower()
    dtype = type_name.lower()
    noise = rng.choice(_NOISE_WORDS)
    if style == 0:
        return f"{vendor} {dtype}"
    if style == 1:
        return f"{noise} {vendor} {dtype}"
    if style == 2:
        return f"{vendor}-{dtype}-{rng.randint(1, 9)}"
    if style == 3:
        return f"{noise} {dtype}"        # vendor missing: identifiable only
        # if the type name is itself an alias (e.g. "echo").
    if style == 4:
        return vendor.upper()
    return f"{vendor} {dtype} #{rng.randint(1, 5)}"


def tokenize(label):
    return _TOKEN.findall(label.lower())


class VendorLexicon:
    """The canonical vendor names, indexed once for :func:`identify`.

    A world identifies thousands of labels against one vendor list;
    building this once per world replaces a normalised-name map built on
    every call.
    """

    def __init__(self, known_vendors):
        known_vendors = list(known_vendors)
        self.names = frozenset(known_vendors)
        #: normalised token ("tplink") → canonical name ("TP-Link").
        self.by_token = {_normalize(name): name for name in known_vendors}


def identify(label, known_vendors):
    """Recover ``(vendor, type_hint)`` from a user label.

    Returns ``(None, None)`` when no vendor can be determined or the label
    names an excluded general-computing device.  ``known_vendors`` is the
    set of canonical vendor names, or a :class:`VendorLexicon` of them
    (matching is case-insensitive and also checks concatenated bigrams
    for names like "Western Digital").
    """
    tokens = tokenize(label)
    if any(token in EXCLUDED_KEYWORDS for token in tokens):
        return None, None
    lexicon = known_vendors if isinstance(known_vendors, VendorLexicon) \
        else VendorLexicon(known_vendors)
    lower_map = lexicon.by_token
    vendor = None
    for token in tokens:
        if token in lower_map:
            vendor = lower_map[token]
            break
        if token in VENDOR_ALIASES \
                and VENDOR_ALIASES[token] in lexicon.names:
            vendor = VENDOR_ALIASES[token]
            break
    if vendor is None:
        for first, second in zip(tokens, tokens[1:]):
            if first + second in lower_map:
                vendor = lower_map[first + second]
                break
    if vendor is None:
        return None, None
    type_hint = None
    for token in tokens:
        if token in TYPE_KEYWORDS:
            type_hint = TYPE_KEYWORDS[token]
            break
    return vendor, type_hint


def label_identifiable(rng, vendor_name, type_name, known_vendors):
    """Generate a label guaranteed to identify as ``vendor_name``.

    The world generator uses this for the devices that survive the
    identification funnel; separately generated unidentifiable labels
    exercise the drop path.
    """
    for _ in range(8):
        label = make_label(rng, vendor_name, type_name)
        vendor, _hint = identify(label, known_vendors)
        if vendor == vendor_name:
            return label
    return f"{vendor_name.lower()} {type_name.lower()}"
