"""Shared SDK / application TLS stacks.

Section 4.4 of the paper explains non-standard fingerprints shared across
vendors by *shared applications*: an SDK (Roku OS, the Sonos SDK, the
Netflix client, ...) ships its own TLS stack, and devices exhibit that
stack's fingerprint exactly when talking to the SDK's servers.  Table 5
lists the resulting {second-level domain, fingerprint} ties.

Each :class:`SDK` owns one or more stacks; every stack routes a set of
domains.  A domain route is ``(sld, fqdn_count)`` — the generator creates
that many FQDNs under the SLD and wires device routing tables so traffic
to those hosts uses the SDK stack rather than the device's own.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class SDKStack:
    """One TLS stack inside an SDK, with the FQDNs it owns.

    Attributes:
        key: routing key, unique within the whole SDK population.
        library: base library era (see :mod:`repro.inspector.stacks`).
        hygiene: security hygiene of this stack — Table 5 annotates the
            Roku-platform stacks with RC4/3DES vulnerabilities.
        routes: tuple of ``(sld, fqdn_count)`` this stack talks to.
    """

    key: str
    library: str
    hygiene: float
    routes: tuple


@dataclass(frozen=True)
class SDK:
    """A third-party application / platform component."""

    name: str
    stacks: tuple


#: The SDK population.  Membership (which vendors install which SDK) lives
#: in the vendor profiles (:mod:`repro.inspector.vendors`).
SDKS = {
    # The Roku OS platform, licensed to Insignia/Sharp/TCL TVs.  Table 5
    # shows three distinct platform stacks: the main stack (roku.com,
    # mgo.com), a media stack carrying RC4+3DES (mgo-images.com, ravm.tv),
    # and an older update stack carrying 3DES (a second roku.com group).
    "roku-os": SDK(name="roku-os", stacks=(
        SDKStack(key="roku-os/main", library="openssl-1.0.2", hygiene=0.6,
                 routes=(("roku.com", 8), ("mgo.com", 2))),
        SDKStack(key="roku-os/media", library="openssl-1.0.0", hygiene=0.1,
                 routes=(("mgo-images.com", 2), ("ravm.tv", 1))),
        SDKStack(key="roku-os/update", library="openssl-1.0.1", hygiene=0.3,
                 routes=(("roku.com", 6),)),
    )),
    # The Sonos smart-speaker SDK, embedded in Amazon and IKEA speakers.
    "sonos-sdk": SDK(name="sonos-sdk", stacks=(
        SDKStack(key="sonos-sdk/main", library="openssl-1.1.0", hygiene=0.8,
                 routes=(("sonos.com", 5),)),
    )),
    # Pandora streaming client used by Sonos (and Sonos-enabled Amazon
    # speakers) in the back-end.
    "pandora-client": SDK(name="pandora-client", stacks=(
        SDKStack(key="pandora-client/main", library="openssl-1.1.0",
                 hygiene=0.7, routes=(("pandora.com", 1),)),
    )),
    # The Netflix native client shipped on smart TVs and sticks.
    "netflix-client": SDK(name="netflix-client", stacks=(
        SDKStack(key="netflix-client/cdn", library="openssl-1.0.2",
                 hygiene=0.65, routes=(("nflxvideo.net", 5),)),
        SDKStack(key="netflix-client/api", library="openssl-1.0.2",
                 hygiene=0.6, routes=(("netflix.com", 4), ("nflxext.com", 2))),
    )),
    # The Arlo camera platform (Arlo was spun out of NETGEAR).
    "arlo-sdk": SDK(name="arlo-sdk", stacks=(
        SDKStack(key="arlo-sdk/main", library="openssl-1.0.2", hygiene=0.5,
                 routes=(("arlo.com", 2), ("netgear.com", 1))),
    )),
    # The HDHomeRun tuner firmware (SiliconDust's own product line).
    "hdhomerun": SDK(name="hdhomerun", stacks=(
        SDKStack(key="hdhomerun/main", library="openssl-1.0.2", hygiene=0.5,
                 routes=(("hdhomerun.com", 2),)),
    )),
    # Google cast-for-audio component inside Onkyo/Pioneer receivers.
    "cast-audio": SDK(name="cast-audio", stacks=(
        SDKStack(key="cast-audio/main", library="openssl-1.0.1", hygiene=0.3,
                 routes=(("cast4.audio", 1),)),
    )),
    # Google Play / account services client on Android-TV devices.
    "google-play": SDK(name="google-play", stacks=(
        SDKStack(key="google-play/main", library="openssl-1.1.0",
                 hygiene=0.75, routes=(("googleapis.com", 1),)),
    )),
}

#: SDKs whose vendors also ship the SDK in their own first-party devices
#: (HDHomeRun tuners are SiliconDust products; routing still applies).
IMPLICIT_SDK_MEMBERS = {
    "hdhomerun": ("HDHomeRun", "SiliconDust"),
}
