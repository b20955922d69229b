"""Query layer over a ClientHello capture.

:class:`InspectorDataset` wraps the record stream with the joins every
analysis in Section 4 needs: fingerprint↔vendor and fingerprint↔device
incidence, per-vendor fingerprint sets, SNI↔fingerprint ties, and device /
user registries.  Every index is a fold over the records, so the dataset
is append-only: :meth:`InspectorDataset.extend` absorbs more records.
"""

from collections import defaultdict



class InspectorDataset:
    """An append-only view over devices, users, and ClientHello records.

    A dataset that grows must not be handed to code that caches per
    dataset object (``MatchEngine.vendor_index``): the cache would keep
    answering for the records seen when it was built.
    """

    def __init__(self, records, devices=None, users=None):
        self.records = []
        self.devices = list(devices or [])
        self.users = list(users or [])
        self._fingerprints = set()
        self._vendors_by_fp = defaultdict(set)
        self._devices_by_fp = defaultdict(set)
        self._fps_by_vendor = defaultdict(set)
        self._fps_by_device = defaultdict(set)
        self._vendor_by_device = {}
        self._type_by_device = {}
        self._user_by_device = {}
        self._records_by_device = defaultdict(list)
        self._fps_by_sni = defaultdict(set)
        self._devices_by_sni = defaultdict(set)
        self._device_fps_by_sni = defaultdict(set)
        self.extend(records)

    @classmethod
    def from_world(cls, world):
        return cls(records=world.records, devices=world.devices,
                   users=world.users)

    def extend(self, records):
        """Absorb more ClientHello records into the capture and indexes."""
        for record in records:
            self.records.append(record)
            fp = record.fingerprint()
            self._fingerprints.add(fp)
            self._vendors_by_fp[fp].add(record.vendor)
            self._devices_by_fp[fp].add(record.device_id)
            self._fps_by_vendor[record.vendor].add(fp)
            self._fps_by_device[record.device_id].add(fp)
            self._vendor_by_device[record.device_id] = record.vendor
            self._type_by_device[record.device_id] = record.device_type
            self._user_by_device[record.device_id] = record.user_id
            self._records_by_device[record.device_id].append(record)
            if record.sni:
                self._fps_by_sni[record.sni].add(fp)
                self._devices_by_sni[record.sni].add(record.device_id)
                self._device_fps_by_sni[record.sni].add(
                    (record.device_id, fp))

    # --- population ------------------------------------------------------------

    @property
    def device_count(self):
        return len(self._fps_by_device)

    @property
    def vendor_count(self):
        return len(self._fps_by_vendor)

    @property
    def user_count(self):
        return len({record.user_id for record in self.records})

    def vendor_names(self):
        return sorted(self._fps_by_vendor)

    def device_ids(self):
        return sorted(self._fps_by_device)

    def devices_of_vendor(self, vendor):
        return sorted(d for d, v in self._vendor_by_device.items()
                      if v == vendor)

    def device_vendor(self, device_id):
        return self._vendor_by_device[device_id]

    def device_type(self, device_id):
        return self._type_by_device[device_id]

    def device_user(self, device_id):
        return self._user_by_device[device_id]

    def records_of_device(self, device_id):
        return list(self._records_by_device[device_id])

    # --- fingerprints ------------------------------------------------------------

    def fingerprints(self):
        """All distinct 3-tuple fingerprints in the capture."""
        return set(self._fingerprints)

    @property
    def fingerprint_count(self):
        return len(self._fingerprints)

    def fingerprint_vendors(self, fp):
        """Vendors with at least one device proposing ``fp``."""
        return set(self._vendors_by_fp[fp])

    def fingerprint_devices(self, fp):
        return set(self._devices_by_fp[fp])

    def fingerprint_degree(self, fp):
        """The paper's *degree*: number of vendors using ``fp``."""
        return len(self._vendors_by_fp[fp])

    def vendor_fingerprints(self, vendor):
        return set(self._fps_by_vendor[vendor])

    def device_fingerprints(self, device_id):
        return set(self._fps_by_device[device_id])

    # --- SNIs ---------------------------------------------------------------------

    def snis(self):
        return sorted(self._fps_by_sni)

    def sni_fingerprints(self, sni):
        return set(self._fps_by_sni[sni])

    def sni_devices(self, sni):
        return set(self._devices_by_sni[sni])

    def sni_device_fingerprints(self, sni):
        """Set of (device_id, fingerprint) pairs observed toward ``sni``."""
        return set(self._device_fps_by_sni[sni])

    def sni_users(self, sni):
        return {self._user_by_device[d] for d in self._devices_by_sni[sni]}

    # --- convenience ----------------------------------------------------------------

    def ciphersuite_lists(self):
        """Distinct {device, ciphersuite list} tuples (Appendix B analyses)."""
        tuples = set()
        for record in self.records:
            tuples.add((record.device_id, tuple(record.ciphersuites)))
        return tuples

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)
