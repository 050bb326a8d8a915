#!/usr/bin/env python3
"""Medical-records scenario: multi-attribute range search with updates.

The paper's introduction motivates numerical search with "ages in medical
records".  This example outsources a small patient registry with two numeric
attributes (age, systolic blood pressure), runs verified per-attribute range
queries, then exercises the dynamic-update path: a new patient is admitted
(forward-secure insert) and the user's refreshed state immediately sees them
with full on-chain verification.

Run:  python examples/medical_records.py
"""

from repro import AttributedDatabase, Query, Range, SlicerParams, SlicerSystem

PATIENTS = [
    ("patient-01", {"age": 34, "systolic": 121}),
    ("patient-02", {"age": 67, "systolic": 145}),
    ("patient-03", {"age": 45, "systolic": 130}),
    ("patient-04", {"age": 29, "systolic": 118}),
    ("patient-05", {"age": 71, "systolic": 160}),
    ("patient-06", {"age": 52, "systolic": 138}),
    ("patient-07", {"age": 8, "systolic": 102}),
    ("patient-08", {"age": 61, "systolic": 151}),
]


def names(ids: set[bytes]) -> list[str]:
    return sorted(i.lstrip(b"\x00").decode() for i in ids)


def main() -> None:
    # Patient IDs are longer than the default 8 bytes; widen record_id_len.
    params = SlicerParams.testing(value_bits=8, record_id_len=16)

    registry = AttributedDatabase(bits=8, id_len=16)
    for patient_id, attributes in PATIENTS:
        registry.add(patient_id, attributes)

    system = SlicerSystem(params)
    system.setup(registry)
    print(f"registry outsourced: {len(registry)} patients, 2 attributes each")

    # --- Verified range query: seniors (age >= 65) -----------------------
    seniors = system.search(Query.parse(64, "<", attribute="age"))
    assert seniors.verified
    print(f"age > 64        -> {names(seniors.record_ids)}")

    # --- Two-sided range on the other attribute --------------------------
    hypertension = system.search_plan(Range(140, 200, attribute="systolic"))
    assert hypertension.verified
    print(f"systolic 140-200 -> {names(hypertension.record_ids)}")

    # --- Attribute isolation: same number, different meaning -------------
    # 67 appears as an age; querying systolic == 67 must return nothing.
    crossed = system.search(Query.parse(67, "=", attribute="systolic"))
    assert crossed.verified and not crossed.record_ids
    print("attribute isolation holds: systolic == 67 -> []")

    # --- Dynamic update: a new admission (forward-secure insert) ---------
    admission = AttributedDatabase(bits=8, id_len=16)
    admission.add("patient-09", {"age": 80, "systolic": 149})
    receipt = system.insert(admission)
    print(f"new admission inserted; on-chain ADS update gas = {receipt.gas_used:,}")

    seniors_after = system.search(Query.parse(64, "<", attribute="age"))
    assert seniors_after.verified
    assert len(seniors_after.record_ids) == len(seniors.record_ids) + 1
    print(f"age > 64 (fresh) -> {names(seniors_after.record_ids)}")

    print("every result above was verified by the smart contract")


if __name__ == "__main__":
    main()
