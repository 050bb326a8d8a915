#!/usr/bin/env python3
"""Dynamic inventory with deletion and update (the Section V.F extensions).

A warehouse outsources stock levels; items get restocked (update), sold out
(delete) and added (insert).  Deletion uses the dual-instance construction:
one Slicer instance accumulates insertions, a second one deletions, and the
answer is the set difference of two paid, on-chain-verified searches.

Run:  python examples/dynamic_inventory.py
"""

from repro import DualSlicerSystem, Query, SlicerParams, make_database
from repro.common.rng import default_rng
from repro.core.records import encode_record_id

ID_LEN = 16

STOCK = [
    ("widget", 120),
    ("gadget", 45),
    ("doohickey", 8),
    ("gizmo", 200),
    ("sprocket", 45),
]


def names(ids: set[bytes]) -> list[str]:
    return sorted(i.lstrip(b"\x00").decode() for i in ids)


def show(label: str, result) -> None:
    marker = "verified" if result.verified else "VERIFICATION FAILED"
    print(f"{label:28s} -> {names(result.record_ids)}  [{marker}]")


def main() -> None:
    params = SlicerParams.testing(value_bits=8, record_id_len=ID_LEN)
    inventory = DualSlicerSystem(params, default_rng(7))
    inventory.setup(make_database(STOCK, bits=8, id_len=ID_LEN))
    print(f"outsourced {len(STOCK)} items (value = units in stock)\n")

    low_stock = Query.parse(50, ">")  # items with stock below 50
    show("low stock (< 50)", inventory.search(low_stock))

    # --- A delivery arrives: doohickey restocked 8 -> 150 ----------------
    inventory.update(encode_record_id("doohickey", ID_LEN), 150)
    show("after doohickey restock", inventory.search(low_stock))

    # --- gadget sells out: delete the record ------------------------------
    inventory.delete(encode_record_id("gadget", ID_LEN))
    show("after gadget sold out", inventory.search(low_stock))

    # --- A new product line ------------------------------------------------
    inventory.insert(encode_record_id("whatsit", ID_LEN), 12)
    show("after adding whatsit", inventory.search(low_stock))

    # Both instances stay independently verifiable:
    final = inventory.search(low_stock)
    assert final.insert_outcome.verified and final.delete_outcome.verified
    assert final.record_ids == inventory.expected_ids(low_stock)
    print("\ninsert-instance and delete-instance both verified;")
    print("results equal the plaintext ground truth throughout.")


if __name__ == "__main__":
    main()
