"""Table II: the FPGA boards used for evaluation.

Regenerates the device catalog and checks the BSP-reservation shares the
paper reports (about 25% of the Stratix resources are reserved).
"""

from repro.fpga.device import ARRIA10, DEVICES, STRATIX10

from bench_common import print_table


def _rows():
    rows = []
    for dev in (ARRIA10, STRATIX10):
        rows.append((dev.name, "Total", f"{dev.total.alms // 1000} K",
                     f"{dev.total.ffs / 1e6:.1f} M",
                     f"{dev.total.m20ks / 1000:.1f} K", dev.total.dsps,
                     f"{dev.dram_banks}x{dev.dram_bank_bytes // 10**9}GB"))
        rows.append((dev.name, "Avail.", f"{dev.available.alms // 1000} K",
                     f"{dev.available.ffs / 1e6:.1f} M",
                     f"{dev.available.m20ks / 1000:.1f} K",
                     dev.available.dsps, ""))
    return rows


def test_table2_regeneration():
    print_table("Table II: FPGA boards",
                ["FPGA", "", "ALM", "FF", "M20K", "DSP", "DRAM"], _rows())
    # The Stratix BSP reserves roughly 25% of the device (Sec. VI-A).
    frac = 1 - STRATIX10.available.alms / STRATIX10.total.alms
    assert 0.2 < frac < 0.3
    # DSPs: 4468 of 5760 available on Stratix; all 1518 on Arria.
    assert STRATIX10.available.dsps == 4468
    assert ARRIA10.available.dsps == 1518
    # Stratix has twice the DDR modules of Arria.
    assert STRATIX10.dram_banks == 2 * ARRIA10.dram_banks


def test_catalog_is_complete():
    """Both Table II boards are in the catalog with the paper's rows (the
    catalog has since grown past the paper: the HBM U280 of PR 9)."""
    assert DEVICES["arria10"] is ARRIA10 and DEVICES["stratix10"] is STRATIX10
    assert _rows() == [
        ("Arria 10 GX 1150", "Total", "427 K", "1.7 M", "2.7 K", 1518,
         "2x8GB"),
        ("Arria 10 GX 1150", "Avail.", "392 K", "1.5 M", "2.4 K", 1518, ""),
        ("Stratix 10 GX 2800", "Total", "933 K", "3.7 M", "11.7 K", 5760,
         "4x8GB"),
        ("Stratix 10 GX 2800", "Avail.", "692 K", "2.8 M", "8.9 K", 4468,
         ""),
    ]


def test_bench_catalog(benchmark):
    benchmark(_rows)
