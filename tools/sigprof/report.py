#!/usr/bin/env python3
"""Symbolise a sigprof.so dump.

    report.py run.prof                 # top 30 symbols of the main binary
    report.py run.prof --top 60
    report.py run.prof --symbol 'Receiver::on_data'   # annotated disassembly
    report.py run.prof --pcs 20        # the 20 hottest single instructions

Samples are attributed with `nm -C` over the executable the dump's first
mapping names (samples in shared objects are lumped per object). With
--symbol, every function whose demangled name contains the text is
disassembled with `objdump` and each instruction is prefixed with the number
of samples that landed on it. With --pcs, the hottest instructions across
the whole binary are listed one a line: share, samples, address, symbol and
offset, and the instruction itself.
"""

import argparse
import bisect
import collections
import re
import subprocess
import sys


def read_dump(path):
    maps, pcs, dropped = [], [], 0
    for line in open(path):
        kind, _, rest = line.partition(" ")
        if kind == "pc":
            pcs.append(int(rest, 16))
        elif kind == "dropped":
            dropped = int(rest)
        elif kind == "map":
            f = rest.split()
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            maps.append((lo, hi, int(f[2], 16), f[5] if len(f) > 5 else ""))
    return maps, pcs, dropped


def load_base(maps, exe):
    """Address the executable's ELF vaddr 0 was loaded at (0 if not PIE)."""
    header = subprocess.run(["readelf", "-h", exe], capture_output=True, text=True).stdout
    if re.search(r"Type:\s+EXEC", header):
        return 0
    return min(lo - off for lo, _, off, name in maps if name == exe and off == 0)


def symbols(exe):
    """Sorted (vaddr, size, name) of the executable's functions."""
    out = subprocess.run(
        ["nm", "-C", "-S", "--defined-only", exe], capture_output=True, text=True, check=True
    ).stdout
    syms = []
    for line in out.splitlines():
        m = re.match(r"([0-9a-f]+) ([0-9a-f]+) [tTwW] (.*)", line)
        if m:
            syms.append((int(m.group(1), 16), int(m.group(2), 16), m.group(3)))
    syms.sort()
    # Identical functions folded to one address keep one name.
    return [s for i, s in enumerate(syms) if i == 0 or s[0] != syms[i - 1][0]]


def instruction(exe, vaddr):
    """The disassembled instruction at `vaddr`, e.g. `movups 0x30(%rsp),%xmm0`."""
    listing = subprocess.run(
        ["objdump", "-d", "--no-show-raw-insn",
         f"--start-address={vaddr:#x}", f"--stop-address={vaddr + 16:#x}", exe],
        capture_output=True, text=True, check=True,
    ).stdout
    for line in listing.splitlines():
        m = re.match(r"\s*([0-9a-f]+):\s+(.*)", line)
        if m and int(m.group(1), 16) == vaddr:
            return " ".join(m.group(2).split())
    return "?"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("dump")
    ap.add_argument("--top", type=int, default=30)
    ap.add_argument("--symbol", help="annotate functions whose name contains this text")
    ap.add_argument("--pcs", type=int, metavar="N", help="list the N hottest instructions")
    args = ap.parse_args()

    maps, pcs, dropped = read_dump(args.dump)
    if not pcs:
        sys.exit("no samples in " + args.dump)
    exe = next(name for _, _, _, name in maps if name.startswith("/"))
    base = load_base(maps, exe)
    syms = symbols(exe)
    starts = [s[0] for s in syms]

    by_symbol = collections.Counter()
    by_addr = collections.Counter()
    for pc in pcs:
        where = next((m for m in maps if m[0] <= pc < m[1]), None)
        if where is None or where[3] != exe:
            by_symbol["[" + (where[3] if where and where[3] else "unmapped") + "]"] += 1
            continue
        vaddr = pc - base
        by_addr[vaddr] += 1
        i = bisect.bisect_right(starts, vaddr) - 1
        inside = i >= 0 and vaddr < syms[i][0] + max(syms[i][1], 1)
        by_symbol[syms[i][2] if inside else "[no symbol]"] += 1

    total = len(pcs)
    print(f"{total} samples ({dropped} dropped) in {exe}")
    if args.pcs:
        for vaddr, n in by_addr.most_common(args.pcs):
            i = bisect.bisect_right(starts, vaddr) - 1
            where = f"{syms[i][2]}+{vaddr - syms[i][0]:#x}" if i >= 0 else "[no symbol]"
            print(f"{100 * n / total:6.2f}%  {n:7d}  {vaddr:#x}  {instruction(exe, vaddr)}  {where}")
        return
    if not args.symbol:
        for name, n in by_symbol.most_common(args.top):
            print(f"{100 * n / total:6.2f}%  {n:7d}  {name}")
        return

    for start, size, name in syms:
        if args.symbol not in name or size == 0:
            continue
        hits = sum(n for a, n in by_addr.items() if start <= a < start + size)
        print(f"\n{name}: {hits} samples ({100 * hits / total:.2f}%)")
        listing = subprocess.run(
            ["objdump", "-d", "-C", "--no-show-raw-insn",
             f"--start-address={start:#x}", f"--stop-address={start + size:#x}", exe],
            capture_output=True, text=True, check=True,
        ).stdout
        for line in listing.splitlines():
            m = re.match(r"\s*([0-9a-f]+):\s", line)
            if m:
                n = by_addr.get(int(m.group(1), 16), 0)
                print(f"{n if n else '':>7} {line}")


if __name__ == "__main__":
    main()
