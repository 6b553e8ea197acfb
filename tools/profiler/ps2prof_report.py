#!/usr/bin/env python3
"""Symbolizes and summarizes a profile written by the SIGPROF sampler.

    python3 tools/profiler/ps2prof_report.py PROFILE [--top N]
        [--focus REGEX] [--bucket LABEL=REGEX ...] [--full-names]

PROFILE is what tools/profiler/sampler.cc writes (see its header). Frames
are named with addr2line, inlined frames expanded. A module that cannot be
opened is named in a warning on stderr, and its frames count as
unsymbolized. A module without a
symbol table (a stripped libc) is not asked: addr2line would name its frame
after the nearest exported symbol, so memcpy shows as __nss_database_lookup.
Such a frame keeps the name of the dynamic symbol whose extent holds it
(malloc, free), which the sampler recorded; a frame with no such symbol is
charged to its caller and shows as "[libc.so.6] in <caller>".

Prints the top functions by self samples (the leaf) and by total samples
(anywhere in the stack), names shortened to scope::function unless
--full-names. With --focus, only samples whose stack has a frame matching
REGEX count, and what is counted is what runs below the outermost such
frame. With --bucket, each counted sample goes to the first LABEL, in the
order given, whose REGEX matches a frame below the focus (or anywhere, with
no focus); the rest is "other".
"""

import argparse
import collections
import re
import struct
import subprocess
import sys
from pathlib import Path


def parse(path):
    modules, stacks = {}, []
    header = ""
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header = line
            elif line.startswith("M "):
                _, idx, name = line.split(" ", 2)
                modules[int(idx)] = name
            elif line.startswith("S "):
                parts = line.split(" ")
                frames = []
                for tok in parts[2:]:
                    loc, _, sym = tok.partition("=")
                    mod, _, off = loc.partition(":")
                    frames.append((int(mod), int(off, 16), sym or None))
                stacks.append((int(parts[1]), frames))
    return header, modules, stacks


def elf_load_base(path):
    """The link-time address dladdr's load base stands for: 0 for a shared
    object or PIE, the first PT_LOAD page for a fixed-address executable."""
    try:
        with open(path, "rb") as f:
            ident = f.read(64)
            if ident[:4] != b"\x7fELF" or ident[4] != 2:
                return 0
            e_type = struct.unpack_from("<H", ident, 16)[0]
            if e_type != 2:  # ET_EXEC
                return 0
            phoff = struct.unpack_from("<Q", ident, 32)[0]
            phentsize, phnum = struct.unpack_from("<HH", ident, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
        vaddrs = []
        for i in range(phnum):
            p_type = struct.unpack_from("<I", table, i * phentsize)[0]
            if p_type == 1:  # PT_LOAD
                vaddrs.append(
                    struct.unpack_from("<Q", table, i * phentsize + 16)[0])
        return min(vaddrs) & ~0xFFF if vaddrs else 0
    except OSError:
        return 0


def has_symtab(path):
    try:
        out = subprocess.run(["readelf", "-SW", path], capture_output=True,
                             text=True, check=False).stdout
    except OSError:
        return False
    return ".symtab" in out


def addr2line(path, offsets):
    """{offset: [name, ...]} with inlined frames innermost first."""
    names = {}
    if not offsets:
        return names
    base = elf_load_base(path)
    offsets = sorted(offsets)
    for start in range(0, len(offsets), 2000):
        chunk = offsets[start:start + 2000]
        args = ["addr2line", "-a", "-f", "-C", "-i", "-e", path]
        args += [hex(base + o) for o in chunk]
        out = subprocess.run(args, capture_output=True, text=True,
                             check=False).stdout.splitlines()
        current = None
        i = 0
        while i < len(out):
            line = out[i]
            if line.startswith("0x"):
                current = int(line, 16) - base
                names[current] = []
                i += 1
                continue
            if current is not None and i + 1 < len(out):
                names[current].append(line)
                i += 2  # the name, then its file:line
            else:
                i += 1
    return names


def symbolize(modules, stacks):
    """Each stack as a list of names, leaf first, callers' inlined frames
    expanded; unsymbolized frames of symbol-less modules are charged to
    their caller."""
    # Return addresses point after the call: look up the call itself.
    wanted = collections.defaultdict(set)
    for _, frames in stacks:
        for depth, (mod, off, _) in enumerate(frames):
            wanted[mod].add(off if depth == 0 else off - 1)
    table = {}
    for mod, offs in wanted.items():
        path = modules.get(mod, "?")
        table[mod] = None
        # "?" is no module (dladdr found none), and no file backs the vDSO.
        if path == "?" or path.startswith("linux-vdso"):
            continue
        if not Path(path).is_file():
            print(f"warning: cannot open module {path}: its frames stay "
                  "unsymbolized", file=sys.stderr)
        elif has_symtab(path):
            table[mod] = addr2line(path, offs)
    out = []
    for count, frames in stacks:
        names = []
        pending = []  # symbol-less frames waiting for their caller's name
        for depth, (mod, off, sym) in enumerate(frames):
            key = off if depth == 0 else off - 1
            resolved = table[mod]
            chain = None
            if resolved is not None:
                chain = [n for n in resolved.get(key, []) if n != "??"]
            if not chain and sym:
                chain = [sym]
            if not chain:
                pending.append(Path(modules.get(mod, "?")).name)
                continue
            for lib in pending:
                names.append(f"[{lib}] in {chain[0]}")
            pending = []
            names.extend(chain)
        names.extend(f"[{lib}]" for lib in pending)
        out.append((count, names))
    return out


def short_name(name):
    """`name` without template arguments and parameter lists."""
    out, depth = [], 0
    for ch in name:
        if ch in "(<":
            depth += 1
        elif ch in ")>" and depth > 0:
            depth -= 1
        elif depth == 0:
            out.append(ch)
    short = "".join(out).strip()
    return short or name


def pct(n, total):
    return 100.0 * n / total if total else 0.0


def report(stacks, top, focus, buckets):
    total = sum(c for c, _ in stacks)
    print(f"samples: {total}")
    if focus:
        pattern = re.compile(focus)
        kept = []
        for count, names in stacks:
            # Outermost frame matching the focus: everything below it.
            for i in range(len(names) - 1, -1, -1):
                if pattern.search(names[i]):
                    kept.append((count, names[:i + 1]))
                    break
        focused = sum(c for c, _ in kept)
        print(f"focus {focus!r}: {focused} samples, "
              f"{pct(focused, total):.1f}% of all")
        stacks, total = kept, focused
    self_counts = collections.Counter()
    total_counts = collections.Counter()
    for count, names in stacks:
        if names:
            self_counts[names[0]] += count
        for name in set(names):
            total_counts[name] += count
    print(f"\ntop {top} by self samples:")
    for name, n in self_counts.most_common(top):
        print(f"  {pct(n, total):6.2f}%  {n:8d}  {name}")
    print(f"\ntop {top} by total samples:")
    for name, n in total_counts.most_common(top):
        print(f"  {pct(n, total):6.2f}%  {n:8d}  {name}")
    if buckets:
        rules = []
        for spec in buckets:
            label, _, regex = spec.partition("=")
            rules.append((label, re.compile(regex)))
        split = collections.Counter()
        for count, names in stacks:
            below = names[:-1] if focus else names  # names[-1]: the focus
            label = next((lb for lb, rx in rules
                          if any(rx.search(n) for n in below)), "other")
            split[label] += count
        print("\nsplit:")
        for label in [lb for lb, _ in rules] + ["other"]:
            print(f"  {pct(split[label], total):6.2f}%  {split[label]:8d}  "
                  f"{label}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("profile")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--focus", help="regex naming a frame to split")
    parser.add_argument("--bucket", action="append", default=[],
                        help="LABEL=REGEX, repeatable")
    parser.add_argument("--full-names", action="store_true")
    args = parser.parse_args()
    header, modules, stacks = parse(args.profile)
    if header:
        print(header.lstrip("# "))
    stacks = symbolize(modules, stacks)
    if not args.full_names:
        stacks = [(c, [short_name(n) for n in names]) for c, names in stacks]
    report(stacks, args.top, args.focus, args.bucket)
    return 0


if __name__ == "__main__":
    sys.exit(main())
