#!/usr/bin/env bash
# Where does a wallbench workload spend its CPU time? A sampling profile
# with nothing but cc, nm and python3 (the box has no perf).
#
#   scripts/profile_wallbench.sh WORKLOAD [seconds=5] [rows=30]
#   FOCUS=FUNCTION scripts/profile_wallbench.sh WORKLOAD [seconds] [rows]
#
# Builds `wallbench` with frame pointers into its own target directory
# (target/profile, so the benchmark's build is not disturbed), compiles
# scripts/prof/sampler.c into a shared object, runs the workload untraced
# with the sampler preloaded (SIGPROF on CPU time: 1 kHz asked, the kernel's
# tick granted), symbolises the samples with `nm` and prints three tables:
# self time (the function the sample landed in), inclusive time (every
# function on the sampled frame-pointer chain, once per sample) and the
# shared-object samples by caller (below). Inlined
# callees are charged to the function they were inlined into; frames of code
# built without frame pointers (the prebuilt std, libc) end a chain early,
# so inclusive figures are lower bounds; a shared object's internal
# functions (libc's memcpy variants) show as the object's name. Such a
# function is usually a leaf called from the program, and its caller's frame
# is the one the chain skips: when a sample lands in a shared object and the
# word at RSP points into the executable's text, that word is taken as the
# return address and its function charged as the caller, tagged
# "[caller by rsp]" — a heuristic (the word may be anything a function
# pushed). Each table prints its `rows` largest entries. With FOCUS set, a
# fourth table repeats the inclusive one over only the samples whose chain
# holds a function whose name contains FOCUS (e.g. `SqlApp as`), as a share
# of those samples: the decomposition of that function. Not part of tier-1
# or verify.sh.
set -euo pipefail

if [ $# -lt 1 ]; then
    sed -n '2,29p' "$0" >&2
    exit 2
fi
for tool in cc nm python3 cargo; do
    if ! command -v "$tool" >/dev/null 2>&1; then
        echo "profile_wallbench: needs \`$tool\` on PATH" >&2
        exit 2
    fi
done
workload=$1
seconds=${2:-5}
rows=${3:-30}
cd "$(dirname "$0")/.."

dir=target/profile
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR=$dir \
    cargo build --release --offline -q -p wallbench
cc -O2 -shared -fPIC -o "$dir/sampler.so" scripts/prof/sampler.c

bin=$dir/release/wallbench
samples=$dir/samples.txt
rm -f "$samples"
# The traced-run span file goes under CARGO_TARGET_DIR; keep it out of the tree.
CARGO_TARGET_DIR=$dir PROF_OUT=$samples LD_PRELOAD=$PWD/$dir/sampler.so \
    "$bin" --workload "$workload" --seed 1 --seconds "$seconds" --trace 0 >"$dir/run.txt"
grep -E '^ +(ops_per_s|latency_p50_us|latency_p99_us) ' "$dir/run.txt" || true

FOCUS=${FOCUS:-} python3 - "$bin" "$samples" "$rows" <<'PY'
import bisect, collections, os, re, subprocess, sys

binary, samples_path, rows = sys.argv[1], sys.argv[2], int(sys.argv[3])
focus = os.environ["FOCUS"]
real = os.path.realpath(binary)

maps, stacks = [], []  # maps: (lo, hi, file offset, path); stacks: [rip, rsp word, ret...]
text = []  # the executable's executable mappings
for line in open(samples_path):
    if line.startswith("S "):
        stacks.append([int(w, 16) for w in line.split()[1:]])
    elif line.startswith("M "):
        f = line.split()
        lo, hi = (int(x, 16) for x in f[1].split("-"))
        maps.append((lo, hi, int(f[3], 16), f[6] if len(f) > 6 else "[anon]"))
        if maps[-1][3] == real and "x" in f[2]:
            text.append((lo, hi))

tables = {}  # path -> (load base, [(vaddr, size, name)]): the executable's
             # static symbols, a shared object's exported ones
def table(path):
    if path not in tables:
        flags = ["-C", "-n", "-S", "--defined-only"] + ([] if path == real else ["-D"])
        out = subprocess.run(["nm"] + flags + [path], capture_output=True, text=True).stdout
        syms = [l.split(None, 3) for l in out.splitlines()]
        syms = [(int(s[0], 16), int(s[1], 16), re.sub(r"(::h[0-9a-f]{16}|@.*)$", "", s[3]))
                for s in syms if len(s) == 4 and s[2] in "tTwWi"]
        # Position-independent code is loaded at the start of its offset-0 mapping.
        base = min((lo for lo, _, off, p in maps if p == path and off == 0), default=0)
        tables[path] = (base, syms)
    return tables[path]

def name(pc):
    for lo, hi, _, path in maps:
        if lo <= pc < hi:
            if not path.startswith("/"):
                return path
            base, syms = table(path)
            i = bisect.bisect_right(syms, (pc - base, float("inf"), "")) - 1
            where = "" if path == real else " [%s]" % os.path.basename(path)
            if i >= 0 and pc - base < syms[i][0] + max(syms[i][1], 1):
                return syms[i][2] + where
            return where.strip() or "[wallbench]"
    return "[unmapped]"

self_t, incl_t, by_rsp = collections.Counter(), collections.Counter(), collections.Counter()
focus_t, focused = collections.Counter(), 0
for rip, word, *chain in stacks:
    # Return addresses point after the call: step back into the caller.
    names = [name(rip)] + [name(pc - 1) for pc in chain]
    in_object = any(lo <= rip < hi and p.startswith("/") and p != real for lo, hi, _, p in maps)
    if in_object and any(lo <= word < hi for lo, hi in text):
        caller = name(word - 1) + " [caller by rsp]"
        names.insert(1, caller)
        by_rsp["%s <- %s" % (names[0], caller)] += 1
    self_t[names[0]] += 1
    incl_t.update(set(names))
    if focus and any(focus in n for n in names):
        focused += 1
        focus_t.update(set(names))
total = len(stacks)
print("%d samples" % total)
tables = [("self", self_t, total), ("inclusive", incl_t, total), ("by rsp", by_rsp, total)]
if focus:
    print("%d samples (%.2f %%) hold %r" % (focused, 100.0 * focused / max(total, 1), focus))
    tables.append(("in focus", focus_t, focused))
for title, table, of in tables:
    print("\n%-9s %%      samples  function" % title)
    for fn, n in table.most_common(rows):
        print("%8.2f  %9d  %s" % (100.0 * n / max(of, 1), n, fn))
PY
