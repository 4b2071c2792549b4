#!/bin/sh
# pairs.sh <parent-dir> <change-dir> <workload> <first-seed> <n>
#
# The alternating-pair protocol for a before/after row (the verify skill,
# benchmark/README.md "Rules for later issues"): pair i runs seed
# first-seed + i on both trees, the change first on odd seeds and the
# parent first on even ones, one `slbench --workload W --seconds 12
# --trace 0` run each, one after another. Then, for every end-to-end metric
# BENCHMARK.json lists (plus the per-run `sub_over_mono`, mono.ops_per_s ÷
# sub.ops_per_s, which has no bound), it prints a markdown row: median
# [q1, q3] of each side (quartiles interpolated between closest ranks),
# change ÷ parent of the medians, the pairs the change won, and a verdict:
#
#   identical     every run of both sides printed the same value
#   better/worse  won (lost) >= n - 1 pairs and the medians differ by more
#                 than the parent's q3 - q1
#   outside bound the change's median is worse than the parent's by more
#                 than the metric's `bound`
#   within bound  anything else
#
# Both trees must hold a built `benchmark/target/release/slbench` (`cargo
# build --release --offline --manifest-path <dir>/benchmark/Cargo.toml`,
# then `git checkout benchmark/Cargo.lock` in a checkout you commit from).
# The script only runs those binaries and reads their output; it writes
# nothing under either tree. Run it with nothing else on the machine.
set -eu
if [ $# -ne 5 ]; then
    echo "usage: $0 <parent-dir> <change-dir> <workload> <first-seed> <n>" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 first=$4 n=$5
for dir in "$parent" "$change"; do
    if [ ! -x "$dir/benchmark/target/release/slbench" ]; then
        echo "$0: no slbench built in $dir" >&2
        exit 2
    fi
done
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

i=0
while [ "$i" -lt "$n" ]; do
    seed=$((first + i))
    if [ $((seed % 2)) -eq 1 ]; then order="change parent"; else order="parent change"; fi
    for side in $order; do
        if [ "$side" = change ]; then dir=$change; else dir=$parent; fi
        "$dir/benchmark/target/release/slbench" --workload "$workload" --seed "$seed" \
            --seconds 12 --trace 0 > "$out/$side.$i"
    done
    i=$((i + 1))
done

# `name better bound` per end-to-end metric, in BENCHMARK.json's order.
awk '/"end_to_end"/ { on = 1; next }
     on && /\]/ { exit }
     on && /"name"/ {
         match($0, /"name": *"[^"]*"/);   name = substr($0, RSTART, RLENGTH)
         match($0, /"better": *"[^"]*"/); better = substr($0, RSTART, RLENGTH)
         match($0, /"bound": *[0-9.]+/);  bound = substr($0, RSTART, RLENGTH)
         gsub(/"name": *"|"/, "", name); gsub(/"better": *"|"/, "", better)
         sub(/"bound": */, "", bound)
         print name, better, bound
     }' "$change/BENCHMARK.json" > "$out/metrics"
echo "sub_over_mono lower -" >> "$out/metrics"

failed=$(cat "$out"/parent.* "$out"/change.* | awk '$1 == "failed" { s += $2 } END { print s + 0 }')
echo "### \`$workload\` ($n pairs, seeds $first–$((first + n - 1)), failed ops $failed)"
echo
echo "| metric | parent median [q1, q3] | change median [q1, q3] | change ÷ parent | pairs won | verdict |"
echo "|---|---|---|---|---|---|"
for side in parent change; do
    i=0
    while [ "$i" -lt "$n" ]; do
        awk -v side="$side" -v pair="$i" '
            /^#/ || /^\{/ { next }
            NF >= 2 { print side, pair, $1, $2; v[$1] = $2 }
            END {
                if (v["sub.ops_per_s"] > 0)
                    print side, pair, "sub_over_mono", v["mono.ops_per_s"] / v["sub.ops_per_s"]
            }' "$out/$side.$i"
        i=$((i + 1))
    done
done > "$out/values"

while read -r metric better bound; do
    awk -v metric="$metric" -v better="$better" -v bound="$bound" -v n="$n" '
        function sort(a, k,   i, j, t) {
            for (i = 2; i <= k; i++)
                for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
        }
        # Linear interpolation between closest ranks of the sorted a[1..k].
        function q(a, k, p,   h, lo) {
            h = 1 + (k - 1) * p; lo = int(h)
            return lo >= k ? a[k] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
        }
        function cell(a, k) { return sprintf("%.6g [%.6g, %.6g]", q(a, k, 0.5), q(a, k, 0.25), q(a, k, 0.75)) }
        $3 == metric && $1 == "parent" { p[$2 + 1] = $4; ps[++np] = $4 }
        $3 == metric && $1 == "change" { c[$2 + 1] = $4; cs[++nc] = $4 }
        END {
            if (np != n || nc != n) exit
            same = 1; won = 0; lost = 0
            for (i = 1; i <= n; i++) {
                if (p[i] != p[1] || c[i] != p[1]) same = 0
                if (better == "higher" ? c[i] > p[i] : c[i] < p[i]) won++
                if (better == "higher" ? c[i] < p[i] : c[i] > p[i]) lost++
            }
            sort(ps, n); sort(cs, n)
            pm = q(ps, n, 0.5); cm = q(cs, n, 0.5); iqr = q(ps, n, 0.75) - q(ps, n, 0.25)
            gap = cm - pm; if (gap < 0) gap = -gap
            worse = better == "higher" ? pm - cm : cm - pm
            if (same) verdict = "identical"
            else if (won >= n - 1 && gap > iqr) verdict = "better"
            else if (lost >= n - 1 && gap > iqr) verdict = "worse"
            else if (bound != "-" && pm != 0 && worse / pm > bound) verdict = "outside bound"
            else if (bound == "-") verdict = "—"
            else verdict = "within bound"
            printf "| `%s` | %s | %s | %.3f | %d/%d | %s |\n", metric, cell(ps, n), cell(cs, n),
                pm == 0 ? 1 : cm / pm, won, n, verdict
        }' "$out/values"
done < "$out/metrics"
