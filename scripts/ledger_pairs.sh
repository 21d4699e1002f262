#!/usr/bin/env bash
# Alternating parent/change pairs of ledger workloads (choosing-metrics §8).
#
#   scripts/ledger_pairs.sh <parent-rev> <workload|all> [pairs=10] [first-seed=101]
#
# Exports <parent-rev> with `git archive` under target/ledger_pairs/ (ignored),
# builds its ledger and this checkout's ledger (uncommitted edits included)
# into separate CARGO_TARGET_DIRs, then runs N pairs at the benchmark's own
# settings (--seconds 20 --trace 0): a fresh seed per pair, both sides of a
# pair on the same seed, the side that runs first flipped every pair. `all`
# does this for every workload BENCHMARK.json names, one after another, on
# the same seeds. Per workload it prints every run, then per end-to-end
# metric each side's median and quartiles and the change's win count, over
# the pairs whose two runs were both `correct` (the others are listed and
# dropped), then the `CHECK FAILED:` lines of every run that was not
# `correct` — a load-generator trip (`generator_late_share`) reads apart
# from a wrong label. Exits non-zero if any run was not `correct`.
# Touches nothing under ledger/.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
    echo "usage: $0 <parent-rev> <workload|all> [pairs=10] [first-seed=101]" >&2
    exit 2
fi
rev=$1
pairs=${3:-10}
seed0=${4:-101}
if [ "$2" = all ]; then
    # The names in BENCHMARK.json's "workloads" array, in file order.
    workloads=$(awk '/"workloads"/ { on = 1 }
        on && /"name"/ { sub(/.*"name": *"/, ""); sub(/".*/, ""); print }
        on && /^  \]/ { exit }' BENCHMARK.json)
else
    workloads=$2
fi

sha=$(git rev-parse --short=12 "$rev^{commit}")
root=$PWD/target/ledger_pairs
parent_src=$root/parent-$sha
if [ ! -d "$parent_src" ]; then
    mkdir -p "$parent_src"
    git archive "$sha" | tar -x -C "$parent_src"
fi

build() { # <side> <source dir>
    CARGO_TARGET_DIR=$root/target-$1 cargo build --release --offline --quiet \
        --manifest-path "$2/ledger/Cargo.toml"
    cp "$root/target-$1/release/ledger" "$root/ledger-$1"
}
build parent "$parent_src"
build change "$PWD"

stamp=$(date +%Y%m%dT%H%M%S)
metrics="photos_per_s op_ms op_tail_ms wire_bytes_per_photo setup_s peak_rss_mb"

# The ledger's last stdout line is its result object; pull one scalar out.
field() { # <json line> <key>
    printf '%s\n' "$1" | sed -n "s/.*\"$2\": \([a-z0-9.eE+-]*\).*/\1/p"
}
metric() { # <json line> <metric>
    printf '%s\n' "$1" | sed -n "s/.*\"$2\": {[^}]*\"value\": \([0-9.eE+-]*\)}.*/\1/p"
}

run_one() { # <workload> <runs dir> <pair> <seed> <side> <position in pair>
    local dir=$2/p$3-$5 line
    mkdir -p "$dir"
    # Each run gets its own directory: the ledger writes results/ledger
    # under wherever it is started.
    line=$(cd "$dir" && "$root/ledger-$5" --workload "$1" --seed "$4" \
        --seconds 20 --trace 0 2>stderr.txt | tee stdout.txt | tail -n 1)
    local row="$3\t$4\t$5\t$6\t$(field "$line" correct)\t$(field "$line" failed)"
    for m in $metrics; do
        row="$row\t$(metric "$line" "$m")"
    done
    printf '%b\n' "$row" | tee -a "$2/runs.tsv"
}

pair_up() { # <workload>; returns non-zero if any run was not correct
    local workload=$1 runs=$root/runs-$stamp/$1 seed i status=0
    mkdir -p "$runs"
    printf 'pair\tseed\tside\torder\tcorrect\tfailed\t%s\n' "${metrics// /$'\t'}" |
        tee "$runs/runs.tsv"
    for i in $(seq 1 "$pairs"); do
        seed=$((seed0 + i - 1))
        if [ $((i % 2)) -eq 1 ]; then
            run_one "$workload" "$runs" "$i" "$seed" parent 1st
            run_one "$workload" "$runs" "$i" "$seed" change 2nd
        else
            run_one "$workload" "$runs" "$i" "$seed" change 1st
            run_one "$workload" "$runs" "$i" "$seed" parent 2nd
        fi
    done

    echo
    echo "workload $workload, parent $sha, $pairs pairs, seeds $seed0..$((seed0 + pairs - 1))"
    awk -F'\t' -v metrics="$metrics" -v pairs="$pairs" '
    function quantile(a, n, q,    h, lo) { # linear interpolation between order statistics
        h = (n - 1) * q; lo = int(h)
        return (lo + 1 < n) ? a[lo + 1] + (h - lo) * (a[lo + 2] - a[lo + 1]) : a[n]
    }
    function summary(side, col,    n, i, j, x, a) {
        n = 0
        for (i = 1; i <= pairs; i++) { # insertion sort: plain awk has no asort
            if (i in dirty) continue
            x = val[side, i, col] + 0
            for (j = n++; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
            a[j + 1] = x
        }
        if (n == 0) return "-"
        return sprintf("%.6g [%.6g, %.6g]", quantile(a, n, 0.5), quantile(a, n, 0.25), quantile(a, n, 0.75))
    }
    NR == 1 { next }
    {
        if ($5 != "true") { bad++; dirty[$1] = dirty[$1] " " $3 }
        for (c = 7; c <= NF; c++) val[$3, $1, c] = $c
    }
    END {
        # A pair counts only if both of its runs were correct: a run whose
        # load generator fell behind measured the host, not the server.
        clean = pairs
        for (i = 1; i <= pairs; i++)
            if (i in dirty) { clean--; printf "pair %d dropped (not correct:%s)\n", i, dirty[i] }
        printf "%d of %d pairs counted\n", clean, pairs
        nm = split(metrics, name, " ")
        printf "%-22s %-34s %-34s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change wins/ties/losses"
        for (k = 1; k <= nm; k++) {
            c = 6 + k; w = t = l = 0
            for (i = 1; i <= pairs; i++) {
                if (i in dirty) continue
                d = val["change", i, c] - val["parent", i, c]
                if (name[k] == "photos_per_s") d = -d   # the one higher-is-better metric
                if (d < 0) w++; else if (d > 0) l++; else t++
            }
            printf "%-22s %-34s %-34s %d/%d/%d\n", name[k], summary("parent", c), summary("change", c), w, t, l
        }
        if (bad) { printf "%d run(s) not correct\n", bad; exit 1 }
        print "every run correct"
    }' "$runs/runs.tsv" || status=1

    # Why each run that was not correct failed, in its own words.
    awk -F'\t' 'NR > 1 && $5 != "true" { print "p" $1 "-" $3, $2 }' "$runs/runs.tsv" |
        while read -r run seed; do
            echo "$run (seed $seed):"
            grep 'CHECK FAILED' "$runs/$run/stdout.txt" ||
                echo "  no CHECK FAILED line (failed ops or no result); see $runs/$run"
        done
    return $status
}

status=0
for workload in $workloads; do
    pair_up "$workload" || status=1
    echo
done
exit $status
