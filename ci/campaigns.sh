#!/bin/sh
# Every registered campaign (`exp --list`): the smoke sweep, which fails
# on any invariant violation, then the smoke JSON twice — identical seeds
# must give byte-identical documents.
set -eu
cargo build --release -p bench --bin exp
exp=target/release/exp
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for c in $($exp --list); do
    echo "== $c: smoke sweep"
    $exp "$c" --smoke
    echo "== $c: determinism"
    $exp "$c" --smoke --json > "$tmp/a.json"
    $exp "$c" --smoke --json > "$tmp/b.json"
    cmp "$tmp/a.json" "$tmp/b.json"
done
