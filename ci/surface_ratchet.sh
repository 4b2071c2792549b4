#!/bin/sh
# The four sublayers' inherent public surface may shrink but not grow: the
# count of `pub fn`s at method indentation in each sublayer's module stays
# at or under the total this tree had when the gate was added,
#
#   dm 14 + cm 27 + rd 28 + osr 25 = 94.
#
# A new entry that duplicates an old one (a second receive path, a `Vec`
# drain beside a `poll_*`) shows up here before it shows up in a review.
# Lower the ceiling when a change deletes methods, so the gain is kept.
set -eu
cd "$(dirname "$0")/.."
ceiling=94
count=$(cat crates/core/src/dm.rs crates/core/src/cm.rs crates/core/src/rd.rs crates/core/src/osr.rs |
    grep -cE '^    pub fn')
echo "sublayer surface: $count pub fns (ceiling $ceiling)"
if [ "$count" -gt "$ceiling" ]; then
    echo "surface ratchet: $count pub fns in core/src/{dm,cm,rd,osr}.rs, over $ceiling" >&2
    exit 1
fi
