#!/bin/sh
# The crate graph is part of the argument (ROADMAP item 3): the contribution
# must not link the baseline, nor the baseline the contribution, and the
# wire crate under both must stay a leaf.
set -eu
deps() { cargo tree -e normal --prefix none -p "$1" | sed 's/ .*//' | sort -u; }
fail=0
forbid() {
    if deps "$1" | grep -qx "$2"; then
        echo "crate graph: $1 depends on $2" >&2
        fail=1
    fi
}
forbid sublayer-core tcp-mono
forbid slverify tcp-mono
forbid tcp-mono sublayer-core
if [ "$(deps slwire)" != slwire ]; then
    echo "crate graph: slwire is not a leaf:" $(deps slwire) >&2
    fail=1
fi
exit $fail
