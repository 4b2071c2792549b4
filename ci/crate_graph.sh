#!/bin/sh
# The crate graph is part of the argument (ROADMAP item 3): the contribution
# must not link the baseline, nor the baseline the contribution; the host
# layers above them (`slhost`, `slshard`) link neither, being generic over
# `netsim::HostStack`, which each stack implements on its own type, and
# `slshard` keeps both out of its tests too (its system tests run in
# `bench`, on the failover campaign's harness); the wire
# crate under everything must stay a leaf, and `netsim`, where that trait
# lives, may depend on nothing in the workspace but it. The network layer
# links no transport crate (its forwarding check is its own), so the
# baseline's tests, which build a fabric from it, never compile the
# contribution either. The conformance harness checks both stacks on one
# wire and links no network layer: the one harness that runs them across
# the fabric is `bench::topology`.
set -eu
deps() { cargo tree -e normal --prefix none -p "$1" | sed 's/ .*//' | sort -u; }
fail=0
forbid() {
    if deps "$1" | grep -qx "$2"; then
        echo "crate graph: $1 depends on $2" >&2
        fail=1
    fi
}
# The same, counting what the crate's tests link too.
forbid_dev() {
    if cargo tree -e normal,dev --prefix none -p "$1" | sed 's/ .*//' | grep -qx "$2"; then
        echo "crate graph: $1 or its tests link $2" >&2
        fail=1
    fi
}
forbid sublayer-core tcp-mono
forbid slverify tcp-mono
forbid_dev tcp-mono sublayer-core
forbid slhost sublayer-core
forbid slhost tcp-mono
forbid_dev slshard sublayer-core
forbid_dev slshard tcp-mono
forbid netlayer slverify
forbid netlayer sublayer-core
forbid slconform netlayer
if [ "$(deps slwire)" != slwire ]; then
    echo "crate graph: slwire is not a leaf:" $(deps slwire) >&2
    fail=1
fi
if [ "$(deps netsim | tr '\n' ' ')" != "netsim slwire " ]; then
    echo "crate graph: netsim depends on more than slwire:" $(deps netsim) >&2
    fail=1
fi
exit $fail
