#!/bin/sh
# The crate graph is part of the argument (ROADMAP item 3): the contribution
# must not link the baseline, nor the baseline the contribution; the host
# layers above them (`slhost`, `slshard`) link neither, being generic over
# `netsim::HostStack`, which each stack implements on its own type; the wire
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
forbid sublayer-core tcp-mono
forbid slverify tcp-mono
forbid tcp-mono sublayer-core
forbid slhost sublayer-core
forbid slhost tcp-mono
forbid slshard sublayer-core
forbid slshard tcp-mono
forbid netlayer slverify
forbid netlayer sublayer-core
forbid slconform netlayer
if cargo tree -e normal,dev --prefix none -p tcp-mono | sed 's/ .*//' | grep -qx sublayer-core; then
    echo "crate graph: tcp-mono's tests link sublayer-core" >&2
    fail=1
fi
if [ "$(deps slwire)" != slwire ]; then
    echo "crate graph: slwire is not a leaf:" $(deps slwire) >&2
    fail=1
fi
if [ "$(deps netsim | tr '\n' ' ')" != "netsim slwire " ]; then
    echo "crate graph: netsim depends on more than slwire:" $(deps netsim) >&2
    fail=1
fi
exit $fail
