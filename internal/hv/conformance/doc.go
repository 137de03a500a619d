// Package conformance holds the backend conformance suite: black-box
// scenario tests that run on both backends - the hypervisor's PML dirty
// and access logs ("sim") and its EPT-observer oracle logs ("oracle") -
// and pin the contract the consumers (tracking, migration, wss,
// snapshot/fork) rely on: exact sorted dirty sets of page-aligned GPAs,
// re-arm on collect, state hygiene across Stop/Start, read+write access
// logging, migration correctness and copy-on-write fork isolation.
package conformance
