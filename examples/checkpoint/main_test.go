package main

// Example runs the program and pins what it prints. The simulation runs
// in virtual time, so the output is the same on every host and every run.
func Example() {
	main()
	// Output:
	// pre-copy round 1: store keeps serving writes
	//
	// checkpoint: 16 pages in image, 32 dumped across 3 rounds
	// phases: init 11.536203ms, MD 2.977µs, MW 128µs, total 11.66718ms
	// restore verified: memory is byte-identical
}
