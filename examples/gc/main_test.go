package main

// Example runs the program and pins what it prints. The simulation runs
// in virtual time, so the output is the same on every host and every run.
func Example() {
	main()
	// Output:
	// cycle 1: incremental=true  dirty=9   scanned=267  skipped=0    freed=49  live=267 (149.969µs)
	// cycle 2: incremental=true  dirty=6   scanned=111  skipped=156  freed=50  live=267 (62.629µs)
	// cycle 3: incremental=true  dirty=5   scanned=59   skipped=208  freed=50  live=267 (30.633µs)
	// cycle 4: incremental=true  dirty=6   scanned=110  skipped=157  freed=50  live=267 (62.457µs)
	// cycle 5: incremental=true  dirty=6   scanned=110  skipped=157  freed=50  live=267 (62.457µs)
	//
	// total GC time: 368.145µs; live objects: 267
	// after the first full cycle, 'skipped' dominates 'scanned': the
	// collector only re-reads objects on pages EPML reported dirty.
}
