package main

// Example runs the program and pins what it prints. The simulation runs
// in virtual time, so the output is the same on every host and every run.
func Example() {
	main()
	// Output:
	// /proc  reported 22 dirty pages (expected 22); init 8µs          collect 485.952µs
	// ufd    reported 22 dirty pages (expected 22); init 76.8µs       collect 267.63µs
	// SPML   reported 22 dirty pages (expected 22); init 11.1474ms    collect 1.01118ms
	// EPML   reported 22 dirty pages (expected 22); init 11.536203ms  collect 2.155µs
}
