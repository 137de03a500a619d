package main

// Example runs the program and pins what it prints. The simulation runs
// in virtual time, so the output is the same on every host and every run.
func Example() {
	main()
	// Output:
	// allocator with guard PAGES (4096 B each)
	//   !! overflow detected synchronously at 0x40f020
	//   32 allocations protected, guard waste: 131072 bytes
	//
	// allocator with guard SUB-PAGES (128 B each, via OoH-SPP)
	//   !! overflow detected synchronously at 0x8017a0
	//   32 allocations protected, guard waste:   4096 bytes
	//
	// same protection, 32x less memory spent on guards - the §III-D claim.
}
