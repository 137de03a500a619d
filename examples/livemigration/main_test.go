package main

// Example runs the program and pins what it prints. The simulation runs
// in virtual time, so the output is the same on every host and every run.
func Example() {
	main()
	// Output:
	// coordination flags: enabled_by_guest=true enabled_by_hyp=true
	//
	// round 1: guest SPML collected 128 pages; hypervisor migration log 128 frames
	// round 2: guest SPML collected  64 pages; hypervisor migration log  64 frames
	// round 3: guest SPML collected  43 pages; hypervisor migration log  43 frames
	//
	// after hypervisor stops: PML still enabled for guest? true
	// after guest session closes: PML enabled? false
}
