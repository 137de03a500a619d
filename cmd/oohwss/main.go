// Command oohwss estimates a VM's working set size with PML-R (the
// read-logging PML extension of the related work): intervals of guest
// execution are sampled and the distinct touched frames reported.
//
// Usage:
//
//	oohwss -workload histogram -intervals 5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cliflags"
	"repro/internal/report"
	"repro/internal/wss"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "oohwss: %v\n", err)
		os.Exit(1)
	}
}

// run parses args on its own flag set and writes the per-interval working
// set sizes to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("oohwss", flag.ExitOnError)
	var target cliflags.Target
	target.Register(fs, "histogram", "small")
	intervals := fs.Int("intervals", 4, "sampling intervals (one workload pass each)")
	fs.Parse(args)

	b, err := target.Boot(cliflags.ObsFlags{})
	if err != nil {
		return err
	}

	est := wss.New(b.Guest.VM)
	fmt.Fprintf(out, "sampling WSS of %s (%s) over %d intervals via PML-R\n\n", target.Workload, b.Size, *intervals)
	for i := 1; i <= *intervals; i++ {
		est.BeginInterval()
		if err := b.Workload.Run(); err != nil {
			return err
		}
		s, err := est.EndInterval()
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "interval %d: %6d pages (%s)\n", i, s.Pages, report.FormatBytes(s.Bytes))
	}
	fmt.Fprintf(out, "\npeak working set: %d pages (%s); reserved address space: %s\n",
		est.Peak(), report.FormatBytes(uint64(est.Peak())*4096),
		report.FormatBytes(b.Proc.ReservedBytes()))
	return nil
}
