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
	"strings"

	"repro/internal/cliflags"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/workloads"
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
	var (
		name      = fs.String("workload", "histogram", "workload: "+strings.Join(workloads.Names(), ", "))
		size      = fs.String("size", "small", "config size: small, medium, large")
		scale     = fs.Int("scale", 1, "workload scale factor")
		intervals = fs.Int("intervals", 4, "sampling intervals (one workload pass each)")
		seed      = fs.Uint64("seed", 42, "workload data seed")
		backend   = fs.String("backend", "", cliflags.BackendUsage())
	)
	fs.Parse(args)

	sz, err := cliflags.ParseSize(*size)
	if err != nil {
		return err
	}
	be, err := cliflags.ParseBackend(*backend)
	if err != nil {
		return err
	}
	m, err := machine.New(machine.Config{Backend: be})
	if err != nil {
		return err
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn(*name)
	w, err := workloads.New(*name, sz, *scale)
	if err != nil {
		return err
	}
	if err := w.Setup(workloads.NewRegionAlloc(proc, false), sim.NewRNG(*seed)); err != nil {
		return err
	}

	est := wss.New(g.VM)
	fmt.Fprintf(out, "sampling WSS of %s (%s) over %d intervals via PML-R\n\n", *name, sz, *intervals)
	for i := 1; i <= *intervals; i++ {
		est.BeginInterval()
		if err := w.Run(); err != nil {
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
		report.FormatBytes(proc.ReservedBytes()))
	return nil
}
