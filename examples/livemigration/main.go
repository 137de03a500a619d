// Live-migration example: the hypervisor-level use of PML (its original
// purpose) coexisting with a guest's SPML session, coordinated by the
// enabled_by_guest / enabled_by_hyp flags of §IV-C.
//
// A guest process is tracked with SPML while the hypervisor concurrently
// runs pre-copy dirty logging for "live migration" of the whole VM; both
// consumers see their own complete dirty sets.
//
// Run with: go run ./examples/livemigration
package main

import (
	"fmt"
	"log"

	"repro/internal/costmodel"
	"repro/internal/machine"
	"repro/internal/mem"
)

func main() {
	m, err := machine.New(machine.Config{})
	if err != nil {
		log.Fatal(err)
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn("app")
	region, err := proc.Mmap(128*mem.PageSize, true)
	if err != nil {
		log.Fatal(err)
	}

	// Guest-level tracking via SPML.
	tech, err := g.NewTechnique(costmodel.SPML, proc)
	if err != nil {
		log.Fatal(err)
	}
	if err := tech.Init(); err != nil {
		log.Fatal(err)
	}

	// Hypervisor-level dirty logging for live migration starts too; the VM
	// exposes the coordination flags.
	g.VM.StartDirtyLogging()
	fmt.Printf("coordination flags: enabled_by_guest=%v enabled_by_hyp=%v\n\n",
		g.VM.EnabledByGuest(), g.VM.EnabledByHyp())

	// Simulated pre-copy: three migration rounds while the app dirties
	// pages and the guest tracker collects independently.
	for round := 1; round <= 3; round++ {
		for i := 0; i < 128; i += round {
			if err := proc.WriteU64(region.Start.Add(uint64(i)*mem.PageSize), uint64(round)); err != nil {
				log.Fatal(err)
			}
		}
		guestDirty, err := tech.Collect()
		if err != nil {
			log.Fatal(err)
		}
		hypDirty, err := g.VM.CollectDirty()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round %d: guest SPML collected %3d pages; hypervisor migration log %3d frames\n",
			round, len(guestDirty), len(hypDirty))
	}

	// The hypervisor finishes migration; PML must stay on for the guest.
	g.VM.StopDirtyLogging()
	fmt.Printf("\nafter hypervisor stops: PML still enabled for guest? %v\n", g.VM.VMCS.PMLEnabled())
	if err := tech.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after guest session closes: PML enabled? %v\n", g.VM.VMCS.PMLEnabled())
}
