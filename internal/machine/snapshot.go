package machine

import (
	"errors"
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/guestos"
	"repro/internal/hypervisor"
	"repro/internal/mem"
)

// Snapshot is a whole-machine capture: the copy-on-write physical memory
// image plus, per guest, the VM state (clock, EPT, VMCS, vCPU, dirty-log
// flags) and the guest kernel state (processes, page tables, scheduler).
// A Snapshot is immutable and can seed any number of Forks; the capture
// source keeps running unchanged (its frames turn copy-on-write, so the
// first post-capture write per page pays one page copy).
//
// Capture requires every guest to be quiescent: no tracking sessions, no
// registered rings, no IRQ handlers, no userfaultfd registrations. The
// intended flow is boot + warm (spawn, map, populate), capture once, then
// fork per scenario variant and attach techniques/probes in the fork -
// exactly what the experiment grid drivers do.
type Snapshot struct {
	backend string
	model   *costmodel.Model // the capture source's
	phys    *mem.Snapshot
	guests  []guestSnapshot
}

type guestSnapshot struct {
	vm     *hypervisor.VMSnapshot
	kernel *guestos.Snapshot
}

// ErrBackendMismatch reports a restore/fork against a machine or config
// whose backend differs from the capture source's.
var ErrBackendMismatch = errors.New("machine: snapshot backend mismatch")

// CaptureSnapshot captures the whole machine. Guests must be quiescent
// (see Snapshot); the machine keeps running afterwards - post-capture
// writes copy their pages out of the shared image.
func (m *Machine) CaptureSnapshot() (*Snapshot, error) {
	s := &Snapshot{backend: m.backend, model: m.Model}
	for i, g := range m.Guests {
		ks, err := g.Kernel.CaptureSnapshot()
		if err != nil {
			return nil, fmt.Errorf("machine: guest %d: %w", i, err)
		}
		vs, err := g.VM.CaptureSnapshot()
		if err != nil {
			return nil, fmt.Errorf("machine: guest %d: %w", i, err)
		}
		s.guests = append(s.guests, guestSnapshot{vm: vs, kernel: ks})
	}
	// Memory last: everything above is read-only with respect to guest
	// frames, so the image matches the VM state exactly.
	s.phys = m.Phys.CaptureSnapshot()
	return s, nil
}

// RestoreSnapshot rewinds this machine in place to a captured state. The
// machine must be the capture source or a same-shape fork (same backend,
// same guest count). Every *guestos.Process handle resolved before the
// restore is stale afterwards - re-resolve through Kernel.Process(pid).
func (m *Machine) RestoreSnapshot(s *Snapshot) error {
	if m.backend != s.backend {
		return fmt.Errorf("%w: snapshot %q, machine %q", ErrBackendMismatch, s.backend, m.backend)
	}
	if len(m.Guests) != len(s.guests) {
		return fmt.Errorf("machine: snapshot has %d guests, machine %d", len(s.guests), len(m.Guests))
	}
	// Memory first: the VM restore re-reads nothing from guest frames, but
	// the vCPU cache flush it performs must postdate the epoch bump so no
	// stale frame pointer survives.
	m.Phys.RestoreSnapshot(s.phys)
	for i, g := range m.Guests {
		if err := g.VM.RestoreSnapshot(s.guests[i].vm); err != nil {
			return fmt.Errorf("machine: guest %d: %w", i, err)
		}
		g.Kernel.RestoreSnapshot(s.guests[i].kernel)
	}
	return nil
}

// Fork boots a new machine from the snapshot: forked copy-on-write
// physical memory, replayed VMs and guest kernels, fresh observability
// wiring from cfg (Tracer, Faults, Metrics, Profiler, Monitor). cfg.Backend
// must be empty or equal to the capture source's; the cost model and
// cfg.HostMemBytes/VMs are taken from the capture and may not be
// overridden. The fork and its source share unwritten pages and diverge
// page-by-page on write, so forking a warmed machine is much cheaper than
// re-booting and re-warming one.
func (s *Snapshot) Fork(cfg Config) (*Machine, error) {
	if cfg.Backend != "" && cfg.Backend != s.backend {
		return nil, fmt.Errorf("%w: snapshot %q, config %q", ErrBackendMismatch, s.backend, cfg.Backend)
	}
	m, err := newMachine(s.backend, s.phys.NewPhysMem(), s.model)
	if err != nil {
		return nil, err
	}
	reg := cfg.attachMonitor()
	for i := range s.guests {
		vm, err := m.Hyp.NewVMFromSnapshot(s.guests[i].vm)
		if err != nil {
			return nil, fmt.Errorf("machine: forking VM %d: %w", i, err)
		}
		g := newGuest(m, vm, cfg, reg, i)
		// newGuest boots a pristine kernel on the restored vCPU; replay
		// the captured kernel state (processes, page tables, scheduler)
		// over it. cfg.DisablePreemption still wins, as it does on a cold
		// boot.
		g.Kernel.RestoreSnapshot(s.guests[i].kernel)
		if cfg.DisablePreemption {
			g.Kernel.Sched.SetDisabled(true)
		}
		m.Guests = append(m.Guests, g)
	}
	return m, nil
}
