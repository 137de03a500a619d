package cliflags

import (
	"errors"
	"flag"
	"strings"

	"repro/internal/costmodel"
	"repro/internal/guestos"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/tracking"
	"repro/internal/workloads"
)

// Target is the workload a simulating command boots: the -workload,
// -size, -scale, -seed and -backend flags oohtrack, oohcriu, oohmigrate
// and oohwss share, with the same names and usage everywhere.
type Target struct {
	Workload string
	Size     string
	Scale    int
	Seed     uint64
	Backend  string
}

// Register installs the target flags on fs, defaulting -workload and
// -size to the command's workload and size.
func (t *Target) Register(fs *flag.FlagSet, workload, size string) {
	fs.StringVar(&t.Workload, "workload", workload, "workload: "+strings.Join(workloads.Names(), ", "))
	fs.StringVar(&t.Size, "size", size, "config size: small, medium, large")
	fs.IntVar(&t.Scale, "scale", 1, "workload scale factor")
	fs.Uint64Var(&t.Seed, "seed", 42, "workload data seed")
	fs.StringVar(&t.Backend, "backend", "", BackendUsage())
}

// Booted is a command's run before its first workload pass: its
// observation planes, and the target's workload set up in a fresh process
// of a one-guest machine that carries them.
type Booted struct {
	Obs      *Obs
	Size     workloads.Size
	Guest    *machine.Guest
	Proc     *guestos.Process
	Workload workloads.Workload
}

// Boot validates the target, then of, so a bad -size, -backend or
// OOH_BACKEND exits before -trace creates its file. It then builds of's planes, boots the
// machine on the target's backend, spawns the workload's process and
// sets the workload up. A boot that fails after the planes are built
// closes them.
func (t Target) Boot(of ObsFlags) (b *Booted, err error) {
	sz, err := ParseSize(t.Size)
	if err != nil {
		return nil, err
	}
	if _, err := ParseBackend(t.Backend); err != nil {
		return nil, err
	}
	obs, err := of.Build(t.Seed)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, obs.Close())
		}
	}()
	cfg := obs.Config()
	cfg.Backend = t.Backend
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	g := m.Guest(0)
	proc := g.Kernel.Spawn(t.Workload)
	w, err := workloads.New(t.Workload, sz, t.Scale)
	if err != nil {
		return nil, err
	}
	if err := w.Setup(workloads.NewRegionAlloc(proc, false), sim.NewRNG(t.Seed)); err != nil {
		return nil, err
	}
	return &Booted{Obs: obs, Size: sz, Guest: g, Proc: proc, Workload: w}, nil
}

// Tracker builds technique kind over the booted process. Under armed
// faults it is the Resilient ladder from kind, which retries transient
// failures and degrades past missing capabilities; otherwise it is the
// bare technique. The oracle is always bare: it is the ground truth the
// ladder verifies against, and it charges no time.
func (b *Booted) Tracker(kind costmodel.Technique) (tracking.Technique, error) {
	if b.Obs.Faults.Armed() && kind != costmodel.Oracle {
		return b.Guest.NewResilient(kind, b.Proc), nil
	}
	return b.Guest.NewTechnique(kind, b.Proc)
}
