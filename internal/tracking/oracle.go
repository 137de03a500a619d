package tracking

import (
	"repro/internal/costmodel"
	"repro/internal/cpu"
	"repro/internal/guestos"
	"repro/internal/mem"
)

// OracleTechnique is the paper's hypothetical zero-cost tracker (§VI-B):
// E(C_oracle) = 0 and it inflicts nothing on the tracked process. It hooks
// the simulator's write observer, which charges no virtual time, and is
// the ground truth the property-based completeness tests compare real
// techniques against.
type OracleTechnique struct {
	vcpu  *cpu.VCPU
	proc  *guestos.Process
	dirty mem.PageSet
	hook  int
	stats Stats
}

// NewOracle returns the oracle technique for the process.
func NewOracle(proc *guestos.Process) *OracleTechnique {
	return &OracleTechnique{vcpu: proc.Kernel().VCPU, proc: proc}
}

// Name implements Technique.
func (t *OracleTechnique) Name() string { return "oracle" }

// Kind implements Technique.
func (t *OracleTechnique) Kind() costmodel.Technique { return costmodel.Oracle }

// Init implements Technique: register on the vCPU's write-hook list.
func (t *OracleTechnique) Init() error {
	t.hook = t.vcpu.AddWriteHook(func(gva mem.GVA) {
		if t.proc.Kernel().Current() != t.proc {
			return
		}
		t.dirty.Add(gva)
	})
	return nil
}

// Collect implements Technique.
func (t *OracleTechnique) Collect() ([]mem.GVA, error) {
	out := make([]mem.GVA, len(t.dirty.Pages()))
	copy(out, t.dirty.Pages())
	t.dirty.Reset()
	t.stats.Collections++
	t.stats.Reported += int64(len(out))
	return out, nil
}

// Close implements Technique: unchain the hook.
func (t *OracleTechnique) Close() error {
	t.vcpu.RemoveWriteHook(t.hook)
	return nil
}

// Stats implements Technique.
func (t *OracleTechnique) Stats() Stats { return t.stats }
