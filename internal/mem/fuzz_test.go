package mem

import (
	"bytes"
	"errors"
	"testing"
)

// Opcodes of the FuzzPhysMemCoW operation stream. Each opcode byte is
// followed by its operand bytes; a missing byte reads as zero and the
// stream ends when the input does.
const (
	opAlloc      = iota // mem
	opFree              // mem, frame
	opWrite             // mem, frame, off lo, off hi, len (bit 6: via FrameRef+WriteFrame)
	opRead              // mem, frame, off lo, off hi, len
	opCapture           // mem
	opFork              // snap, slot
	opRestore           // mem, snap
	opFrameBytes        // mem, frame
	numOps
)

// cowModel is the flat reference image of one PhysMem: frame contents by
// HPA plus the live HPAs in a deterministic order for operand picking.
type cowModel struct {
	pages map[HPA][PageSize]byte
	live  []HPA
}

func (m cowModel) clone() cowModel {
	pages := make(map[HPA][PageSize]byte, len(m.pages))
	for hpa, pg := range m.pages {
		pages[hpa] = pg
	}
	return cowModel{pages: pages, live: append([]HPA(nil), m.live...)}
}

// FuzzPhysMemCoW drives a parent PhysMem and its forks through a decoded
// stream of allocs, frees, writes, reads, captures, forks and restores,
// checking every read and FrameBytes against a reference model that copies
// whole images on capture. Any sharing bug - a fork or restore seeing a
// write made after its capture, or a buffer or page mutated through a
// shared backing - shows up as a mismatch.
func FuzzPhysMemCoW(f *testing.F) {
	// Length operands encode n-1: 7 is an 8-byte write, 63 a 64-byte one.
	alloc := []byte{opAlloc, 0}
	word := func(mem, lo, hi byte) []byte { return []byte{opWrite, mem, 0, lo, hi, 7} }
	seeds := [][]byte{
		// Rewrite in place: the same word in the snapshot, parent and fork.
		cat(alloc, word(0, 8, 0), []byte{opCapture, 0, opFork, 0, 0},
			word(1, 8, 0), word(0, 8, 0), word(1, 8, 0), []byte{opRead, 1, 0, 8, 0, 7, opRead, 0, 0, 8, 0, 7}),
		// Buffer overflow: six buffered words captured, a seventh in a fork.
		cat(alloc, word(0, 0, 0), word(0, 64, 0), word(0, 128, 0), word(0, 192, 0), word(0, 0, 1), word(0, 0, 2),
			[]byte{opCapture, 0, opFork, 0, 0}, word(1, 0, 3), []byte{opFrameBytes, 1, 0, opFrameBytes, 0, 0}),
		// Partial overlap of a shared buffered write in one fork, a disjoint
		// 3-byte write in its sibling.
		cat(alloc, word(0, 0, 0), []byte{opCapture, 0, opFork, 0, 0, opFork, 0, 1},
			[]byte{opWrite, 1, 0, 4, 0, 7, opWrite, 2, 0, 12, 0, 2, opRead, 1, 0, 0, 0, 15, opRead, 2, 0, 0, 0, 15}),
		// Large write over a shared sparse frame through the cached-frame
		// path, then a write crossing the end of a frame.
		cat(alloc, alloc, word(0, 40, 0), []byte{opCapture, 0, opFork, 0, 0},
			[]byte{opWrite, 1, 0, 32, 0, 64 + 63, opWrite, 0, 1, 250, 15, 7, opFrameBytes, 1, 0}),
		// Restore after divergence, then diverge and restore again.
		cat(alloc, word(0, 16, 0), []byte{opCapture, 0}, word(0, 16, 0), word(0, 24, 0),
			[]byte{opFree, 0, 0, opRestore, 0, 0}, word(0, 16, 0), []byte{opRestore, 0, 0, opRead, 0, 0, 16, 0, 7}),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := bytes.NewReader(data)
		next := func() int {
			b, _ := in.ReadByte()
			return int(b)
		}
		mems := []*PhysMem{NewPhysMem(0)}
		models := []cowModel{{pages: map[HPA][PageSize]byte{}}}
		var snaps []*Snapshot
		var snapModels []cowModel
		// frame decodes a mem operand and a frame operand, reporting false
		// when that memory has no live frame.
		frame := func() (int, HPA, bool) {
			mi := next() % len(mems)
			fi := next()
			if len(models[mi].live) == 0 {
				return mi, 0, false
			}
			return mi, models[mi].live[fi%len(models[mi].live)], true
		}
		var seq byte
		for op := 0; op < 256 && in.Len() > 0; op++ {
			switch next() % numOps {
			case opAlloc:
				mi := next() % len(mems)
				if len(models[mi].live) >= 8 {
					break
				}
				hpa, err := mems[mi].AllocFrame()
				if err != nil {
					t.Fatal(err)
				}
				if _, dup := models[mi].pages[hpa]; dup || hpa == 0 || hpa.PageOffset() != 0 {
					t.Fatalf("mem %d: alloc returned %v, live or malformed", mi, hpa)
				}
				models[mi].pages[hpa] = [PageSize]byte{}
				models[mi].live = append(models[mi].live, hpa)
			case opFree:
				mi, hpa, ok := frame()
				if !ok {
					break
				}
				if err := mems[mi].FreeFrame(hpa); err != nil {
					t.Fatal(err)
				}
				m := &models[mi]
				delete(m.pages, hpa)
				for i, h := range m.live {
					if h == hpa {
						m.live = append(m.live[:i], m.live[i+1:]...)
						break
					}
				}
			case opWrite:
				mi, hpa, ok := frame()
				off := uint64(next()|next()<<8) % PageSize
				lb := next()
				if !ok {
					break
				}
				n := uint64(1 + lb&63)
				seq++
				b := make([]byte, n)
				for i := range b {
					b[i] = seq ^ byte(i*7+1)
				}
				if off+n > PageSize {
					if err := mems[mi].Write(hpa+HPA(off), b); !errors.Is(err, ErrCrossesFrame) {
						t.Fatalf("crossing write at %v+%d: err %v", hpa+HPA(off), n, err)
					}
					break
				}
				if lb&64 != 0 {
					fr, err := mems[mi].FrameRef(hpa)
					if err != nil {
						t.Fatal(err)
					}
					mems[mi].WriteFrame(fr, off, b)
				} else if err := mems[mi].Write(hpa+HPA(off), b); err != nil {
					t.Fatal(err)
				}
				pg := models[mi].pages[hpa]
				copy(pg[off:], b)
				models[mi].pages[hpa] = pg
			case opRead:
				mi, hpa, ok := frame()
				off := uint64(next()|next()<<8) % PageSize
				n := uint64(1 + next()&63)
				if !ok || off+n > PageSize {
					break
				}
				got := make([]byte, n)
				if err := mems[mi].Read(hpa+HPA(off), got); err != nil {
					t.Fatal(err)
				}
				pg := models[mi].pages[hpa]
				if !bytes.Equal(got, pg[off:off+n]) {
					t.Fatalf("mem %d read %v+%d = %x, want %x", mi, hpa+HPA(off), n, got, pg[off:off+n])
				}
			case opCapture:
				mi := next() % len(mems)
				snaps = append(snaps, mems[mi].CaptureSnapshot())
				snapModels = append(snapModels, models[mi].clone())
			case opFork:
				si, slot := next(), next()
				if len(snaps) == 0 {
					break
				}
				si %= len(snaps)
				fk, model := snaps[si].NewPhysMem(), snapModels[si].clone()
				if len(mems) < 4 {
					mems, models = append(mems, fk), append(models, model)
				} else {
					mi := 1 + slot%(len(mems)-1)
					mems[mi], models[mi] = fk, model
				}
			case opRestore:
				mi, si := next()%len(mems), next()
				if len(snaps) == 0 {
					break
				}
				si %= len(snaps)
				mems[mi].RestoreSnapshot(snaps[si])
				models[mi] = snapModels[si].clone()
			case opFrameBytes:
				mi, hpa, ok := frame()
				if !ok {
					break
				}
				checkFrame(t, mems[mi], models[mi], hpa)
			}
		}
		for mi, p := range mems {
			if p.FrameCount() != len(models[mi].live) {
				t.Fatalf("mem %d: %d live frames, model has %d", mi, p.FrameCount(), len(models[mi].live))
			}
			for _, hpa := range models[mi].live {
				checkFrame(t, p, models[mi], hpa)
			}
		}
		// Every snapshot still forks into exactly its captured image.
		for si, s := range snaps {
			fk := s.NewPhysMem()
			for _, hpa := range snapModels[si].live {
				checkFrame(t, fk, snapModels[si], hpa)
			}
		}
	})
}

// checkFrame compares one frame of p with the reference model.
func checkFrame(t *testing.T, p *PhysMem, m cowModel, hpa HPA) {
	t.Helper()
	got, err := p.FrameBytes(hpa)
	if err != nil {
		t.Fatal(err)
	}
	want := m.pages[hpa]
	if !bytes.Equal(got, want[:]) {
		t.Fatalf("frame %v differs from the reference model", hpa)
	}
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
