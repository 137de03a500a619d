package mem

import "sync/atomic"

// Snapshot is an immutable copy-on-write capture of a PhysMem: the
// source's chunks are frozen and shared, not copied, so capturing N
// gigabytes costs O(chunks) pointer copies, which is what makes forking a
// warmed-up VM into scenario variants cheap. The source and every fork
// copy a frozen chunk (20 KiB of frames and its write buffers) on their
// first access to it; materialized pages stay shared until written.
//
// Contract:
//   - Capture and restore require all goroutines touching the PhysMem to be
//     quiescent; in the simulator that means no VM is mid-instruction,
//     which machine-level snapshotting enforces.
//   - A Snapshot is immutable once captured and may back any number of
//     restores and forks concurrently, including after the source PhysMem
//     has diverged or been reset.
//   - A capture is a freeze and bumps nothing: no caller keeps a frame
//     pointer past one access (FrameRef), and lookups never return a frame
//     of a frozen chunk, so nothing can write into what was captured.
type Snapshot struct {
	chunks   []*chunk // frozen; nil where the source had no chunk
	live     int
	next     HPA
	free     []HPA
	maxBytes uint64
}

// CaptureSnapshot captures the current memory image copy-on-write. The
// source keeps running afterwards: its chunks are frozen, and each is
// copied back into private ownership on the source's first access to it.
func (p *PhysMem) CaptureSnapshot() *Snapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &Snapshot{
		live:     p.live,
		next:     p.next,
		free:     append([]HPA(nil), p.free...),
		maxBytes: p.maxBytes,
	}
	if d := p.dir.Load(); d != nil {
		s.chunks = make([]*chunk, len(*d))
		for i := range *d {
			c := (*d)[i].Load()
			// A chunk still shared from an earlier snapshot is already
			// frozen and may be read by other forks right now.
			if c != nil && !c.frozen {
				c.frozen = true
			}
			s.chunks[i] = c
		}
	}
	return s
}

// RestoreSnapshot rewinds the memory image to the captured state by
// adopting its frozen chunks, so divergence since the capture is discarded
// without being undone byte-by-byte.
func (p *PhysMem) RestoreSnapshot(s *Snapshot) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.applyLocked(s)
}

// NewPhysMem forks the snapshot into a brand-new PhysMem sharing the
// captured chunks copy-on-write. Any number of forks may coexist; each
// diverges privately.
func (s *Snapshot) NewPhysMem() *PhysMem {
	p := &PhysMem{next: PageSize, maxBytes: s.maxBytes}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.applyLocked(s)
	return p
}

// FrameCount reports the number of live frames in the captured image.
func (s *Snapshot) FrameCount() int { return s.live }

// applyLocked adopts the snapshot's chunk list: O(chunks), with no frame
// copied until it is first accessed.
func (p *PhysMem) applyLocked(s *Snapshot) {
	d := make([]atomic.Pointer[chunk], len(s.chunks))
	for i, c := range s.chunks {
		d[i].Store(c)
	}
	p.dir.Store(&d)
	p.live = s.live
	p.next = s.next
	p.free = append([]HPA(nil), s.free...)
	p.maxBytes = s.maxBytes
}
