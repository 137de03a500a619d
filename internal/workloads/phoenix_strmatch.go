package workloads

import (
	"bytes"

	"repro/internal/guestos"
	"repro/internal/mem"
	"repro/internal/sim"
)

// StringMatch is Phoenix's string-match kernel: scan a text file for a set
// of encrypted keys, recording match positions. The paper's Boehm
// experiment finds string-match the worst-case tracked app (232 % overhead
// under /proc, 273 % under SPML, 24 % under EPML). Matches are scattered
// across the file, so the match-flag writes dirty pages spread over a
// region proportional to the input.
type StringMatch struct {
	FileBytes uint64

	proc    *guestos.Process
	file    mem.GVA
	flags   mem.GVA // one byte per 64-byte window: match bitmap
	keys    [][]byte
	memo    *memoEntry[drawn, matchScan]
	ready   bool
	Matches int

	// anchor is the longest common prefix of the keys (empty disables the
	// anchored single-scan and falls back to one scan per key).
	anchor []byte
}

// matchScan is one pass's analysis of a text: per page, the match count
// and the flag bytes written when it is not zero, at the page's offset in
// the flags region. The file region is immutable after Setup (Run writes
// only to the flags region), so every pass over one text computes the
// same scan.
type matchScan struct {
	matches []int
	flags   []byte
}

// stringMatchKeys mirrors Phoenix's four built-in keys.
var stringMatchKeys = []string{"key1_abc", "key2_def", "key3_ghi", "key4_jkl"}

// NewStringMatch returns the kernel over a synthetic file of n bytes.
func NewStringMatch(fileBytes uint64) *StringMatch { return &StringMatch{FileBytes: fileBytes} }

// Name implements Workload.
func (w *StringMatch) Name() string { return "phoenix/string-match" }

// Setup implements Workload: synthesize text with keys planted at
// deterministic pseudo-random offsets.
func (w *StringMatch) Setup(alloc Allocator, rng *sim.RNG) error {
	w.proc = alloc.Proc()
	var err error
	if w.file, err = alloc.Alloc(w.FileBytes); err != nil {
		return err
	}
	if w.flags, err = alloc.Alloc(w.FileBytes/64 + 1); err != nil {
		return err
	}
	w.keys = w.keys[:0]
	for _, k := range stringMatchKeys {
		w.keys = append(w.keys, []byte(k))
	}
	w.anchor = commonPrefix(w.keys)
	key := inputKey{name: w.Name(), dims: [2]int{int(w.FileBytes)}, rng: *rng}
	w.memo = memoFor[drawn, matchScan](key)
	text := w.memo.generate(func() drawn { return drawText(key.rng, w.FileBytes) })
	*rng = text.after
	for off := 0; off < len(text.bytes); off += mem.PageSize {
		if err := writeSharedChunk(w.proc, w.file.Add(uint64(off)), text.bytes, off, min(len(text.bytes)-off, mem.PageSize)); err != nil {
			return err
		}
	}
	w.ready = true
	return nil
}

// drawText draws a text of size bytes from rng: per page, lowercase noise
// ('a'+Intn(26) per byte), then a key, drawn by index, planted every
// ~2 KiB.
func drawText(rng sim.RNG, size uint64) drawn {
	text := make([]byte, size)
	for off := uint64(0); off < size; off += mem.PageSize {
		page := text[off:min(off+mem.PageSize, size)]
		for i := range page {
			page[i] = 'a' + byte(rng.Intn(26))
		}
		for plant := 0; plant+len(stringMatchKeys[0]) < len(page); plant += 2048 {
			copy(page[plant:], stringMatchKeys[rng.Intn(len(stringMatchKeys))])
		}
	}
	return drawn{text, rng}
}

// commonPrefix returns the longest byte prefix shared by every key, or nil
// unless all keys also have equal length (the anchored scan compares fixed
// 8-byte windows).
func commonPrefix(keys [][]byte) []byte {
	if len(keys) == 0 {
		return nil
	}
	p := keys[0]
	for _, k := range keys[1:] {
		if len(k) != len(keys[0]) {
			return nil
		}
		for len(p) > 0 && !bytes.HasPrefix(k, p) {
			p = p[:len(p)-1]
		}
	}
	if len(p) == 0 {
		return nil
	}
	return p
}

// Run implements Workload: one scan pass; each window containing a match
// gets its flag byte written. Every pass reads the whole file; a pass
// over a text already scanned replays the published scan's flag writes.
func (w *StringMatch) Run() error {
	if err := checkSetup(w.Name(), w.ready); err != nil {
		return err
	}
	w.Matches = 0
	pages := int((w.FileBytes + mem.PageSize - 1) / mem.PageSize)
	scan := w.memo.analysis()
	fresh := scan == nil
	if fresh {
		scan = &matchScan{matches: make([]int, pages), flags: make([]byte, w.FileBytes/64+1)}
	}
	buf := make([]byte, mem.PageSize)
	for page := 0; page < pages; page++ {
		off := uint64(page) * mem.PageSize
		n := min(w.FileBytes-off, mem.PageSize)
		if err := readChunk(w.proc, w.file.Add(off), buf[:n]); err != nil {
			return err
		}
		flags := scan.flags[off/64 : off/64+(n+63)/64]
		if fresh {
			scan.matches[page] = w.scanPage(buf[:n], flags)
		}
		w.Matches += scan.matches[page]
		if scan.matches[page] > 0 {
			if err := writeChunk(w.proc, w.flags.Add(off/64), flags); err != nil {
				return err
			}
		}
	}
	if fresh {
		w.memo.publish(scan)
	}
	return nil
}

// scanPage counts the key matches in one page of text and sets the flag
// byte of each 64-byte window holding one.
func (w *StringMatch) scanPage(buf, flags []byte) int {
	matches := 0
	if a := w.anchor; a != nil {
		// The keys share a prefix and a length, so one scan for the
		// anchor replaces a scan per key; a position matches at most
		// one key, so per-position compare preserves the exact count.
		kl := len(w.keys[0])
		at := 0
		for {
			idx := bytes.Index(buf[at:], a)
			if idx < 0 {
				break
			}
			pos := at + idx
			if pos+kl <= len(buf) {
				for _, key := range w.keys {
					if bytes.Equal(buf[pos:pos+kl], key) {
						flags[pos/64] = 1
						matches++
						break
					}
				}
			}
			at = pos + 1
		}
		return matches
	}
	for _, key := range w.keys {
		at := 0
		for {
			idx := bytes.Index(buf[at:], key)
			if idx < 0 {
				break
			}
			pos := at + idx
			flags[pos/64] = 1
			matches++
			at = pos + 1
		}
	}
	return matches
}

// WorkingSet implements Workload.
func (w *StringMatch) WorkingSet() uint64 { return w.FileBytes + w.FileBytes/64 }
