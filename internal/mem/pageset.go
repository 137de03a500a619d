package mem

// pageSetChunkShift sets how much address space one PageSet bitmap covers:
// 128 MiB, so a bitmap of one bit per 4 KiB page is itself 4 KiB.
const pageSetChunkShift = 27

// pageBitmap holds one bit per page of one 128 MiB chunk.
type pageBitmap [1 << (pageSetChunkShift - PageShift) / 64]uint64

// PageSet is an insertion-ordered set of guest virtual pages: the dirty set
// a tracker accumulates between two collections. Membership is one bit in a
// per-chunk bitmap, so Add does no hashing and allocates only when a chunk
// is first touched or the order slice grows. The zero value is an empty set
// ready to use; a PageSet is not safe for concurrent use.
type PageSet struct {
	order  []GVA
	chunks map[uint64]*pageBitmap // chunk number -> bitmap

	// last caches the most recently used chunk: consecutive adds almost
	// always land in the same 128 MiB.
	lastKey uint64
	last    *pageBitmap
}

// Add records the page containing gva. It reports whether the page was
// new; a page already in the set keeps its first position.
func (s *PageSet) Add(gva GVA) bool {
	gva = gva.PageFloor()
	key := uint64(gva) >> pageSetChunkShift
	b := s.last
	if b == nil || key != s.lastKey {
		b = s.chunks[key]
		if b == nil {
			if s.chunks == nil {
				s.chunks = make(map[uint64]*pageBitmap)
			}
			b = new(pageBitmap)
			s.chunks[key] = b
		}
		s.lastKey, s.last = key, b
	}
	bit := gva.Page() & (1<<(pageSetChunkShift-PageShift) - 1)
	w, m := bit>>6, uint64(1)<<(bit&63)
	if b[w]&m != 0 {
		return false
	}
	b[w] |= m
	s.order = append(s.order, gva)
	return true
}

// Pages returns the set's pages in insertion order. The slice is valid
// until the next Add or Reset.
func (s *PageSet) Pages() []GVA { return s.order }

// Reset empties the set, keeping its memory for reuse. It clears every
// chunk bitmap whole, which costs less than clearing the bits of the
// recorded pages one by one.
func (s *PageSet) Reset() {
	for _, b := range s.chunks {
		*b = pageBitmap{}
	}
	s.order = s.order[:0]
}
