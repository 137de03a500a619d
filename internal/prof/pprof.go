package prof

import (
	"compress/gzip"
	"io"
	"sort"
)

// WritePprof writes the profile as a gzipped pprof protobuf
// (profile.proto), consumable by `go tool pprof`. The encoding is
// hand-rolled - varints and length-delimited fields only - so the repo
// stays dependency-free. Each call path becomes one sample whose values
// are [span count, exclusive ns]; pprof derives cumulative time by
// summing samples along stacks, exactly as it does for CPU profiles.
//
// Output is deterministic: paths, locations and the string table are
// emitted in sorted tree order, and the gzip header carries no
// timestamp.
func (p *Profiler) WritePprof(w io.Writer) error {
	tree := p.Tree()
	samples := make([]pprofSample, 0)
	for _, ps := range tree.Paths() {
		samples = append(samples, pprofSample{path: ps.Path, values: [2]int64{ps.Count, ps.Excl}})
	}
	return writePprofGz(w, samples, tree.TotalNanos())
}

// pprofSample is one sample row of a pprof export: a call path plus the
// [count, ns] value pair (deltas allowed - pprof handles negative values,
// that is how its -diff_base mode works).
type pprofSample struct {
	path   []Frame
	values [2]int64
}

// writePprofGz gzips the marshaled Profile message deterministically.
func writePprofGz(w io.Writer, samples []pprofSample, durationNanos int64) error {
	gz := gzip.NewWriter(w) // zero ModTime => deterministic header
	gz.OS = 255             // "unknown", OS-independent output
	if _, err := gz.Write(marshalPprof(samples, durationNanos)); err != nil {
		gz.Close()
		return err
	}
	return gz.Close()
}

// pprof profile.proto field numbers (message Profile unless noted).
const (
	fSampleType        = 1 // repeated ValueType
	fSample            = 2 // repeated Sample
	fLocation          = 4 // repeated Location
	fFunction          = 5 // repeated Function
	fStringTable       = 6 // repeated string
	fDurationNanos     = 10
	fPeriodType        = 11 // ValueType
	fPeriod            = 12
	fDefaultSampleType = 14 // int64 (string table index)

	fVTType = 1 // ValueType.type
	fVTUnit = 2 // ValueType.unit

	fSampleLocationID = 1 // Sample.location_id (repeated uint64, packed)
	fSampleValue      = 2 // Sample.value (repeated int64, packed)

	fLocID   = 1 // Location.id
	fLocLine = 4 // Location.line (repeated Line)

	fLineFunctionID = 1 // Line.function_id

	fFnID         = 1 // Function.id
	fFnName       = 2 // Function.name (string table index)
	fFnSystemName = 3
	fFnFilename   = 4
)

// marshalPprof builds the uncompressed Profile message.
func marshalPprof(samples []pprofSample, durationNanos int64) []byte {
	var strs stringTable
	strs.index("") // index 0 must be ""

	// One function+location per distinct frame, ids assigned in sorted
	// frame order for determinism.
	frames := make(map[Frame]uint64)
	var order []Frame
	for _, ps := range samples {
		for _, f := range ps.path {
			if _, ok := frames[f]; !ok {
				frames[f] = 0
				order = append(order, f)
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].less(order[j]) })
	for i, f := range order {
		frames[f] = uint64(i + 1)
	}

	var prof msg

	// sample_type: [(samples, count), (time, nanoseconds)]
	prof.message(fSampleType, valueType(&strs, "samples", "count"))
	prof.message(fSampleType, valueType(&strs, "time", "nanoseconds"))

	// samples: one per path, location ids leaf-first.
	for _, ps := range samples {
		var s msg
		locs := make([]uint64, len(ps.path))
		for i, f := range ps.path {
			locs[len(ps.path)-1-i] = frames[f] // leaf first
		}
		s.packedUvarints(fSampleLocationID, locs)
		s.packedVarints(fSampleValue, ps.values[:])
		prof.message(fSample, s)
	}

	// locations and functions, one pair per frame.
	for _, f := range order {
		id := frames[f]

		var line msg
		line.uvarint(fLineFunctionID, id)
		var loc msg
		loc.uvarint(fLocID, id)
		loc.message(fLocLine, line)
		prof.message(fLocation, loc)

		var fn msg
		fn.uvarint(fFnID, id)
		name := strs.index(f.String())
		fn.uvarint(fFnName, name)
		fn.uvarint(fFnSystemName, name)
		fn.uvarint(fFnFilename, strs.index(f.Sub))
		prof.message(fFunction, fn)
	}

	prof.varint(fDurationNanos, durationNanos)
	prof.message(fPeriodType, valueType(&strs, "time", "nanoseconds"))
	prof.varint(fPeriod, 1)
	prof.varint(fDefaultSampleType, int64(strs.index("time")))

	// string_table last in the buffer is fine: field order is free in
	// protobuf, and all indexes are settled by now.
	for _, s := range strs.list {
		prof.bytes(fStringTable, []byte(s))
	}
	return prof.b
}

func valueType(strs *stringTable, typ, unit string) msg {
	var m msg
	m.uvarint(fVTType, strs.index(typ))
	m.uvarint(fVTUnit, strs.index(unit))
	return m
}

// stringTable interns strings, preserving first-seen order.
type stringTable struct {
	idx  map[string]uint64
	list []string
}

func (t *stringTable) index(s string) uint64 {
	if t.idx == nil {
		t.idx = make(map[string]uint64)
	}
	if i, ok := t.idx[s]; ok {
		return i
	}
	i := uint64(len(t.list))
	t.idx[s] = i
	t.list = append(t.list, s)
	return i
}

// msg is a minimal protobuf wire-format builder.
type msg struct{ b []byte }

func (m *msg) rawUvarint(v uint64) {
	for v >= 0x80 {
		m.b = append(m.b, byte(v)|0x80)
		v >>= 7
	}
	m.b = append(m.b, byte(v))
}

func (m *msg) key(field, wire int) { m.rawUvarint(uint64(field)<<3 | uint64(wire)) }

// uvarint emits a varint field (wire type 0).
func (m *msg) uvarint(field int, v uint64) {
	m.key(field, 0)
	m.rawUvarint(v)
}

// varint emits a signed int64 field (wire type 0, two's-complement).
func (m *msg) varint(field int, v int64) { m.uvarint(field, uint64(v)) }

// bytes emits a length-delimited field (wire type 2).
func (m *msg) bytes(field int, b []byte) {
	m.key(field, 2)
	m.rawUvarint(uint64(len(b)))
	m.b = append(m.b, b...)
}

// message emits a nested message field.
func (m *msg) message(field int, sub msg) { m.bytes(field, sub.b) }

// packedUvarints emits a packed repeated uint64 field.
func (m *msg) packedUvarints(field int, vs []uint64) {
	var sub msg
	for _, v := range vs {
		sub.rawUvarint(v)
	}
	m.bytes(field, sub.b)
}

// packedVarints emits a packed repeated int64 field.
func (m *msg) packedVarints(field int, vs []int64) {
	var sub msg
	for _, v := range vs {
		sub.rawUvarint(uint64(v))
	}
	m.bytes(field, sub.b)
}
