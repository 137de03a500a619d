// Package criu implements a CRIU-style process checkpoint/restore system
// on top of the simulated guest OS, with the two integration points the
// paper patches (§IV-E): the initialization phase (no clear_refs pause when
// OoH tracks dirty pages) and the address collection phase (ring buffer
// reads instead of /proc/PID/pagemap parsing).
//
// The checkpointer implements iterative pre-copy: a full first dump, then
// dirty-only rounds, then a final stop-and-copy round with the process
// paused, mirroring how CRIU (and pre-copy live migration) converge.
package criu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/guestos"
	"repro/internal/mem"
)

// Image is a checkpoint image: process metadata plus the final content of
// every dumped page. Pages rewritten across pre-copy rounds appear once,
// with their last-dumped content.
type Image struct {
	Pid     guestos.Pid
	Name    string
	Regions []guestos.Region
	Pages   map[mem.GVA][]byte // page base -> 4 KiB content

	// DumpedPages counts page dumps across all rounds (>= len(Pages)):
	// the pre-copy write amplification.
	DumpedPages int
	Rounds      int
}

// NewImage returns an empty image for a process.
func NewImage(p *guestos.Process) *Image {
	regions := make([]guestos.Region, len(p.Regions()))
	copy(regions, p.Regions())
	return &Image{
		Pid:     p.Pid,
		Name:    p.Name,
		Regions: regions,
		Pages:   make(map[mem.GVA][]byte),
	}
}

// AddPage records the content of the page at gva (page-aligned).
func (img *Image) AddPage(gva mem.GVA, content []byte) error {
	if gva.PageOffset() != 0 || len(content) != mem.PageSize {
		return fmt.Errorf("criu: bad page record at %v (%d bytes)", gva, len(content))
	}
	c := make([]byte, mem.PageSize)
	copy(c, content)
	img.Pages[gva] = c
	img.DumpedPages++
	return nil
}

// SortedPages returns the dumped page addresses in ascending order.
func (img *Image) SortedPages() []mem.GVA {
	out := make([]mem.GVA, 0, len(img.Pages))
	for gva := range img.Pages {
		out = append(out, gva)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// imageMagic guards the serialized format.
const imageMagic = 0x4F6F4843 // "OoHC"

// ErrBadImage reports a malformed serialized image.
var ErrBadImage = errors.New("criu: malformed image")

// WriteTo serializes the image. The format is a simple deterministic
// binary layout (magic, metadata, sorted page records).
func (img *Image) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	put := func(v uint64) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	put(imageMagic)
	put(uint64(img.Pid))
	name := []byte(img.Name)
	put(uint64(len(name)))
	buf.Write(name)
	put(uint64(len(img.Regions)))
	for _, r := range img.Regions {
		put(uint64(r.Start))
		put(uint64(r.End))
	}
	put(uint64(img.Rounds))
	put(uint64(img.DumpedPages))
	pages := img.SortedPages()
	put(uint64(len(pages)))
	for _, gva := range pages {
		put(uint64(gva))
		buf.Write(img.Pages[gva])
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// ReadImage deserializes an image written by WriteTo.
func ReadImage(r io.Reader) (*Image, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	buf := bytes.NewReader(data)
	var get func() (uint64, error)
	get = func() (uint64, error) {
		var v uint64
		err := binary.Read(buf, binary.LittleEndian, &v)
		return v, err
	}
	magic, err := get()
	if err != nil || magic != imageMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadImage)
	}
	img := &Image{Pages: make(map[mem.GVA][]byte)}
	pid, err := get()
	if err != nil {
		return nil, fmt.Errorf("%w: pid", ErrBadImage)
	}
	img.Pid = guestos.Pid(pid)
	nameLen, err := get()
	if err != nil || nameLen > uint64(buf.Len()) {
		return nil, fmt.Errorf("%w: name length", ErrBadImage)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(buf, name); err != nil {
		return nil, fmt.Errorf("%w: name", ErrBadImage)
	}
	img.Name = string(name)
	nRegions, err := get()
	if err != nil {
		return nil, fmt.Errorf("%w: region count", ErrBadImage)
	}
	for i := uint64(0); i < nRegions; i++ {
		start, err1 := get()
		end, err2 := get()
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%w: region %d", ErrBadImage, i)
		}
		img.Regions = append(img.Regions, guestos.Region{Start: mem.GVA(start), End: mem.GVA(end)})
	}
	rounds, err := get()
	if err != nil {
		return nil, fmt.Errorf("%w: rounds", ErrBadImage)
	}
	img.Rounds = int(rounds)
	dumped, err := get()
	if err != nil {
		return nil, fmt.Errorf("%w: dumped count", ErrBadImage)
	}
	nPages, err := get()
	if err != nil {
		return nil, fmt.Errorf("%w: page count", ErrBadImage)
	}
	for i := uint64(0); i < nPages; i++ {
		gva, err := get()
		if err != nil {
			return nil, fmt.Errorf("%w: page %d addr", ErrBadImage, i)
		}
		content := make([]byte, mem.PageSize)
		if _, err := io.ReadFull(buf, content); err != nil {
			return nil, fmt.Errorf("%w: page %d content", ErrBadImage, i)
		}
		img.Pages[mem.GVA(gva)] = content
	}
	img.DumpedPages = int(dumped)
	return img, nil
}
