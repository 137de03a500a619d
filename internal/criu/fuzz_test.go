package criu

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/guestos"
	"repro/internal/mem"
)

// FuzzReadImage feeds arbitrary bytes to the image decoder. Every input
// must decode or fail with ErrBadImage, never panic, and a decoded image
// must survive a WriteTo/ReadImage round trip unchanged.
func FuzzReadImage(f *testing.F) {
	page := bytes.Repeat([]byte{0xA5}, mem.PageSize)
	img := &Image{
		Pid:         7,
		Name:        "app",
		Regions:     []guestos.Region{{Start: 0x400000, End: 0x402000}},
		Pages:       map[mem.GVA][]byte{0x400000: page, 0x401000: make([]byte, mem.PageSize)},
		DumpedPages: 3,
		Rounds:      2,
	}
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	b := buf.Bytes()
	for n := 0; n < len(b); n += 7 {
		f.Add(b[:n])
	}
	f.Add(b)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadImage(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadImage) {
				t.Fatalf("error %v does not wrap ErrBadImage", err)
			}
			return
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		again, err := ReadImage(&out)
		if err != nil {
			t.Fatalf("re-reading a written image: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("round trip changed the image:\n%+v\n%+v", got, again)
		}
	})
}
