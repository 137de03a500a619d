package trace

import (
	"strings"
	"testing"
)

// FuzzParseKinds checks the -trace-kinds grammar: bad input returns an
// error and never panics, and an accepted mask round-trips through the
// names of the kinds it enables.
func FuzzParseKinds(f *testing.F) {
	for _, seed := range []string{"", "   ", "all", "hypercall, guest_pf", "hypercall,,guest_pf,",
		",", "all,hypercall", "no_such_kind", "hypercall,no_such_kind"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, csv string) {
		mask, err := ParseKinds(csv)
		if err != nil {
			return
		}
		if mask&^AllKinds != 0 {
			t.Fatalf("ParseKinds(%q) = %x sets bits outside AllKinds %x", csv, mask, AllKinds)
		}
		var names []string
		for k := Kind(0); int(k) < NumKinds(); k++ {
			if mask&(1<<uint(k)) != 0 {
				names = append(names, k.String())
			}
		}
		// The trailing comma keeps an empty mask from reading back as ""
		// (every kind); a blank element is otherwise skipped.
		spelled := strings.Join(names, ",") + ","
		back, err := ParseKinds(spelled)
		if err != nil || back != mask {
			t.Fatalf("ParseKinds(%q) = %x, but its names %q parse to %x, %v", csv, mask, spelled, back, err)
		}
	})
}
