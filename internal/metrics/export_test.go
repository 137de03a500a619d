package metrics

import (
	"fmt"
	"math"
	"testing"
)

// TestPointMarshalJSON: a point encodes as the [ts,v] pair fmt prints.
func TestPointMarshalJSON(t *testing.T) {
	for _, p := range []Point{
		{0, 0}, {1, -1}, {-7, 42}, {1_000_000_007, -999},
		{math.MinInt64, math.MaxInt64}, {math.MaxInt64, math.MinInt64},
		{math.MinInt64, math.MinInt64}, {math.MaxInt64, math.MaxInt64},
	} {
		got, err := p.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("[%d,%d]", p.TS, p.V); string(got) != want {
			t.Errorf("%+v encodes as %s, want %s", p, got, want)
		}
	}
}
