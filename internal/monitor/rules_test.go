package monitor

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestParseRulesGrammar drives the rule grammar table: every accepted form
// round-trips through the canonical String (the rule's identity on the
// timeline), so parse(String(parse(s))) is a fixed point.
func TestParseRulesGrammar(t *testing.T) {
	cases := []struct {
		spec string
		want Rule
	}{
		{"monitor/dirty_rate_pps{vm0/pml} > 50000", Rule{
			Sub: "monitor", Name: "dirty_rate_pps", Label: "vm0/pml",
			Op: ">", Threshold: 50000,
		}},
		{"monitor/dirty_rate_pps{vm0/pml} > 50000 for 2ms", Rule{
			Sub: "monitor", Name: "dirty_rate_pps", Label: "vm0/pml",
			Op: ">", Threshold: 50000, For: (2 * time.Millisecond).Nanoseconds(),
		}},
		{"migration/events{mig_nack} >= 5", Rule{
			Sub: "migration", Name: "events", Label: "mig_nack",
			Op: ">=", Threshold: 5,
		}},
		{"pml/full_exits != 0", Rule{
			Sub: "pml", Name: "full_exits", Op: "!=", Threshold: 0,
		}},
		{"ept/violations <= -1", Rule{
			Sub: "ept", Name: "violations", Op: "<=", Threshold: -1,
		}},
		{"burn(1ms) > 1.5 for 500us", Rule{
			Burn: true, Window: time.Millisecond.Nanoseconds(),
			Op: ">", Threshold: 1500, For: (500 * time.Microsecond).Nanoseconds(),
		}},
		{"burn(2ms) == 1", Rule{
			Burn: true, Window: (2 * time.Millisecond).Nanoseconds(),
			Op: "==", Threshold: 1000,
		}},
	}
	for _, tc := range cases {
		rules, err := ParseRules(tc.spec)
		if err != nil {
			t.Errorf("ParseRules(%q): %v", tc.spec, err)
			continue
		}
		if len(rules) != 1 {
			t.Errorf("ParseRules(%q): %d rules, want 1", tc.spec, len(rules))
			continue
		}
		if rules[0] != tc.want {
			t.Errorf("ParseRules(%q) = %+v, want %+v", tc.spec, rules[0], tc.want)
		}
		// Canonical round-trip: String is the rule's identity.
		again, err := ParseRules(rules[0].String())
		if err != nil {
			t.Errorf("reparse %q: %v", rules[0].String(), err)
			continue
		}
		if again[0] != rules[0] {
			t.Errorf("round-trip %q -> %q -> %+v, want %+v",
				tc.spec, rules[0].String(), again[0], rules[0])
		}
	}
}

// TestParseRulesRejectsBadSpecs: every malformed spec must error (the CLIs
// validate -rules unconditionally at startup, so these are the exit-non-zero
// cases).
func TestParseRulesRejectsBadSpecs(t *testing.T) {
	bad := []string{
		"no operator here",
		"monitor/dirty_rate_pps >",            // empty threshold
		"> 5",                                 // empty series
		"dirty_rate_pps > 5",                  // no subsystem/name slash
		"/name > 5",                           // empty subsystem
		"monitor/ > 5",                        // empty name
		"monitor/x{unterminated > 5",          // unterminated label
		"monitor/x > five",                    // non-integer threshold
		"monitor/x > 5 for sideways",          // bad duration
		"monitor/x > 5 for -1ms",              // negative duration
		"burn(1ms > 1.5",                      // unterminated burn window
		"burn(bogus) > 1.5",                   // bad burn window
		"burn(0s) > 1.5",                      // non-positive burn window
		"burn(-1ms) > 1.5",                    // negative burn window
		"burn(1ms) > nope",                    // bad burn factor
		"burn(1ms) > -0.5",                    // negative burn factor
		"burn(1ms) > NaN",                     // per-mille threshold not a number
		"burn(1ms) > Inf",                     // per-mille threshold infinite
		"burn(1ms) > 1e300",                   // per-mille threshold past int64
		"burn(1ms) > 1e16",                    // per-mille threshold past int64
		"burn(1ms) > 4.5e12",                  // threshold/1000 no longer round-trips
		"a for b/c > 1 for 0s",                // ' for ' inside the series
		"monitor/x > 5, monitor/y > sideways", // second rule bad
	}
	for _, spec := range bad {
		if _, err := ParseRules(spec); err == nil {
			t.Errorf("ParseRules(%q) accepted a malformed spec", spec)
		}
	}
}

// TestParseRulesList: comma-separated lists parse element-wise and skip
// blanks; the empty spec yields no rules.
func TestParseRulesList(t *testing.T) {
	rules, err := ParseRules(" monitor/a > 1 ,, migration/b{x} <= 2 , ")
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("got %d rules, want 2", len(rules))
	}
	if rules[0].Name != "a" || rules[1].Name != "b" {
		t.Errorf("rules = %+v", rules)
	}
	if rules, err := ParseRules(""); err != nil || len(rules) != 0 {
		t.Errorf("empty spec: rules=%v err=%v", rules, err)
	}
}

// TestRuleStateForDuration: the condition must hold continuously for the
// rule's For duration before firing, and a firing rule resolves on the
// first false evaluation.
func TestRuleStateForDuration(t *testing.T) {
	r := Rule{Sub: "m", Name: "x", Op: ">", Threshold: 10, For: 100}
	rs := &ruleState{rule: r, since: -1}

	if tr := rs.evaluate(0, 50); tr != "" {
		t.Fatalf("t=0: transition %q, want hold (For not yet satisfied)", tr)
	}
	if tr := rs.evaluate(50, 50); tr != "" {
		t.Fatalf("t=50: transition %q, want hold", tr)
	}
	if tr := rs.evaluate(100, 50); tr != StateFiring {
		t.Fatalf("t=100: transition %q, want firing", tr)
	}
	// Already firing: no duplicate transition.
	if tr := rs.evaluate(150, 50); tr != "" {
		t.Fatalf("t=150: transition %q, want none while firing", tr)
	}
	if tr := rs.evaluate(200, 5); tr != StateResolved {
		t.Fatalf("t=200: transition %q, want resolved", tr)
	}
	// A dip resets the For clock.
	rs.evaluate(300, 50)
	rs.evaluate(350, 5) // false: resets since
	if tr := rs.evaluate(400, 50); tr != "" {
		t.Fatalf("t=400: transition %q, want hold (For restarted)", tr)
	}
	if tr := rs.evaluate(500, 50); tr != StateFiring {
		t.Fatalf("t=500: transition %q, want firing", tr)
	}
}

// TestRuleStringBurnFactor pins the burn-rule canonical rendering (the
// factor prints as a decimal, not per-mille).
func TestRuleStringBurnFactor(t *testing.T) {
	rules, err := ParseRules("burn(1ms) > 1.5")
	if err != nil {
		t.Fatal(err)
	}
	if s := rules[0].String(); !strings.Contains(s, "1.5") {
		t.Errorf("String() = %q, want the 1.5 factor rendered", s)
	}
}

// FuzzParseRules checks that the rule grammar is total and canonical:
// every input either fails to parse, or yields rules whose String forms,
// joined by commas, parse back to the same rules.
func FuzzParseRules(f *testing.F) {
	for _, seed := range []string{
		"monitor/dirty_rate_pps{vm0/pml} > 50000 for 2ms",
		"migration/events{mig_nack} >= 5",
		"pml/full_exits != 0, ept/violations <= -1",
		"burn(1ms) > 1.5 for 500us",
		"burn(2ms) == 1",
		"burn(1ms) > NaN",
		"a/b{x for 1s} > 1 for 0s",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		rules, err := ParseRules(spec)
		if err != nil {
			return
		}
		canon := make([]string, len(rules))
		for i, r := range rules {
			canon[i] = r.String()
		}
		joined := strings.Join(canon, ",")
		again, err := ParseRules(joined)
		if err != nil {
			t.Fatalf("ParseRules(%q) renders %q, which does not parse: %v", spec, joined, err)
		}
		if !reflect.DeepEqual(again, rules) {
			t.Fatalf("ParseRules(%q) = %+v, but its canonical form %q parses to %+v", spec, rules, joined, again)
		}
	})
}
