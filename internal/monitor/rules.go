package monitor

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// The alert-rule grammar, deliberately small:
//
//	rules  := rule (',' rule)*
//	rule   := series op value ['for' duration]
//	        | 'burn' '(' window ')' op factor ['for' duration]
//	series := subsystem '/' name ['{' label '}']
//	op     := '>' | '>=' | '<' | '<=' | '==' | '!='
//
// A series rule compares a metrics-plane counter or gauge (the monitor's
// own estimator gauges included: monitor/dirty_rate_pps{vm0/pml}) against
// an integer threshold; `for` requires the condition to hold continuously
// for the given virtual duration before the rule fires. A burn rule
// compares the downtime-budget burn rate - estimated stop-and-copy
// downtime over Options.DowntimeBudget, averaged over the trailing window
// - against a factor (1.0 = exactly on budget, at most 1e12). Examples:
//
//	monitor/dirty_rate_pps{vm0/pml} > 50000 for 2ms
//	migration/events{mig_nack} >= 5
//	burn(1ms) > 1.5 for 500us
//
// Like -faults and -trace-kinds, CLIs validate -rules unconditionally at
// startup: a bad spec exits non-zero even when the monitor is otherwise
// unused that run.

// Op is a comparison operator in a rule.
type Op string

// The comparison operators, in the order the parser tries them (two-rune
// operators first so ">=" never parses as ">" then a stray "=").
var ops = []Op{">=", "<=", "==", "!=", ">", "<"}

// compare applies the operator.
func (o Op) compare(v, threshold int64) bool {
	switch o {
	case ">":
		return v > threshold
	case ">=":
		return v >= threshold
	case "<":
		return v < threshold
	case "<=":
		return v <= threshold
	case "==":
		return v == threshold
	case "!=":
		return v != threshold
	}
	return false
}

// Rule is one parsed alert rule.
type Rule struct {
	// Series reference (ignored for burn rules).
	Sub, Name, Label string
	// Burn marks a downtime-budget burn-rate rule; Window is its trailing
	// averaging window in virtual ns.
	Burn   bool
	Window int64
	Op     Op
	// Threshold is the comparison value: the raw integer for series rules,
	// the burn factor in per-mille (1.5 -> 1500) for burn rules.
	Threshold int64
	// For is how long the condition must hold continuously, in virtual ns
	// (0 = fire on first true evaluation).
	For int64
}

// String renders the rule canonically; the canonical text is the rule's
// identity on the alert timeline.
func (r Rule) String() string {
	var b strings.Builder
	if r.Burn {
		fmt.Fprintf(&b, "burn(%s) %s %s", time.Duration(r.Window), r.Op,
			strconv.FormatFloat(float64(r.Threshold)/1000, 'g', -1, 64))
	} else {
		b.WriteString(r.Sub)
		b.WriteByte('/')
		b.WriteString(r.Name)
		if r.Label != "" {
			b.WriteByte('{')
			b.WriteString(r.Label)
			b.WriteByte('}')
		}
		fmt.Fprintf(&b, " %s %d", r.Op, r.Threshold)
	}
	if r.For > 0 {
		fmt.Fprintf(&b, " for %s", time.Duration(r.For))
	}
	return b.String()
}

// ParseRules parses a comma-separated rule list. An empty string yields no
// rules. Blank elements (trailing or doubled commas) are skipped.
func ParseRules(spec string) ([]Rule, error) {
	var out []Rule
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, fmt.Errorf("monitor: rule %q: %w", part, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// maxBurnFactor bounds a burn rule's factor. A NaN, infinite or huge
// factor would wrap the per-mille threshold negative, and the rule would
// fire on every evaluation. Below this bound the threshold also stays
// under 2^50, where String's rendering of it as threshold/1000 parses
// back to the same threshold.
const maxBurnFactor = 1e12

func parseRule(s string) (Rule, error) {
	var r Rule

	// Optional trailing "for <duration>".
	if i := strings.LastIndex(s, " for "); i >= 0 {
		d, err := time.ParseDuration(strings.TrimSpace(s[i+5:]))
		if err != nil {
			return r, fmt.Errorf("bad 'for' duration: %w", err)
		}
		if d < 0 {
			return r, fmt.Errorf("negative 'for' duration %v", d)
		}
		r.For = d.Nanoseconds()
		s = strings.TrimSpace(s[:i])
		// A series that itself contains " for " would read as a bad
		// duration once String drops a zero 'for' clause.
		if strings.Contains(s, " for ") {
			return r, fmt.Errorf("%q contains ' for ' outside the 'for' clause", s)
		}
	}

	// Split "<lhs> <op> <value>" on the first operator occurrence.
	opIdx, opLen := -1, 0
	var op Op
	for _, cand := range ops {
		if i := strings.Index(s, string(cand)); i >= 0 && (opIdx < 0 || i < opIdx || (i == opIdx && len(cand) > opLen)) {
			opIdx, opLen, op = i, len(cand), cand
		}
	}
	if opIdx < 0 {
		return r, fmt.Errorf("no comparison operator (have %v)", ops)
	}
	lhs := strings.TrimSpace(s[:opIdx])
	rhs := strings.TrimSpace(s[opIdx+opLen:])
	r.Op = op
	if lhs == "" {
		return r, fmt.Errorf("empty series before %q", op)
	}
	if rhs == "" {
		return r, fmt.Errorf("empty threshold after %q", op)
	}

	if strings.HasPrefix(lhs, "burn(") {
		if !strings.HasSuffix(lhs, ")") {
			return r, fmt.Errorf("unterminated burn window in %q", lhs)
		}
		w, err := time.ParseDuration(lhs[5 : len(lhs)-1])
		if err != nil {
			return r, fmt.Errorf("bad burn window: %w", err)
		}
		if w <= 0 {
			return r, fmt.Errorf("burn window must be positive, got %v", w)
		}
		factor, err := strconv.ParseFloat(rhs, 64)
		if err != nil || !(factor >= 0 && factor <= maxBurnFactor) {
			return r, fmt.Errorf("bad burn factor %q (want e.g. 1.5, at most %g)", rhs, maxBurnFactor)
		}
		r.Burn = true
		r.Window = w.Nanoseconds()
		r.Threshold = int64(factor*1000 + 0.5)
		return r, nil
	}

	// Series reference: subsystem/name{label}.
	ref := lhs
	if i := strings.IndexByte(ref, '{'); i >= 0 {
		if !strings.HasSuffix(ref, "}") {
			return r, fmt.Errorf("unterminated label in %q", ref)
		}
		r.Label = ref[i+1 : len(ref)-1]
		ref = ref[:i]
	}
	slash := strings.IndexByte(ref, '/')
	if slash <= 0 || slash == len(ref)-1 {
		return r, fmt.Errorf("series %q must be subsystem/name", ref)
	}
	r.Sub, r.Name = ref[:slash], ref[slash+1:]
	v, err := strconv.ParseInt(rhs, 10, 64)
	if err != nil {
		return r, fmt.Errorf("bad threshold %q (want an integer)", rhs)
	}
	r.Threshold = v
	return r, nil
}

// ruleState is one rule's evaluation state machine: the condition must
// hold continuously for the rule's For duration before it fires, and a
// firing rule resolves on the first false evaluation.
type ruleState struct {
	rule   Rule
	since  int64 // virtual time the condition became true; -1 when false
	firing bool
}

// evaluate advances the state machine with the current value, returning
// the transition to record: alertNone, alertFiring or alertResolved.
func (rs *ruleState) evaluate(now, value int64) string {
	cond := rs.rule.Op.compare(value, rs.rule.Threshold)
	switch {
	case cond && !rs.firing:
		if rs.since < 0 {
			rs.since = now
		}
		if now-rs.since >= rs.rule.For {
			rs.firing = true
			return StateFiring
		}
	case !cond:
		rs.since = -1
		if rs.firing {
			rs.firing = false
			return StateResolved
		}
	}
	return ""
}
