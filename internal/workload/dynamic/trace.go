package dynamic

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
)

// TraceEvent is one recorded arrival: at TimeS seconds a UE of the
// named cohort arrived, optionally asking for Demand CRUs (0 = no
// hint; the session picks a profile at random from the cohort's pool,
// exactly as the generative processes do).
type TraceEvent struct {
	TimeS  float64
	Cohort string
	Demand int
}

// ParseTrace reads a CSV arrival trace: one "t,cohort[,demand]" row per
// event, with '#' comments and an optional "t,cohort,demand" header.
// Times must be finite, non-negative and non-decreasing; demands
// non-negative integers. Every cohort named in the trace must exist in
// the spec the trace feeds (the caller checks that, via Spec.CheckTrace).
func ParseTrace(r *bufio.Scanner) ([]TraceEvent, error) {
	var events []TraceEvent
	line := 0
	for r.Scan() {
		line++
		text := strings.TrimSpace(r.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if line == 1 || len(events) == 0 {
			// Tolerate a conventional header row.
			if strings.EqualFold(strings.ReplaceAll(text, " ", ""), "t,cohort,demand") ||
				strings.EqualFold(strings.ReplaceAll(text, " ", ""), "t,cohort") {
				continue
			}
		}
		parts := strings.Split(text, ",")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("dynamic: trace line %d: want t,cohort[,demand], got %q", line, text)
		}
		t, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil || t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return nil, fmt.Errorf("dynamic: trace line %d: bad time %q", line, parts[0])
		}
		if n := len(events); n > 0 && t < events[n-1].TimeS {
			return nil, fmt.Errorf("dynamic: trace line %d: time %g before previous %g (trace must be sorted)", line, t, events[n-1].TimeS)
		}
		cohort := strings.TrimSpace(parts[1])
		if cohort == "" {
			return nil, fmt.Errorf("dynamic: trace line %d: empty cohort", line)
		}
		demand := 0
		if len(parts) == 3 && strings.TrimSpace(parts[2]) != "" {
			demand, err = strconv.Atoi(strings.TrimSpace(parts[2]))
			if err != nil || demand < 0 {
				return nil, fmt.Errorf("dynamic: trace line %d: bad demand %q", line, parts[2])
			}
		}
		events = append(events, TraceEvent{TimeS: t, Cohort: cohort, Demand: demand})
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("dynamic: read trace: %w", err)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("dynamic: trace has no events")
	}
	return events, nil
}

// LoadTrace reads a CSV trace file.
func LoadTrace(path string) ([]TraceEvent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dynamic: open trace: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	events, err := ParseTrace(sc)
	if err != nil {
		return nil, fmt.Errorf("dynamic: %s: %w", path, err)
	}
	return events, nil
}

// CheckTrace verifies that every cohort named in the trace exists in
// the spec.
func (s Spec) CheckTrace(events []TraceEvent) error {
	known := make(map[string]bool, len(s.Cohorts))
	for _, c := range s.Cohorts {
		known[c.Name] = true
	}
	for _, e := range events {
		if !known[e.Cohort] {
			return fmt.Errorf("dynamic: trace names unknown cohort %q", e.Cohort)
		}
	}
	return nil
}

// SplitTrace partitions a trace into per-cohort replay schedules and
// demand-hint queues, in recorded order. The returned maps are keyed by
// cohort name; cohorts with no events are absent.
func SplitTrace(events []TraceEvent) (times map[string][]float64, demands map[string][]int) {
	times = make(map[string][]float64)
	demands = make(map[string][]int)
	for _, e := range events {
		times[e.Cohort] = append(times[e.Cohort], e.TimeS)
		demands[e.Cohort] = append(demands[e.Cohort], e.Demand)
	}
	return times, demands
}
