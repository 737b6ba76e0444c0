package faultinject

import "testing"

// FuzzParseSchedule drives the schedule parser with arbitrary text: it
// must never panic, and a schedule it accepts must hold at least one
// rule, each keyed by a non-empty site, firing from hit 1 or later, with
// a known shape.
func FuzzParseSchedule(f *testing.F) {
	// Seed corpus: the package-doc example, the schedules the service
	// chaos suite runs, and rejection cases for each parse error.
	for _, s := range []string{
		"persist.append:3-2:enospc,sse.write:1:err",
		"persist.append:2-2:enospc",
		"persist.snapshot.rename:1:eio",
		"capsearch.trial:1-1:panic",
		"sched.worker.stall:1:stall",
		"persist.append:2-1:shortwrite",
		"sse.write:999999:err,persist.append:999999:enospc",
		"",
		" , ,",
		"persist.append:1",
		":1:err",
		"persist.append:1:bogus",
		"persist.append:0:err",
		"persist.append:1-0:err",
		"persist.append:-1:err",
		"persist.append:1-x:err",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, schedule string) {
		reg, err := parse(schedule)
		if err != nil {
			return
		}
		rules := 0
		for site, rs := range reg.rules {
			if site == "" {
				t.Fatalf("schedule %q: rule with an empty site", schedule)
			}
			for _, r := range rs {
				rules++
				if r.from < 1 {
					t.Fatalf("schedule %q: site %s fires from hit %d", schedule, site, r.from)
				}
				if !validShapes[r.shape] {
					t.Fatalf("schedule %q: site %s has unknown shape %q", schedule, site, r.shape)
				}
			}
		}
		if rules == 0 {
			t.Fatalf("schedule %q accepted with no rules", schedule)
		}
	})
}
