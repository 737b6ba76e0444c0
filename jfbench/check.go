package main

import (
	"crypto/sha256"
	"fmt"
)

// Answer checks run after the measured phase, against the same daemon:
//   - a job's result document equals the sync endpoint's bytes for the
//     same request;
//   - the first answers of each op class equal the library's answers
//     computed in-process (callLayers): trials=1 evaluates equal
//     jellyfish.OptimalThroughput or EstimateThroughput, maxServers
//     equals the library's capacity search, and designs, what-if steps
//     and rewire plans equal the library's.
//
// Byte identity across repeats is checked as answers arrive (answers).

// checksPerClass bounds the in-process references per op class, keeping
// the checks to a few seconds; the first answered requests are checked.
const checksPerClass = 2

func checkAnswers(c *client, w *workload, ans *answers, rep *report) {
	perClass := map[string]int{}
	checked := 0
	for _, o := range w.ops {
		r := &w.reqs[o]
		want, ok := ans.get(o)
		if !ok || perClass[r.class] >= checksPerClass {
			continue
		}
		perClass[r.class]++
		// A sync request is asked again; a job's request goes to its
		// sync twin, whose bytes must equal the job's result document.
		b, err := c.post(r.syncPath(), r.body)
		switch {
		case err != nil:
			rep.fail("request %d: asking again: %v", o, err)
		case sha256.Sum256(b) != want && r.path == "":
			rep.fail("request %d: job result differs from the sync endpoint's bytes", o)
		case sha256.Sum256(b) != want:
			rep.fail("request %d: answer asked again differs from the measured one", o)
		default:
			if err := callLayers(newTracer(false), o, r, b); err != nil {
				rep.fail("request %d (%s): %v", o, r.class, err)
			}
		}
		checked++
	}
	rep.header = append(rep.header, fmt.Sprintf("checks: %d answered requests compared with in-process references", checked))
}
